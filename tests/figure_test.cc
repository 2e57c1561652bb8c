// Figure presets (src/exp/figures.h): the nine names are unique; every
// preset runs at scale 1/32 on one worker and on four, and each of its
// tables renders to the same CSV bytes both ways; unknown preset names are
// rejected with a hint.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/figures.h"

namespace cachesched {
namespace {

constexpr double kScale = 0.03125;

TEST(Figures, NamesAreUniqueAndThereAreNine) {
  std::set<std::string> names;
  for (const FigureSpec& fig : figures()) {
    EXPECT_TRUE(names.insert(fig.name).second)
        << "duplicate preset name " << fig.name;
  }
  EXPECT_EQ(names.size(), 9u);
}

// One case per preset, so a test runner can spread the presets over cores.
class PresetTest : public testing::TestWithParam<std::string> {};

TEST_P(PresetTest, IsByteIdenticalAcrossWorkerCounts) {
  const FigureSpec& fig = find_figure(GetParam());
  const auto serial = run_figure(fig, kScale, {.workers = 1});
  const auto parallel = run_figure(fig, kScale, {.workers = 4});
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  std::set<std::string> tables;
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].name);
    EXPECT_TRUE(tables.insert(serial[i].name).second) << "duplicate table";
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].title, parallel[i].title);
    EXPECT_EQ(serial[i].summary, parallel[i].summary);
    const std::string csv = serial[i].table.to_csv();
    EXPECT_NE(csv.find('\n'), csv.size() - 1) << "table has no rows";
    EXPECT_EQ(csv, parallel[i].table.to_csv());
  }
}

std::vector<std::string> preset_names() {
  std::vector<std::string> out;
  for (const FigureSpec& fig : figures()) out.emplace_back(fig.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Figures, PresetTest,
                         testing::ValuesIn(preset_names()),
                         [](const auto& info) { return info.param; });

TEST(Figures, UnknownPresetIsRejectedWithAHint) {
  EXPECT_EQ(std::string(find_figure("fig6_granularity").name),
            "fig6_granularity");
  try {
    (void)figure_matrix("fig6_granularty", kScale);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean fig6_granularity"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)find_figure(""), std::invalid_argument);
}

}  // namespace
}  // namespace cachesched
