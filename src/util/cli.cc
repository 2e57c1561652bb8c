#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <system_error>

namespace cachesched {
namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void bad_value(const std::string& key, const std::string& s,
                            const std::string& expected) {
  throw CliValueError("--" + key + ": expected " + expected + ", got '" + s +
                      "'");
}

/// Parses all of `s` as a T; anything left over, or no number at all, is
/// a CliValueError naming the flag.
template <typename T>
T parse_number(const std::string& key, const std::string& s,
               const char* expected) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) bad_value(key, s, expected);
  return v;
}

int64_t parse_int(const std::string& key, const std::string& s) {
  return parse_number<int64_t>(key, s, "an integer");
}

double parse_double(const std::string& key, const std::string& s) {
  return parse_number<double>(key, s, "a number");
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw CliUsageError("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  used_[key] = true;
  return kv_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key, const std::string& def) const {
  used_[key] = true;
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int64_t CliArgs::get_int(const std::string& key, int64_t def) const {
  auto s = get(key, "");
  return s.empty() ? def : parse_int(key, s);
}

uint64_t CliArgs::get_uint(const std::string& key, uint64_t def,
                           uint64_t max) const {
  auto s = get(key, "");
  if (s.empty()) return def;
  const int64_t v = parse_int(key, s);
  if (v < 0) bad_value(key, s, "a non-negative integer");
  if (static_cast<uint64_t>(v) > max) {
    bad_value(key, s, "an integer no larger than " + std::to_string(max));
  }
  return static_cast<uint64_t>(v);
}

double CliArgs::get_double(const std::string& key, double def) const {
  auto s = get(key, "");
  return s.empty() ? def : parse_double(key, s);
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  auto s = get(key, "");
  if (s.empty()) return def;
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

std::vector<int64_t> CliArgs::get_int_list(const std::string& key,
                                           std::vector<int64_t> def) const {
  auto s = get(key, "");
  if (s.empty()) return def;
  std::vector<int64_t> out;
  for (const auto& item : split_commas(s)) {
    out.push_back(parse_int(key, item));
  }
  return out;
}

std::vector<double> CliArgs::get_double_list(const std::string& key,
                                             std::vector<double> def) const {
  auto s = get(key, "");
  if (s.empty()) return def;
  std::vector<double> out;
  for (const auto& item : split_commas(s)) {
    out.push_back(parse_double(key, item));
  }
  return out;
}

std::vector<std::string> CliArgs::get_list(const std::string& key,
                                           const std::string& def) const {
  return split_commas(get(key, def));
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

std::vector<std::string> CliArgs::queried() const {
  std::vector<std::string> out;
  out.reserve(used_.size());
  for (const auto& [k, v] : used_) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

namespace {

size_t levenshtein(const std::string& a, const std::string& b) {
  // One-row DP; distances stay tiny (flag names), so no cutoffs needed.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];  // D[i-1][j]
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string nearest_flag(const std::string& unknown,
                         const std::vector<std::string>& candidates) {
  const size_t max_dist = unknown.size() >= 6 ? 3 : 2;
  std::string best;
  size_t best_dist = max_dist + 1;
  for (const std::string& c : candidates) {
    if (c == unknown) continue;
    const size_t d = levenshtein(unknown, c);
    // Strict < keeps ties at the first (alphabetical) candidate, so the
    // suggestion is deterministic.
    if (d < best_dist && d < unknown.size()) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

int CliArgs::check_unused() const {
  const std::vector<std::string> bad = unused();
  const std::vector<std::string> known = queried();
  for (const auto& k : bad) {
    const std::string suggestion = nearest_flag(k, known);
    if (suggestion.empty()) {
      std::fprintf(stderr, "%s: unknown argument --%s\n",
                   program_.empty() ? "cachesched" : program_.c_str(),
                   k.c_str());
    } else {
      std::fprintf(stderr, "%s: unknown argument --%s (did you mean --%s?)\n",
                   program_.empty() ? "cachesched" : program_.c_str(),
                   k.c_str(), suggestion.c_str());
    }
  }
  return bad.empty() ? 0 : 2;
}

}  // namespace cachesched
