#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simarch/cache.h"
#include "util/rng.h"

namespace cachesched {
namespace {

TEST(Cache, RequiresPowerOfTwoSets) {
  EXPECT_THROW(SetAssocCache(3, 4), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(0, 4), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache(4, 3));  // ways may be arbitrary
}

TEST(Cache, MissThenHit) {
  SetAssocCache c(4, 2);
  EXPECT_EQ(c.probe(42), nullptr);
  c.install(42, false, nullptr);
  ASSERT_NE(c.probe(42), nullptr);
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1, 2);  // fully associative, 2 lines
  c.install(1, false, nullptr);
  c.install(2, false, nullptr);
  c.touch(c.probe(1));              // 1 is now MRU
  auto ev = c.install(3, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 2u);           // LRU evicted
  EXPECT_NE(c.probe(1), nullptr);
  EXPECT_EQ(c.probe(2), nullptr);
  EXPECT_NE(c.probe(3), nullptr);
}

TEST(Cache, SetIndexingConflicts) {
  SetAssocCache c(4, 1);  // direct-mapped, 4 sets
  c.install(0, false, nullptr);   // set 0
  c.install(4, false, nullptr);   // also set 0: evicts line 0
  EXPECT_EQ(c.probe(0), nullptr);
  EXPECT_NE(c.probe(4), nullptr);
  c.install(1, false, nullptr);   // set 1: does not disturb set 0
  EXPECT_NE(c.probe(4), nullptr);
}

TEST(Cache, EvictionReportsDirtyAndPresence) {
  SetAssocCache c(1, 1);
  SetAssocCache::Line* e;
  c.install(7, true, &e);
  e->presence = 0b101;
  auto ev = c.install(8, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 7u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.presence, 0b101u);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  SetAssocCache c(2, 2);
  c.install(10, true, nullptr);
  c.install(11, false, nullptr);
  EXPECT_TRUE(c.invalidate(10));
  EXPECT_FALSE(c.invalidate(11));
  EXPECT_FALSE(c.invalidate(12));  // absent
  EXPECT_EQ(c.probe(10), nullptr);
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, InstallPrefersInvalidWays) {
  SetAssocCache c(1, 3);
  c.install(1, false, nullptr);
  c.install(2, false, nullptr);
  c.invalidate(1);
  auto ev = c.install(3, false, nullptr);
  EXPECT_FALSE(ev.valid);  // reused the invalid slot, no eviction
  EXPECT_NE(c.probe(2), nullptr);
}

TEST(Cache, HighAssociativityScan) {
  // Paper configs use up to 28 ways; exercise a full wide set.
  SetAssocCache c(1, 28);
  for (uint64_t l = 0; l < 28; ++l) c.install(l, false, nullptr);
  EXPECT_EQ(c.valid_lines(), 28u);
  for (uint64_t l = 0; l < 28; ++l) {
    ASSERT_NE(c.probe(l), nullptr) << l;
    c.touch(c.probe(l));
  }
  auto ev = c.install(100, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 0u);  // the least recently touched
}

TEST(Cache, ClearResetsEverything) {
  SetAssocCache c(2, 2);
  c.install(1, true, nullptr);
  c.clear();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_EQ(c.probe(1), nullptr);
}

TEST(Cache, WideAssociativityFallback) {
  // > 255 ways switches to the timestamp-LRU path (fully-associative
  // profiler/test configurations); semantics must be unchanged.
  SetAssocCache c(1, 300);
  for (uint64_t l = 0; l < 300; ++l) c.install(l, false, nullptr);
  EXPECT_EQ(c.valid_lines(), 300u);
  c.touch(c.probe(0));  // 0 becomes MRU; 1 is now the LRU line
  auto ev = c.install(1000, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 1u);
  EXPECT_NE(c.probe(0), nullptr);
  EXPECT_EQ(c.probe(1), nullptr);
  EXPECT_FALSE(c.invalidate(2));  // was clean
  EXPECT_EQ(c.probe(2), nullptr);
  EXPECT_EQ(c.valid_lines(), 299u);
}

// Drives random accesses and invalidations through a `sets` x `ways`
// cache and a simple per-set reference list, comparing hits and the full
// MRU-first order of the touched set after every operation.
void lru_stress(uint64_t sets, int ways) {
  SCOPED_TRACE(::testing::Message() << sets << " sets x " << ways << " ways");
  SetAssocCache c(sets, ways);
  std::vector<std::vector<uint64_t>> ref(sets);  // MRU at front
  SplitMix64 rng(11);
  const uint64_t universe = 4 * sets * static_cast<uint64_t>(ways);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t line = rng.next() % universe;
    const uint64_t set = line % sets;
    auto& v = ref[set];
    const auto it = std::find(v.begin(), v.end(), line);
    const bool ref_hit = it != v.end();
    if (ref_hit) v.erase(it);
    if (rng.next() % 8 == 0) {  // invalidate instead of access
      c.invalidate(line);
    } else {
      v.insert(v.begin(), line);
      if (v.size() > static_cast<size_t>(ways)) v.pop_back();
      if (SetAssocCache::Line* e = c.probe(line)) {
        ASSERT_TRUE(ref_hit) << "iteration " << i;
        c.touch(e);
      } else {
        ASSERT_FALSE(ref_hit) << "iteration " << i;
        c.install(line, false, nullptr);
      }
    }
    std::vector<uint64_t> order;
    for (int w : c.lru_order(set)) order.push_back(c.line_at(set, w).tag);
    ASSERT_EQ(order, v) << "iteration " << i;
  }
}

TEST(Cache, LruStressAgainstReferenceModel) {
  // 4: every L1; 28: the widest paper L2; 255: the byte permutation's
  // top; 300: the timestamp fallback.
  for (int ways : {4, 28, 255, 300}) lru_stress(4, ways);
}

}  // namespace
}  // namespace cachesched
