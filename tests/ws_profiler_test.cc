// Property tests for the one-pass LruTree profiler (paper §6.1): its
// group-hit counts must equal a direct cold-cache fully-associative LRU
// replay of the group — for every group and every candidate size.
#include <gtest/gtest.h>

#include "profile/setassoc_profiler.h"
#include "profile/ws_profiler.h"
#include "util/rng.h"
#include "workloads/mergesort.h"
#include "workloads/quicksort.h"

namespace cachesched {
namespace {

// Builds a random DAG with grouped strided/random accesses.
TaskDag random_dag(uint64_t seed, int tasks) {
  Xoshiro256 rng(seed);
  DagBuilder b;
  b.begin_group("root", 0, tasks);
  for (int i = 0; i < tasks; ++i) {
    const bool open_group = i % 5 == 1;
    if (open_group) b.begin_group("g", 1, i);
    std::vector<RefBlock> blocks;
    const int nb = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < nb; ++k) {
      if (rng.next_below(2)) {
        blocks.push_back(RefBlock::stride_ref(rng.next_below(64) * 128,
                                              8 + rng.next_below(32), 128,
                                              rng.next_below(2), 1));
      } else {
        blocks.push_back(RefBlock::random_ref(0, 256 * 128,
                                              8 + rng.next_below(32),
                                              rng.next(), false, 1));
      }
    }
    std::vector<TaskId> deps;
    if (i > 0) deps.push_back(static_cast<TaskId>(rng.next_below(i)));
    b.add_task(std::span<const TaskId>(deps.data(), deps.size()),
               std::span<const RefBlock>(blocks.data(), blocks.size()));
    if (open_group) b.end_group();
  }
  b.end_group();
  return b.finish();
}

void check_profiler_against_replay(const TaskDag& dag,
                                   const std::vector<uint64_t>& sizes) {
  WorkingSetProfiler prof(sizes, 128);
  prof.run(dag);
  SetAssocProfiler replay(128);
  for (GroupId g = 0; g < dag.num_groups(); ++g) {
    const TaskGroup& grp = dag.group(g);
    for (size_t s = 0; s < sizes.size(); ++s) {
      const auto direct =
          replay.profile_group(dag, grp.first_task, grp.last_task, sizes[s]);
      ASSERT_EQ(prof.group_refs(grp.first_task, grp.last_task), direct.refs)
          << "group " << g;
      ASSERT_EQ(prof.group_hits(grp.first_task, grp.last_task, s), direct.hits)
          << "group " << g << " size " << sizes[s];
    }
  }
}

TEST(WsProfiler, MatchesDirectReplayOnRandomDags) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    check_profiler_against_replay(random_dag(seed, 60),
                                  {4 * 128, 16 * 128, 64 * 128, 512 * 128});
  }
}

TEST(WsProfiler, MatchesDirectReplayOnMergesort) {
  MergesortParams p;
  p.num_elems = 1 << 12;
  p.l2_bytes = 32 * 1024;
  p.task_ws_bytes = 2 * 1024;
  const Workload w = build_mergesort(p);
  check_profiler_against_replay(w.dag,
                                {2 * 1024, 8 * 1024, 32 * 1024, 256 * 1024});
}

TEST(WsProfiler, MatchesDirectReplayOnQuicksort) {
  QuicksortParams p;
  p.num_elems = 1 << 12;
  p.leaf_elems = 256;
  const Workload w = build_quicksort(p);
  check_profiler_against_replay(w.dag, {1024, 16 * 1024, 128 * 1024});
}

TEST(WsProfiler, WorkingSetEqualsDistinctBytes) {
  // Two tasks touching 10 and 6 lines with a 4-line overlap: the group's
  // working set is 12 lines; each task's own is 10 and 6.
  DagBuilder b;
  b.begin_group("g", 1, 0);
  b.add_task({}, {RefBlock::stride_ref(0, 10, 128, false, 1)});
  b.add_task({0}, {RefBlock::stride_ref(6 * 128, 6, 128, false, 1)});
  b.end_group();
  const TaskDag dag = b.finish();
  WorkingSetProfiler prof({128 * 1024}, 128);
  prof.run(dag);
  EXPECT_EQ(prof.group_distinct_lines(0, 1), 12u);
  EXPECT_EQ(prof.group_distinct_lines(0, 0), 10u);
  EXPECT_EQ(prof.group_distinct_lines(1, 1), 6u);
  EXPECT_EQ(prof.working_set_bytes(dag, 0), 12u * 128);
}

TEST(WsProfiler, HitsMonotonicInCacheSize) {
  const TaskDag dag = random_dag(7, 50);
  const std::vector<uint64_t> sizes = {512, 2048, 8192, 1 << 20};
  WorkingSetProfiler prof(sizes, 128);
  prof.run(dag);
  const TaskId last = static_cast<TaskId>(dag.num_tasks() - 1);
  uint64_t prev = 0;
  for (size_t s = 0; s < sizes.size(); ++s) {
    const uint64_t h = prof.group_hits(0, last, s);
    EXPECT_GE(h, prev);
    prev = h;
  }
}

TEST(WsProfiler, HitsMonotonicInGroupExtension) {
  // Growing a group can only add hits per remaining task (delta slack).
  const TaskDag dag = random_dag(9, 40);
  WorkingSetProfiler prof({1 << 20}, 128);
  prof.run(dag);
  const TaskId last = static_cast<TaskId>(dag.num_tasks() - 1);
  // Whole-program hits >= any suffix group's hits.
  for (TaskId b = 1; b < 5; ++b) {
    EXPECT_GE(prof.group_hits(0, last, 0), prof.group_hits(b, last, 0));
  }
}

TEST(WsProfiler, SingleTaskGroupsSeeOnlySelfReuse) {
  DagBuilder b;
  // Task 0 and task 1 read the same lines; within a single-task group the
  // reuse is cold (prev visitor is outside the group).
  b.add_task({}, {RefBlock::stride_ref(0, 8, 128, false, 1)});
  b.add_task({0}, {RefBlock::stride_ref(0, 8, 128, false, 1)});
  const TaskDag dag = b.finish();
  WorkingSetProfiler prof({1 << 20}, 128);
  prof.run(dag);
  EXPECT_EQ(prof.group_hits(1, 1, 0), 0u);   // alone: all cold
  EXPECT_EQ(prof.group_hits(0, 1, 0), 8u);   // together: task 1 hits
}

TEST(WsProfiler, RunTwiceThrows) {
  const TaskDag dag = random_dag(1, 5);
  WorkingSetProfiler prof({1024}, 128);
  prof.run(dag);
  EXPECT_THROW(prof.run(dag), std::logic_error);
}

TEST(WsProfiler, RejectsBadSizes) {
  EXPECT_THROW(WorkingSetProfiler({}, 128), std::invalid_argument);
  EXPECT_THROW(WorkingSetProfiler({1024, 1024}, 128), std::invalid_argument);
  EXPECT_THROW(WorkingSetProfiler({2048, 1024}, 128), std::invalid_argument);
  EXPECT_THROW(WorkingSetProfiler({64}, 128), std::invalid_argument);
}

}  // namespace
}  // namespace cachesched
