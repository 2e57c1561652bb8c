#include <gtest/gtest.h>

#include "core/dag.h"
#include "sched/central_fifo_scheduler.h"
#include "sched/pdf_scheduler.h"
#include "sched/ws_scheduler.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

CmpConfig tiny_config(int cores) {
  CmpConfig c;
  c.name = "tiny";
  c.cores = cores;
  c.l1_bytes = 1024;  // 8 lines
  c.l1_ways = 2;
  c.l2_bytes = 8192;  // 64 lines
  c.l2_ways = 4;
  c.l2_hit_cycles = 10;
  c.line_bytes = 128;
  c.mem_latency_cycles = 300;
  c.mem_service_cycles = 30;
  c.task_dispatch_cycles = 0;
  return c;
}

SimResult run(const TaskDag& dag, const CmpConfig& cfg, Scheduler& s,
              uint64_t quantum = 1000) {
  CmpSimulator sim(cfg);
  sim.set_quantum_cycles(quantum);
  return sim.run(dag, s);
}

TEST(Engine, PureComputeTiming) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1000)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.cycles, 1000u);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_EQ(r.l2_misses, 0u);
  EXPECT_EQ(r.tasks_executed, 1u);
}

TEST(Engine, ColdMissCosts) {
  // One reference, cold: (instr_per_ref - 1) + mem latency.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 1, 128, false, 5)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.cycles, 4u + 300u);
  EXPECT_EQ(r.instructions, 5u);
}

TEST(Engine, L1HitCosts) {
  // Second access to the same line hits in L1: instr_per_ref cycles.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 1, 128, false, 5),
                  RefBlock::stride_ref(0, 1, 128, false, 5)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.l1_hits, 1u);
  EXPECT_EQ(r.cycles, (4u + 300u) + 5u);
}

TEST(Engine, L2HitAfterL1Eviction) {
  // Touch 9 distinct lines mapping over an 8-line L1 then re-touch the
  // first: it must hit in L2, not memory.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 9, 128, false, 1),
                  RefBlock::stride_ref(0, 1, 128, false, 1)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 9u);
  EXPECT_EQ(r.l2_hits, 1u);
}

TEST(Engine, TaskDispatchOverheadCharged) {
  CmpConfig cfg = tiny_config(1);
  cfg.task_dispatch_cycles = 100;
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(10)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, cfg, s);
  EXPECT_EQ(r.cycles, 110u);
}

TEST(Engine, IndependentTasksRunInParallel) {
  DagBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task({}, {RefBlock::compute(1000)});
  auto dag = b.finish();
  PdfScheduler s;
  EXPECT_EQ(run(dag, tiny_config(1), s).cycles, 4000u);
  PdfScheduler s4;
  EXPECT_EQ(run(dag, tiny_config(4), s4).cycles, 1000u);
}

TEST(Engine, DependenceChainSerializes) {
  DagBuilder b;
  TaskId prev = b.add_task({}, {RefBlock::compute(100)});
  for (int i = 1; i < 5; ++i) {
    prev = b.add_task({prev}, {RefBlock::compute(100)});
  }
  auto dag = b.finish();
  PdfScheduler s;
  EXPECT_EQ(run(dag, tiny_config(4), s).cycles, 500u);
}

TEST(Engine, ZeroWorkSyncNodes) {
  DagBuilder b;
  const TaskId f = b.add_task({}, {});
  const TaskId a = b.add_task({f}, {RefBlock::compute(10)});
  const TaskId c = b.add_task({f}, {RefBlock::compute(10)});
  b.add_task({a, c}, {});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.tasks_executed, 4u);
  EXPECT_EQ(r.cycles, 10u);
}

TEST(Engine, MemoryChannelSaturationSlowsParallelMisses) {
  // 4 cores streaming disjoint lines: misses serialize at the service
  // rate, so 4-core time exceeds 1/4 of the 1-core time.
  DagBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.add_task({}, {RefBlock::stride_ref(1u << 20 | (uint64_t)i << 16, 64,
                                         128, false, 1)});
  }
  auto dag = b.finish();
  PdfScheduler s1;
  const SimResult r1 = run(dag, tiny_config(1), s1);
  PdfScheduler s4;
  const SimResult r4 = run(dag, tiny_config(4), s4);
  EXPECT_GT(r4.cycles * 4, r1.cycles);
  EXPECT_GT(r4.mem_queue_cycles, 0u);
}

TEST(Engine, SharedLinesHitInL2AcrossCores) {
  // Task 0 streams 32 lines; tasks 1 and 2 (parallel, other cores) re-read
  // them: under a shared L2 most of those are L2 hits, not misses.
  DagBuilder b;
  const TaskId t0 =
      b.add_task({}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  b.add_task({t0}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  b.add_task({t0}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.l2_misses, 32u);
  EXPECT_GE(r.l2_hits, 48u);  // both readers, minus what stayed in L1
}

TEST(Engine, WriteInvalidatesOtherL1Copies) {
  // Core A reads a line (cached in its L1); core B then writes it; A's
  // next read must miss L1 (go to L2), seen as invalidations > 0.
  DagBuilder b;
  const TaskId a =
      b.add_task({}, {RefBlock::stride_ref(0, 8, 128, false, 200)});
  b.add_task({}, {RefBlock::compute(100),
                  RefBlock::stride_ref(0, 8, 128, true, 1)});
  b.add_task({a}, {RefBlock::stride_ref(0, 8, 128, false, 1)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(2), s, /*quantum=*/0);
  EXPECT_GT(r.invalidations, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(10)});
  for (int i = 0; i < 20; ++i) {
    b.add_task({root}, {RefBlock::random_ref(0, 1 << 16, 50, i, i % 2, 3)});
  }
  auto dag = b.finish();
  WsScheduler s1, s2;
  const SimResult a = run(dag, tiny_config(4), s1);
  const SimResult c = run(dag, tiny_config(4), s2);
  EXPECT_EQ(a.cycles, c.cycles);
  EXPECT_EQ(a.l2_misses, c.l2_misses);
  EXPECT_EQ(a.l1_hits, c.l1_hits);
  EXPECT_EQ(a.steals, c.steals);
}

TEST(Engine, QuantumZeroMatchesDefaultOnDisjointWrites) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(1)});
  for (int i = 0; i < 8; ++i) {
    b.add_task({root}, {RefBlock::stride_ref(uint64_t(i) << 14, 32, 128,
                                             true, 2)});
  }
  auto dag = b.finish();
  PdfScheduler s1, s2;
  const SimResult exact = run(dag, tiny_config(4), s1, 0);
  const SimResult fast = run(dag, tiny_config(4), s2, 1000);
  EXPECT_EQ(exact.cycles, fast.cycles);
  EXPECT_EQ(exact.l2_misses, fast.l2_misses);
}

TEST(Engine, GreedyNoIdleCoreWhileWorkPending) {
  // 8 equal independent tasks on 4 cores must take exactly 2 rounds.
  DagBuilder b;
  for (int i = 0; i < 8; ++i) b.add_task({}, {RefBlock::compute(500)});
  auto dag = b.finish();
  for (auto make : {+[]() -> Scheduler* { return new PdfScheduler; },
                    +[]() -> Scheduler* { return new WsScheduler; },
                    +[]() -> Scheduler* { return new CentralFifoScheduler; }}) {
    std::unique_ptr<Scheduler> s(make());
    const SimResult r = run(dag, tiny_config(4), *s);
    EXPECT_EQ(r.cycles, 1000u) << s->name();
  }
}

TEST(Engine, CoreUtilizationAndBusyAccounting) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1000)});
  b.add_task({}, {RefBlock::compute(500)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.cycles, 1000u);
  ASSERT_EQ(r.core_busy_cycles.size(), 2u);
  EXPECT_EQ(r.core_busy_cycles[0] + r.core_busy_cycles[1], 1500u);
  EXPECT_NEAR(r.core_utilization(), 0.75, 1e-9);
}

TEST(Engine, WritebackTrafficCounted) {
  // Write 128 distinct lines (L2 = 64 lines): dirty evictions must produce
  // writebacks.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 128, 128, true, 1)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_GT(r.writebacks, 0u);
  EXPECT_EQ(r.l2_misses, 128u);
}

TEST(Engine, StatsDerivedMetrics) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 10, 128, false, 100)});
  auto dag = b.finish();
  PdfScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.total_refs(), 10u);
  EXPECT_NEAR(r.l2_misses_per_kilo_instr(), 10.0, 1e-9);
  EXPECT_GT(r.mem_bandwidth_utilization(), 0.0);
  EXPECT_LT(r.mem_bandwidth_utilization(), 1.0);
}

TEST(Engine, RejectsTooManyCores) {
  CmpConfig c = tiny_config(1);
  c.cores = 64;
  EXPECT_THROW(CmpSimulator{c}, std::invalid_argument);
}

}  // namespace
}  // namespace cachesched
