// End-to-end integration tests: miniature versions of the paper's
// experiments asserting the qualitative relationships the full figures
// reproduce. The figure cases take their records from the same presets
// `cachesched_cli figure NAME` runs (src/exp/figures.h), at 1/32 scale.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "exp/figures.h"
#include "harness/apps.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

constexpr double kScale = 0.03125;  // 1/32 of paper sizes

/// The record of `app`/`sched`/`cores`/`tag` in preset `figure`, whose
/// matrix is swept once per test binary at kScale.
const SweepRecord& rec(const std::string& figure, const std::string& app,
                       const std::string& sched, int cores,
                       const std::string& tag = "") {
  static std::map<std::string, SweepResults> swept;
  auto it = swept.find(figure);
  if (it == swept.end()) {
    it = swept.emplace(figure, run_sweep(figure_matrix(figure, kScale))).first;
  }
  const SweepRecord* r = it->second.find(app, sched, cores, tag);
  if (!r) {
    throw std::out_of_range(figure + " has no record " + app + "/" + sched +
                            "/" + std::to_string(cores) + "/" + tag);
  }
  return *r;
}

const SimResult& fig2(const std::string& app, const std::string& sched,
                      int cores) {
  return rec("fig2_default_configs", app, sched, cores).result;
}

double ratio(uint64_t num, uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

TEST(Integration, Fig2MergesortPdfBeatsWsAt16Cores) {
  const SimResult& pdf = fig2("mergesort", "pdf", 16);
  const SimResult& ws = fig2("mergesort", "ws", 16);
  EXPECT_LT(pdf.l2_misses, ws.l2_misses);
  EXPECT_LT(pdf.cycles, ws.cycles);
  // Relative speedup in a plausible band (paper: 1.03-1.19 at 2-32 cores;
  // scaled runs land near or somewhat above the top).
  const double rel = ratio(ws.cycles, pdf.cycles);
  EXPECT_GT(rel, 1.0);
  EXPECT_LT(rel, 3.0);
}

TEST(Integration, Fig2HashJoinPdfReducesMisses) {
  const SimResult& pdf = fig2("hashjoin", "pdf", 16);
  const SimResult& ws = fig2("hashjoin", "ws", 16);
  const double red = 1.0 - ratio(pdf.l2_misses, ws.l2_misses);
  EXPECT_GT(red, 0.05);  // paper: 13.2-38.5%
  EXPECT_LT(pdf.cycles, ws.cycles);
}

TEST(Integration, Fig2LuSchedulersTie) {
  // Paper: "absolute speedups are practically the same" — within 15%.
  const double rel =
      ratio(fig2("lu", "ws", 8).cycles, fig2("lu", "pdf", 8).cycles);
  EXPECT_GT(rel, 0.85);
  EXPECT_LT(rel, 1.25);
}

TEST(Integration, SmallWorkingSetClassTies) {
  for (const char* app : {"matmul", "heat"}) {
    const double rel =
        ratio(rec("table_summary", app, "ws", 8).result.cycles,
              rec("table_summary", app, "pdf", 8).result.cycles);
    EXPECT_GT(rel, 0.8) << app;
    EXPECT_LT(rel, 1.3) << app;
  }
}

TEST(Integration, HashJoinBandwidthBoundAtManyCores) {
  // Paper §5.1: 89.5-97.3% utilization at 16-32 cores.
  EXPECT_GT(fig2("hashjoin", "ws", 16).mem_bandwidth_utilization(), 0.8);
  EXPECT_GT(fig2("hashjoin", "pdf", 16).mem_bandwidth_utilization(), 0.8);
}

TEST(Integration, MergesortNotBandwidthBoundUnder16Cores) {
  EXPECT_LT(fig2("mergesort", "pdf", 8).mem_bandwidth_utilization(), 0.75);
}

TEST(Integration, Fig6FinerTasksImprovePdfNotWs) {
  auto mpki = [](uint64_t task_ws, const char* sched) {
    return rec("fig6_granularity", "mergesort", sched, 16,
               "task_ws=" + std::to_string(task_ws))
        .result.l2_misses_per_kilo_instr();
  };
  const uint64_t coarse = 256 * 1024, fine = 8 * 1024;
  const double pdf_gain = mpki(coarse, "pdf") / mpki(fine, "pdf");
  const double ws_gain = mpki(coarse, "ws") / mpki(fine, "ws");
  EXPECT_GT(pdf_gain, 1.3);        // PDF improves markedly with finer tasks
  EXPECT_LT(ws_gain, pdf_gain);    // WS is comparatively flat
}

TEST(Integration, Fig4PdfOnSlowL2BeatsWsOnFastL2) {
  const char* fig = "fig4_l2_hit_time";
  EXPECT_LT(rec(fig, "hashjoin", "pdf", 16, "hit19").result.cycles,
            rec(fig, "hashjoin", "ws", 16, "hit7").result.cycles);
}

TEST(Integration, Fig5PdfAdvantagePersistsAcrossLatency) {
  for (const std::string tag : {"lat100", "lat700"}) {
    const char* fig = "fig5_mem_latency";
    EXPECT_LT(rec(fig, "hashjoin", "pdf", 16, tag).result.cycles,
              rec(fig, "hashjoin", "ws", 16, tag).result.cycles)
        << tag;
  }
}

TEST(Integration, CoarseGrainedOriginalsAreSlower) {
  // §5.4: the fine-grained rewrites are up to 2.85x faster than the
  // coarse originals (here: hash join with one task per sub-partition).
  const int cores = 16;
  const CmpConfig cfg = default_config(cores).scaled(kScale);
  AppOptions fine;
  fine.scale = kScale;
  AppOptions coarse = fine;
  coarse.fine_grained = false;
  const Workload wf = make_app("hashjoin", cfg, fine);
  const Workload wc = make_app("hashjoin", cfg, coarse);
  const uint64_t tf = simulate_app(wf, cfg, "pdf").cycles;
  const uint64_t tc = simulate_app(wc, cfg, "pdf").cycles;
  EXPECT_GT(static_cast<double>(tc) / static_cast<double>(tf), 1.2);
}

TEST(Integration, Fig8AutomaticSelectionNearBest) {
  const char* fig = "fig8_coarsening";
  const SweepRecord& actual = rec(fig, "mergesort", "pdf", 16, "actual");
  // The profiler picked a threshold: the regenerated program's task size
  // is not the finest grain it profiled (the "dag" scheme's options).
  EXPECT_NE(actual.job.opt.mergesort_task_ws,
            rec(fig, "mergesort", "pdf", 16, "dag").job.opt.mergesort_task_ws);
  // Manual selection of §5. Paper: within 5% of best; allow 15% slack at
  // 1/32 scale.
  const SweepRecord& manual = rec(fig, "mergesort", "pdf", 16, "previous");
  EXPECT_LT(static_cast<double>(actual.result.cycles),
            1.15 * static_cast<double>(manual.result.cycles));
}

TEST(Integration, SequentialBaselineSchedulerIndependent) {
  // On one core, PDF (earliest sequential task) and WS (depth-first own
  // deque) both reduce to the sequential 1DF execution. FIFO does not —
  // a central queue on one core runs breadth-first — which is exactly why
  // the harness uses PDF for the sequential baseline.
  const CmpConfig cfg = default_config(8).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  const Workload w = make_app("mergesort", cfg, opt);
  CmpConfig one = cfg;
  one.cores = 1;
  const uint64_t a = simulate_app(w, one, "pdf").cycles;
  const uint64_t b = simulate_app(w, one, "ws").cycles;
  const uint64_t c = simulate_app(w, one, "fifo").cycles;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // breadth-first order loses sequential locality
}

TEST(Integration, SpeedupsAreMonotonicallyReasonable) {
  // Mergesort speedup grows with cores (paper Figure 2(e)).
  double prev = 0;
  for (int cores : {2, 8, 32}) {
    const SimResult& seq = fig2("mergesort", kSequentialSched, cores);
    const double sp = fig2("mergesort", "pdf", cores).speedup_over(seq);
    EXPECT_GT(sp, prev);
    EXPECT_LT(sp, cores + 0.5);
    prev = sp;
  }
}

}  // namespace
}  // namespace cachesched
