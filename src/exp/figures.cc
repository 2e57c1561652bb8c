#include "exp/figures.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "coarsen/coarsen.h"
#include "harness/apps.h"
#include "profile/ws_profiler.h"
#include "sched/registry.h"
#include "util/cli.h"

namespace cachesched {
namespace {

using Row = std::vector<std::string>;

Row operator+(Row a, const Row& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Table cells shared by the projections.
double ratio(uint64_t num, uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}
std::string mpki(const SimResult& r) {
  return Table::num(r.l2_misses_per_kilo_instr(), 3);
}
std::string bw(const SimResult& r) {
  return Table::num(100.0 * r.mem_bandwidth_utilization(), 1);
}
/// WS cycles over PDF cycles: PDF's speedup.
std::string speedup(const SimResult& pdf, const SimResult& ws) {
  return Table::num(ratio(ws.cycles, pdf.cycles), 3);
}
/// The pdf_cycles, ws_cycles, pdf_vs_ws columns most tables share.
Row versus(const SimResult& pdf, const SimResult& ws) {
  return {Table::num(pdf.cycles), Table::num(ws.cycles), speedup(pdf, ws)};
}

AppOptions at_scale(double scale, uint64_t task_ws = 0) {
  AppOptions opt;
  opt.scale = scale;
  opt.mergesort_task_ws = task_ws;
  return opt;
}

SweepJob job(const std::string& app, const std::string& sched,
             const std::string& tag, const CmpConfig& cfg,
             const AppOptions& opt = {}) {
  SweepJob j;
  j.app = app;
  j.sched = sched;
  j.tag = tag;
  j.config = cfg;
  j.opt = opt;
  return j;
}

/// Appends a pdf and a ws job of one point.
void add_pair(std::vector<SweepJob>& jobs, const std::string& app,
              const std::string& tag, const CmpConfig& cfg,
              const AppOptions& opt) {
  for (const char* sched : {"pdf", "ws"}) {
    jobs.push_back(job(app, sched, tag, cfg, opt));
  }
}

/// The record a projection needs; a missing one is a preset bug.
const SweepRecord& record(const SweepResults& res, const std::string& app,
                          const std::string& sched, int cores,
                          const std::string& tag = "") {
  const SweepRecord* r = res.find(app, sched, cores, tag);
  if (!r) {
    throw std::logic_error("figure: no record for " + app + "/" + sched +
                           "/cores=" + std::to_string(cores) + "/" + tag);
  }
  return *r;
}

const SimResult& result(const SweepResults& res, const std::string& app,
                        const std::string& sched, int cores,
                        const std::string& tag = "") {
  return record(res, app, sched, cores, tag).result;
}

/// PDF vs WS over `apps` x `cores` of the `tech` table (no cores = the
/// whole table). The paper reports LU only up to 16 cores: its input is
/// smaller than the 32-core L2.
std::vector<SweepJob> pdf_ws_matrix(std::vector<std::string> apps,
                                    std::vector<int> cores, double scale,
                                    const std::string& tech = "default",
                                    bool sequential_baseline = false) {
  SweepSpec spec;
  spec.apps = std::move(apps);
  spec.core_counts = std::move(cores);
  spec.scales = {scale};
  spec.tech = tech;
  spec.sequential_baseline = sequential_baseline;
  spec.skip = [](const std::string& app, const CmpConfig& cfg) {
    return app == "lu" && cfg.cores > 16;
  };
  return expand(spec);
}

// Figure 2 (§5.1): PDF vs WS on the Table 2 CMPs, speedup over
// sequential and L2 misses per 1000 instructions.

const std::vector<std::string> kFig2Apps = {"lu", "hashjoin", "mergesort"};
const std::vector<int> kFig2Cores = {1, 2, 4, 8, 16, 32};

std::vector<SweepJob> fig2_matrix(double scale) {
  return pdf_ws_matrix(kFig2Apps, kFig2Cores, scale, "default", true);
}

std::vector<FigureTable> fig2_project(const SweepResults& res, double) {
  std::vector<FigureTable> out;
  for (const std::string& app : kFig2Apps) {
    Table t({"cores", "sched", "cycles", "speedup", "L2miss/1Kinstr",
             "pdf_miss_reduction%", "pdf_vs_ws_speedup", "bw_util%",
             "steals"});
    std::string params;
    for (const int c : kFig2Cores) {
      const SweepRecord* seq = res.find(app, kSequentialSched, c);
      const SweepRecord* pdf = res.find(app, "pdf", c);
      const SweepRecord* ws = res.find(app, "ws", c);
      if (!seq || !pdf || !ws) continue;  // skipped combination (LU > 16)
      params = pdf->params;
      const double ws_mpki = ws->result.l2_misses_per_kilo_instr();
      const double pdf_mpki = pdf->result.l2_misses_per_kilo_instr();
      const double red =
          ws_mpki > 0 ? 100.0 * (ws_mpki - pdf_mpki) / ws_mpki : 0.0;
      const double rel =
          pdf->result.cycles ? ratio(ws->result.cycles, pdf->result.cycles)
                             : 0.0;
      for (const SweepRecord* rec : {pdf, ws}) {
        const SimResult& r = rec->result;
        const bool is_pdf = rec == pdf;
        t.add_row({std::to_string(c), r.scheduler, Table::num(r.cycles),
                   Table::num(r.speedup_over(seq->result), 2), mpki(r),
                   is_pdf ? Table::num(red, 1) : "-",
                   is_pdf ? Table::num(rel, 2) : "-", bw(r),
                   Table::num(r.steals)});
      }
    }
    out.push_back({app, "Figure 2: " + app + " (" + params + ")",
                   std::move(t), ""});
  }
  return out;
}

// Figure 3 (§5.2): the Table 3 45 nm design points, 1 core / 48 MB L2 to
// 26 cores / 1 MB. Hash Join bottoms out near 18 cores (bandwidth-bound),
// Mergesort keeps improving; PDF wins at every point.

const std::vector<std::string> kSensitivityApps = {"hashjoin", "mergesort"};

std::vector<SweepJob> fig3_matrix(double scale) {
  return pdf_ws_matrix(kSensitivityApps, {}, scale, "45nm");
}

std::vector<FigureTable> fig3_project(const SweepResults& res, double) {
  std::vector<FigureTable> out;
  for (const std::string& app : kSensitivityApps) {
    Table t({"cores", "L2_KB", "pdf_cycles", "ws_cycles", "pdf_vs_ws",
             "pdf_bw%", "ws_bw%"});
    std::string params;
    uint64_t best_pdf = UINT64_MAX, best_ws = UINT64_MAX;
    int best_pdf_cores = 0, best_ws_cores = 0;
    for (const CmpConfig& base : single_tech_45nm_configs()) {
      const SweepRecord& pdf = record(res, app, "pdf", base.cores);
      const SimResult& ws = result(res, app, "ws", base.cores);
      params = pdf.params;
      if (pdf.result.cycles < best_pdf) {
        best_pdf = pdf.result.cycles;
        best_pdf_cores = base.cores;
      }
      if (ws.cycles < best_ws) {
        best_ws = ws.cycles;
        best_ws_cores = base.cores;
      }
      t.add_row(Row{std::to_string(base.cores),
                    Table::num(pdf.job.config.l2_bytes / 1024)} +
                versus(pdf.result, ws) + Row{bw(pdf.result), bw(ws)});
    }
    std::ostringstream best;
    best << "best pdf: " << best_pdf_cores << " cores (" << best_pdf
         << " cycles); best ws: " << best_ws_cores << " cores (" << best_ws
         << " cycles)\n";
    out.push_back({app,
                   "Figure 3: " + app + " on 45nm design points (" + params +
                       ")",
                   std::move(t), best.str()});
  }
  return out;
}

// Figures 4 and 5 (§5.3) vary one timing field on the 16-core default
// CMP, so the sweep builds each app once for all points. Fig 4: PDF on
// the slow 19-cycle monolithic L2 still beats WS on a fast 7-cycle one
// (L2 misses dominate). Fig 5: PDF's edge persists from 100 to 1100
// memory cycles (paper: 1.21-1.62x Hash Join, 1.03-1.29x Mergesort).

constexpr int kSensitivityCores = 16;
const std::vector<int> kFig4HitCycles = {7, 19};
const std::vector<int> kFig5Latencies = {100, 300, 500, 700, 900, 1100};

/// A pdf/ws pair per value of the timing field `field`, tagged
/// `prefix` + value, for each sensitivity app.
std::vector<SweepJob> timing_axis(double scale, const std::vector<int>& values,
                                  const std::string& prefix,
                                  int CmpConfig::*field) {
  std::vector<SweepJob> jobs;
  for (const std::string& app : kSensitivityApps) {
    for (const int v : values) {
      CmpConfig cfg = default_config(kSensitivityCores).scaled(scale);
      cfg.*field = v;
      cfg.name += "-" + prefix + std::to_string(v);
      add_pair(jobs, app, prefix + std::to_string(v), cfg, at_scale(scale));
    }
  }
  return jobs;
}

std::vector<SweepJob> fig4_matrix(double scale) {
  std::vector<SweepJob> jobs =
      timing_axis(scale, kFig4HitCycles, "hit", &CmpConfig::l2_hit_cycles);
  // The headline with an explicit distributed-L2 model: WS on a banked
  // S-NUCA-style L2 (7-cycle local bank + 1 cycle/hop).
  const CmpConfig base = default_config(kSensitivityCores).scaled(scale);
  CmpConfig banked = base;
  banked.l2_banks = kSensitivityCores;
  banked.name += "-banked";
  CmpConfig mono = base;
  mono.l2_hit_cycles = 19;
  for (const std::string& app : kSensitivityApps) {
    jobs.push_back(job(app, "ws", "banked", banked, at_scale(scale)));
    jobs.push_back(job(app, "pdf", "monolithic", mono, at_scale(scale)));
  }
  return jobs;
}

/// The PDF-vs-WS table of `app` on `cores` over a timing axis: one row
/// per value (tagged `prefix` + value), plus bandwidth columns if
/// `with_bw`.
Table axis_table(const SweepResults& res, const std::string& app, int cores,
                 const std::string& header, const std::string& prefix,
                 const std::vector<int>& values, bool with_bw = false) {
  Table t(Row{header, "pdf_cycles", "ws_cycles", "pdf_vs_ws"} +
          (with_bw ? Row{"pdf_bw%", "ws_bw%"} : Row{}));
  for (const int v : values) {
    const std::string tag = prefix + std::to_string(v);
    const SimResult& pdf = result(res, app, "pdf", cores, tag);
    const SimResult& ws = result(res, app, "ws", cores, tag);
    t.add_row(Row{std::to_string(v)} + versus(pdf, ws) +
              (with_bw ? Row{bw(pdf), bw(ws)} : Row{}));
  }
  return t;
}

std::string pdf_wins(uint64_t pdf, uint64_t ws) {
  return Table::num(ratio(ws, pdf), 3) + "x " +
         (pdf <= ws ? "(PDF still wins)" : "(WS wins)") + "\n";
}

std::vector<FigureTable> fig4_project(const SweepResults& res, double) {
  constexpr int P = kSensitivityCores;
  std::vector<FigureTable> out;
  for (const std::string& app : kSensitivityApps) {
    uint64_t pdf_slowest = 0, ws_fastest = UINT64_MAX;
    for (const int h : kFig4HitCycles) {
      const std::string tag = "hit" + std::to_string(h);
      pdf_slowest =
          std::max(pdf_slowest, result(res, app, "pdf", P, tag).cycles);
      ws_fastest = std::min(ws_fastest, result(res, app, "ws", P, tag).cycles);
    }
    out.push_back(
        {app, "Figure 4: " + app + ", 16-core default, varying L2 hit time",
         axis_table(res, app, P, "l2_hit_cycles", "hit", kFig4HitCycles),
         "PDF on slowest L2 vs WS on fastest L2: " +
             pdf_wins(pdf_slowest, ws_fastest) +
             "PDF on monolithic 19-cycle L2 vs WS on banked distributed L2: " +
             pdf_wins(result(res, app, "pdf", P, "monolithic").cycles,
                      result(res, app, "ws", P, "banked").cycles)});
  }
  return out;
}

std::vector<SweepJob> fig5_matrix(double scale) {
  return timing_axis(scale, kFig5Latencies, "lat",
                     &CmpConfig::mem_latency_cycles);
}

std::vector<FigureTable> fig5_project(const SweepResults& res, double) {
  std::vector<FigureTable> out;
  for (const std::string& app : kSensitivityApps) {
    out.push_back(
        {app, "Figure 5: " + app + ", 16-core default, varying memory latency",
         axis_table(res, app, kSensitivityCores, "mem_latency", "lat",
                    kFig5Latencies, true),
         ""});
  }
  return out;
}

// Figure 6 (§5.4): Mergesort task granularity on 32 and 16 cores. WS's
// misses stay flat across task sizes; PDF's fall as tasks get finer.

const std::vector<int> kFig6Cores = {32, 16};

/// Paper x-axis: 8 MB down to 32 KB per-task working sets, scaled and
/// floored at 2 KB (so small scales repeat 2 KB).
std::vector<uint64_t> fig6_task_sizes(double scale) {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 8ull << 20; s >= 32ull << 10; s /= 2) {
    sizes.push_back(std::max<uint64_t>(static_cast<uint64_t>(s * scale), 2048));
  }
  return sizes;
}

std::vector<SweepJob> fig6_matrix(double scale) {
  std::vector<uint64_t> sizes = fig6_task_sizes(scale);
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  std::vector<SweepJob> jobs;
  for (const int cores : kFig6Cores) {
    for (const uint64_t bytes : sizes) {
      add_pair(jobs, "mergesort", "task_ws=" + std::to_string(bytes),
               default_config(cores).scaled(scale), at_scale(scale, bytes));
    }
  }
  return jobs;
}

std::vector<FigureTable> fig6_project(const SweepResults& res, double scale) {
  std::vector<FigureTable> out;
  for (const int P : kFig6Cores) {
    Table t({"task_ws_KB", "pdf_mpki", "ws_mpki", "pdf_cycles", "ws_cycles",
             "pdf_vs_ws"});
    uint64_t best_pdf = UINT64_MAX, best_ws = UINT64_MAX;
    for (const uint64_t bytes : fig6_task_sizes(scale)) {
      const std::string tag = "task_ws=" + std::to_string(bytes);
      const SimResult& pdf = result(res, "mergesort", "pdf", P, tag);
      const SimResult& ws = result(res, "mergesort", "ws", P, tag);
      best_pdf = std::min(best_pdf, pdf.cycles);
      best_ws = std::min(best_ws, ws.cycles);
      t.add_row(Row{Table::num(bytes / 1024), mpki(pdf), mpki(ws)} +
                versus(pdf, ws));
    }
    const std::string p = std::to_string(P);
    out.push_back(
        {p + "c",
         "Figure 6: Mergesort task granularity sweep, " + p +
             "-core default config",
         std::move(t),
         "best-vs-best (each scheduler at its optimal task size): " +
             Table::num(ratio(best_ws, best_pdf), 3) + "x PDF advantage\n"});
  }
  return out;
}

// Figure 8 (§6.2): automatic task-grain selection for Mergesort under
// PDF. "previous" is §5's manual task ws = L2 / (2 * cores); "dag"
// profiles a finest-grain run, applies the stop criterion and simulates
// the coarsened DAG; "actual" regenerates the program from the selected
// Figure-7(b) thresholds (paper: within 5% of the best). The profiling
// runs serially while the matrix is built.

const std::vector<int> kFig8Cores = {32, 16, 8};
// Each scheme's job tag and table label.
const char* const kFig8Schemes[] = {"previous", "dag", "actual"};
const char* const kFig8Labels[] = {"previous", "cache/(2*cores) dag",
                                   "cache/(2*cores) actual"};

std::vector<SweepJob> fig8_matrix(double scale) {
  std::vector<SweepJob> jobs;
  for (const int cores : kFig8Cores) {
    const CmpConfig cfg = default_config(cores).scaled(scale);
    jobs.push_back(job("mergesort", "pdf", "previous", cfg, at_scale(scale)));

    const AppOptions fine = at_scale(
        scale,
        std::max<uint64_t>(static_cast<uint64_t>(32.0 * 1024 * scale), 2048));
    const Workload w_fine = make_app("mergesort", cfg, fine);
    WorkingSetProfiler prof({cfg.l2_bytes}, cfg.line_bytes);
    prof.run(w_fine.dag);
    CoarsenParams cp;
    cp.cache_bytes = cfg.l2_bytes;
    cp.num_cores = cfg.cores;
    const CoarsenResult sel = select_task_granularity(w_fine.dag, prof, cp);
    Workload w_dag;
    w_dag.name = "mergesort-coarsened";
    w_dag.dag = coarsen_dag(w_fine.dag, sel.stopping_groups);
    jobs.push_back(job("mergesort", "pdf", "dag", cfg, fine));
    jobs.back().factory = [w_dag](const CmpConfig&, const AppOptions&) {
      return w_dag;
    };

    // The sort site's threshold T is in elements; its task working set
    // is 2 * T * elem_bytes (§5.4). The projection reads it back from
    // this job's options.
    const int64_t thr = sel.table.threshold(
        cfg.l2_bytes, cfg.cores, "workloads/mergesort.cc", /*kSortSite=*/1);
    const uint64_t task_ws =
        thr > 0 ? static_cast<uint64_t>(thr) * 2 * 4 : fine.mergesort_task_ws;
    jobs.push_back(
        job("mergesort", "pdf", "actual", cfg, at_scale(scale, task_ws)));
  }
  return jobs;
}

std::vector<FigureTable> fig8_project(const SweepResults& res, double) {
  Table t({"cores", "scheme", "cycles", "normalized_to_best", "threshold_KB"});
  for (const int P : kFig8Cores) {
    uint64_t cycles[3] = {};
    uint64_t best = UINT64_MAX;
    for (int s = 0; s < 3; ++s) {
      cycles[s] = result(res, "mergesort", "pdf", P, kFig8Schemes[s]).cycles;
      best = std::min(best, cycles[s]);
    }
    const SweepRecord& actual = record(res, "mergesort", "pdf", P, "actual");
    for (int s = 0; s < 3; ++s) {
      t.add_row({std::to_string(P), kFig8Labels[s], Table::num(cycles[s]),
                 Table::num(ratio(cycles[s], best), 4),
                 Table::num(actual.job.opt.mergesort_task_ws / 1024)});
    }
  }
  return {{"coarsening",
           "Figure 8: automatic task-grain selection (Mergesort, PDF)", t,
           ""}};
}

// §5.1/§5.5 summary over every app: PDF wins on Hash Join and Mergesort
// (non-trivial working sets), ties in time but still cuts misses on LU
// and Matrix Multiply, and sits in between on Quicksort and Heat.

const std::vector<int> kSummaryCores = {8, 16, 32};

std::vector<SweepJob> summary_matrix(double scale) {
  return pdf_ws_matrix(known_apps(), kSummaryCores, scale);
}

std::vector<FigureTable> summary_project(const SweepResults& res, double) {
  Table t({"app", "cores", "pdf_mpki", "ws_mpki", "pdf_miss_reduction%",
           "pdf_vs_ws_speedup", "ws_bw%"});
  for (const std::string& app : known_apps()) {
    for (const int c : kSummaryCores) {
      const SweepRecord* pdf = res.find(app, "pdf", c);
      const SweepRecord* ws = res.find(app, "ws", c);
      if (!pdf || !ws) continue;  // skipped combination (LU > 16)
      const double ws_misses = static_cast<double>(ws->result.l2_misses);
      const double pdf_misses = static_cast<double>(pdf->result.l2_misses);
      const double red =
          ws_misses > 0 ? 100.0 * (ws_misses - pdf_misses) / ws_misses : 0.0;
      t.add_row({app, std::to_string(c), mpki(pdf->result), mpki(ws->result),
                 Table::num(red, 1), speedup(pdf->result, ws->result),
                 bw(ws->result)});
    }
  }
  return {{"summary", "Sections 5.1/5.5: benchmark summary (PDF vs WS)", t,
           ""}};
}

// Scheduler ablations on 16 cores. (1) Policy: a centralized greedy FIFO
// tracks neither sequential order nor locality; if PDF's win came from
// "any central queue", FIFO would match it. (2) Dispatch cost: the
// conclusion holds as a dispatch grows to 4000 cycles. (3) Simulator
// quantum: relaxed run-ahead vs exact causal interleaving (0).

constexpr int kAblationCores = 16;
const std::vector<std::string> kPolicyApps = {"mergesort", "hashjoin"};
const std::vector<std::string> kPolicyScheds = {"pdf", "ws", "fifo"};
const std::vector<int> kDispatchCycles = {0, 100, 400, 1000, 4000};
const std::vector<uint64_t> kQuanta = {0, 1000, 100000};

std::vector<SweepJob> ablation_matrix(double scale) {
  const CmpConfig cfg = default_config(kAblationCores).scaled(scale);
  const AppOptions opt = at_scale(scale);
  std::vector<SweepJob> jobs;
  for (const std::string& app : kPolicyApps) {
    for (const std::string& sched : kPolicyScheds) {
      jobs.push_back(job(app, sched, "policy", cfg, opt));
    }
  }
  for (const int d : kDispatchCycles) {
    CmpConfig c = cfg;
    c.task_dispatch_cycles = static_cast<uint32_t>(d);
    add_pair(jobs, "mergesort", "dispatch" + std::to_string(d), c, opt);
  }
  for (const uint64_t q : kQuanta) {
    jobs.push_back(
        job("mergesort", "pdf", "quantum" + std::to_string(q), cfg, opt));
    jobs.back().quantum_cycles = q;
  }
  return jobs;
}

std::vector<FigureTable> ablation_project(const SweepResults& res, double) {
  constexpr int P = kAblationCores;
  Table policy({"app", "sched", "cycles", "mpki", "vs_pdf"});
  for (const std::string& app : kPolicyApps) {
    const SimResult& pdf = result(res, app, "pdf", P, "policy");
    for (const std::string& sched : kPolicyScheds) {
      const SimResult& r = result(res, app, sched, P, "policy");
      policy.add_row(
          {app, sched, Table::num(r.cycles), mpki(r), speedup(pdf, r)});
    }
  }
  Table quantum({"quantum_cycles", "pdf_cycles", "pdf_l2_misses"});
  for (const uint64_t q : kQuanta) {
    const SimResult& r =
        result(res, "mergesort", "pdf", P, "quantum" + std::to_string(q));
    quantum.add_row(
        {Table::num(q), Table::num(r.cycles), Table::num(r.l2_misses)});
  }
  return {{"policy", "Ablation 1: scheduling policy (16 cores)", policy, ""},
          {"dispatch", "Ablation 2: task dispatch overhead (mergesort)",
           axis_table(res, "mergesort", P, "dispatch_cycles", "dispatch",
                      kDispatchCycles),
           ""},
          {"quantum", "Ablation 3: causality quantum (mergesort, pdf)",
           quantum, ""}};
}

// Scheduler zoo: does PDF's constructive sharing survive real policies?
// Every registered scheduler, then curated variants, on one spec of each
// generator family at two per-task working sets: "fit" (P concurrent
// tasks fit the L2) and "spill" (they do not). Working sets shrink with
// the caches. The geomean table is the headline: per scheduler, the
// slowdown and L2-MPKI ratio relative to PDF.

constexpr int kZooCores = 16;
constexpr double kZooShare = 0.25;

std::vector<std::string> zoo_scheds() {
  std::vector<std::string> scheds = known_schedulers();  // sorted
  scheds.insert(scheds.end(),
                {"ws:victims=rand,seed=7", "ws:steal=half", "aff:steal=half",
                 "prio:key=depth,order=max", "prio:key=work,order=max",
                 "prio:key=ws", "cfb:budget=0.5"});
  return scheds;
}

std::vector<std::pair<std::string, uint64_t>> zoo_working_sets(double scale) {
  return {{"fit", static_cast<uint64_t>(32 * 1024 * scale)},
          {"spill", static_cast<uint64_t>(256 * 1024 * scale)}};
}

/// (family, generator spec) pairs at per-task working set `ws`.
std::vector<std::pair<std::string, std::string>> zoo_families(uint64_t ws) {
  const std::string knobs = ",ws=" + std::to_string(ws) +
                            ",share=" + std::to_string(kZooShare) + ",seed=7";
  return {{"dnc", "dnc:depth=8,fanout=2" + knobs},
          {"forkjoin", "forkjoin:stages=8,width=32,reuse=loop" + knobs},
          {"layered", "layered:layers=12,width=24,p=0.2,reuse=loop" + knobs},
          {"pipeline", "pipeline:stages=8,items=32,reuse=loop" + knobs},
          {"stencil", "stencil:tiles=32,steps=8,reuse=loop" + knobs}};
}

std::vector<SweepJob> zoo_matrix(double scale) {
  const CmpConfig cfg = default_config(kZooCores).scaled(scale);
  std::vector<SweepJob> jobs;
  for (const auto& [ws_name, ws] : zoo_working_sets(scale)) {
    for (const auto& [family, spec] : zoo_families(ws)) {
      for (const std::string& sched : zoo_scheds()) {
        jobs.push_back(job(spec, sched, ws_name + "/" + family, cfg));
      }
    }
  }
  return jobs;
}

std::vector<FigureTable> zoo_project(const SweepResults& res, double scale) {
  const auto working_sets = zoo_working_sets(scale);
  Table t({"scale", "family", "sched", "cycles", "mpki", "vs_pdf", "steals"});
  Table g({"sched", "scale", "geomean_vs_pdf", "geomean_mpki_vs_pdf"});
  for (const std::string& sched : zoo_scheds()) {
    for (const auto& [ws_name, ws] : working_sets) {
      double log_cyc = 0, log_mpki = 0;
      int n = 0;
      for (const auto& [family, spec] : zoo_families(ws)) {
        const std::string tag = ws_name + "/" + family;
        const SimResult& pdf = result(res, spec, "pdf", kZooCores, tag);
        const SimResult& r = result(res, spec, sched, kZooCores, tag);
        const double vs = ratio(r.cycles, pdf.cycles);
        log_cyc += std::log(vs);
        log_mpki += std::log(r.l2_misses_per_kilo_instr() /
                             pdf.l2_misses_per_kilo_instr());
        ++n;
        t.add_row({ws_name, family, sched, Table::num(r.cycles), mpki(r),
                   Table::num(vs, 3), Table::num(r.steals)});
      }
      g.add_row({sched, ws_name, Table::num(std::exp(log_cyc / n), 3),
                 Table::num(std::exp(log_mpki / n), 3)});
    }
  }
  std::ostringstream title;
  title << "Scheduler-zoo ablation (" << kZooCores
        << " cores; fit ws=" << working_sets[0].second
        << "B, spill ws=" << working_sets[1].second << "B, share=" << kZooShare
        << ")";
  return {{"zoo", title.str(), t, ""},
          {"geomean", "Geomean vs PDF over the five families", g, ""}};
}

const FigureSpec kFigures[] = {
    {"fig2_default_configs", "Fig 2 (5.1): PDF vs WS on the Table 2 CMPs",
     0.125, fig2_matrix, fig2_project},
    {"fig3_single_tech", "Fig 3 (5.2): the Table 3 45nm design points", 0.125,
     fig3_matrix, fig3_project},
    {"fig4_l2_hit_time", "Fig 4 (5.3): L2 hit time, banked vs monolithic",
     0.125, fig4_matrix, fig4_project},
    {"fig5_mem_latency", "Fig 5 (5.3): main-memory latency", 0.125,
     fig5_matrix, fig5_project},
    {"fig6_granularity", "Fig 6 (5.4): Mergesort task granularity", 0.125,
     fig6_matrix, fig6_project},
    {"fig8_coarsening", "Fig 8 (6.2): automatic task-grain selection", 0.125,
     fig8_matrix, fig8_project},
    {"table_summary", "5.1/5.5: PDF vs WS over every app", 0.125,
     summary_matrix, summary_project},
    {"ablation_scheduler", "policy, dispatch-cost and quantum ablations",
     0.0625, ablation_matrix, ablation_project},
    {"ablation_sched_zoo", "every registered scheduler on generated DAGs",
     1.0, zoo_matrix, zoo_project},
};

}  // namespace

std::span<const FigureSpec> figures() { return kFigures; }

const FigureSpec& find_figure(const std::string& name) {
  std::vector<std::string> names;
  for (const FigureSpec& f : kFigures) {
    if (name == f.name) return f;
    names.push_back(f.name);
  }
  std::ostringstream os;
  os << "unknown figure: " << name << " (known:";
  for (const auto& n : names) os << " " << n;
  os << ")";
  const std::string near = nearest_flag(name, names);
  if (!near.empty()) os << " — did you mean " << near << "?";
  throw std::invalid_argument(os.str());
}

std::vector<SweepJob> figure_matrix(const std::string& name, double scale) {
  return find_figure(name).matrix(scale);
}

std::vector<FigureTable> run_figure(const FigureSpec& fig, double scale,
                                    const SweepOptions& options) {
  return fig.project(run_sweep(fig.matrix(scale), options), scale);
}

}  // namespace cachesched
