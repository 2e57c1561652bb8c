#include "perf/suite.h"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "exp/store.h"
#include "exp/sweep.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"
#include "profile/lru_stack.h"
#include "sched/registry.h"
#include "simarch/engine.h"

namespace cachesched::perf {

namespace {

/// `app` is any make_workload spec; `label` (and `sched_label` for
/// parameterized scheduler specs) override the benchmark-name components
/// when the spec itself is too unwieldy for a stable JSON key.
Benchmark bench_engine(const std::string& app, const std::string& sched,
                       double scale, int warmup, int reps,
                       const std::string& label = "",
                       const std::string& sched_label = "") {
  const CmpConfig cfg = default_config(8).scaled(scale);
  AppOptions opt;
  opt.scale = scale;
  const Workload w = make_workload(app, cfg, opt);
  uint64_t refs = 0;
  const Stats stats = measure(warmup, reps, [&] {
    CmpSimulator sim(cfg);
    const auto s = make_scheduler(sched);
    const SimResult r = sim.run(w.dag, *s);
    refs = r.total_refs();
  });
  Benchmark b;
  b.name = "engine/" + (label.empty() ? app : label) + "/" +
           (sched_label.empty() ? sched : sched_label);
  b.metric = "Mrefs_per_sec";
  b.work_items = refs;
  b.stats = stats;
  b.value = static_cast<double>(refs) / stats.min / 1e6;
  return b;
}

Benchmark bench_lru_stack(double scale, int warmup, int reps) {
  const CmpConfig cfg = default_config(8).scaled(scale);
  AppOptions opt;
  opt.scale = scale;
  const Workload w = make_app("mergesort", cfg, opt);
  const int line_shift = 7;  // 128 B lines
  uint64_t accesses = 0;
  const Stats stats = measure(warmup, reps, [&] {
    LruStackModel lru;
    uint64_t n = 0;
    for (TaskId t = 0; t < w.dag.num_tasks(); ++t) {
      TraceCursor cur = w.dag.cursor(t);
      for (TraceOp op = cur.next(); op.kind != TraceOp::kDone;
           op = cur.next()) {
        if (op.kind != TraceOp::kMem) continue;
        lru.access(op.addr >> line_shift, t);
        ++n;
      }
    }
    accesses = n;
  });
  Benchmark b;
  b.name = "profiler/lru_stack";
  b.metric = "Maccesses_per_sec";
  b.work_items = accesses;
  b.stats = stats;
  b.value = static_cast<double>(accesses) / stats.min / 1e6;
  return b;
}

SweepSpec sweep_bench_spec(double scale) {
  SweepSpec spec;
  spec.apps = {"mergesort", "lu"};
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = {2, 4};
  spec.scales = {scale};
  return spec;
}

Benchmark bench_sweep(int workers, double scale, int warmup, int reps,
                      const char* name) {
  const std::vector<SweepJob> jobs = expand(sweep_bench_spec(scale));
  SweepOptions opt;
  opt.workers = workers;
  const Stats stats = measure(warmup, reps, [&] { run_sweep(jobs, opt); });
  Benchmark b;
  b.name = name;
  b.metric = "jobs_per_sec";
  b.work_items = jobs.size();
  b.stats = stats;
  b.value = static_cast<double>(jobs.size()) / stats.min;
  return b;
}

/// Splits sweep cost into its two phases over the bench_sweep job matrix:
/// workload construction (the cost the sweep cache pays once per unique
/// workload instead of once per job) and pure simulation. Both run
/// serially so the two numbers are directly comparable.
std::pair<Benchmark, Benchmark> bench_build_vs_sim(double scale, int warmup,
                                                   int reps) {
  const std::vector<SweepJob> jobs = expand(sweep_bench_spec(scale));
  // Unique workloads, grouped by the exact key the sweep cache uses, so
  // this split stays honest if the bench spec grows new dimensions.
  std::vector<const SweepJob*> unique;
  std::vector<size_t> uidx(jobs.size());
  std::unordered_map<WorkloadKey, size_t, WorkloadKeyHash> groups;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, inserted] =
        groups.emplace(workload_key(jobs[i]), unique.size());
    if (inserted) unique.push_back(&jobs[i]);
    uidx[i] = it->second;
  }
  const Stats build_stats = measure(warmup, reps, [&] {
    for (const SweepJob* j : unique) {
      const Workload w = make_workload(j->app, j->config, j->opt);
      if (w.dag.num_tasks() == 0) std::abort();  // defeat dead-code elim
    }
  });
  Benchmark build;
  build.name = "sweep/build_vs_sim/build";
  build.metric = "builds_per_sec";
  build.work_items = unique.size();
  build.stats = build_stats;
  build.value = static_cast<double>(unique.size()) / build_stats.min;

  // Pre-built workloads, simulation only.
  std::vector<Workload> built;
  built.reserve(unique.size());
  for (const SweepJob* j : unique) {
    built.push_back(make_workload(j->app, j->config, j->opt));
  }
  const Stats sim_stats = measure(warmup, reps, [&] {
    for (size_t i = 0; i < jobs.size(); ++i) {
      const Workload& w = built[uidx[i]];
      CmpSimulator sim(jobs[i].config);
      const auto s = make_scheduler(jobs[i].sched);
      const SimResult r = sim.run(w.dag, *s);
      if (r.cycles == 0) std::abort();
    }
  });
  Benchmark simb;
  simb.name = "sweep/build_vs_sim/sim";
  simb.metric = "jobs_per_sec";
  simb.work_items = jobs.size();
  simb.stats = sim_stats;
  simb.value = static_cast<double>(jobs.size()) / sim_stats.min;
  return {build, simb};
}

/// Result-store rows: a cold sweep (empty store: simulate + persist
/// everything) vs a warm one (every job a store hit: the incremental
/// re-sweep cost), plus their ratio — how much a fully-cached re-run of
/// the same matrix saves. Serial workers so the rows are comparable to
/// sweep/jobs_1.
std::vector<Benchmark> bench_store(double scale, int warmup, int reps) {
  namespace fs = std::filesystem;
  const std::vector<SweepJob> jobs = expand(sweep_bench_spec(scale));
  const fs::path dir =
      fs::temp_directory_path() /
      ("cachesched-perf-store-" +
       std::to_string(reinterpret_cast<uintptr_t>(&jobs)));
  fs::remove_all(dir);

  auto run_with_store = [&] {
    ResultStore store(dir.string());
    SweepOptions opt;
    opt.workers = 1;
    opt.store = &store;
    run_sweep(jobs, opt);
  };
  // Cold: every repetition starts from an empty store.
  const Stats cold_stats = measure(warmup, reps, [&] {
    fs::remove_all(dir);
    run_with_store();
  });
  // Warm: the last cold repetition left the store fully populated.
  const Stats warm_stats = measure(warmup, reps, run_with_store);
  fs::remove_all(dir);

  Benchmark cold;
  cold.name = "sweep/store_cold";
  cold.metric = "jobs_per_sec";
  cold.work_items = jobs.size();
  cold.stats = cold_stats;
  cold.value = static_cast<double>(jobs.size()) / cold_stats.min;

  Benchmark warm;
  warm.name = "sweep/store_warm";
  warm.metric = "jobs_per_sec";
  warm.work_items = jobs.size();
  warm.stats = warm_stats;
  warm.value = static_cast<double>(jobs.size()) / warm_stats.min;

  Benchmark ratio;
  ratio.name = "sweep/store_warm_x";
  ratio.metric = "speedup";
  ratio.work_items = jobs.size();
  ratio.stats = warm_stats;
  ratio.value = cold.value > 0 ? warm.value / cold.value : 0;
  return {cold, warm, ratio};
}

}  // namespace

Report run_suite(const SuiteOptions& options) {
  const bool quick = options.quick;
  const int reps = options.reps > 0 ? options.reps : (quick ? 3 : 5);
  const int warmup = 1;
  const double engine_scale = quick ? 0.03125 : 0.125;
  const double sweep_scale = quick ? 0.015625 : 0.03125;

  std::vector<std::string> apps = options.apps;
  if (apps.empty()) {
    apps = quick ? std::vector<std::string>{"mergesort", "hashjoin", "lu"}
                 : std::vector<std::string>{"mergesort", "quicksort",
                                            "hashjoin", "lu", "matmul",
                                            "cholesky", "heat"};
  }

  Report rep;
  rep.suite = "cachesched-perf";
  rep.quick = quick;
  rep.meta = machine_info();

  auto add = [&](Benchmark b) {
    if (options.on_benchmark) options.on_benchmark(b);
    rep.benchmarks.push_back(std::move(b));
  };

  for (const std::string& app : apps) {
    for (const char* sched : {"pdf", "ws"}) {
      add(bench_engine(app, sched, engine_scale, warmup, reps));
    }
  }

  // Generator path: one synthetic spec per mode keeps BENCH_sim.json
  // tracking src/gen build + simulate throughput alongside the seed apps.
  // The quick spec is sized so the measured repetition stays well above
  // timer/scheduler noise (tens of milliseconds, not single-digit) — the
  // CI engine/* gate compares this row against the baseline.
  const std::string gen_spec =
      quick ? "dnc:depth=8,fanout=2,ws=32K,share=0.25,seed=7"
            : "dnc:depth=9,fanout=2,ws=32K,share=0.25,seed=7";
  add(bench_engine(gen_spec, "pdf", engine_scale, warmup, reps, "gen_dnc"));

  // Scheduler zoo (PR 8): the two parameterized stealing variants on a
  // generated stencil, tracking the per-core-deque + victim-policy paths
  // (per-core PRNG probing, bank-distance victim order, batched
  // steal-half) that the pdf/ws rows never enter. Same engine/* gate.
  const std::string stencil_spec =
      quick ? "stencil:tiles=64,steps=8,ws=32K,share=0.25,seed=7"
            : "stencil:tiles=64,steps=32,ws=64K,share=0.25,seed=7";
  add(bench_engine(stencil_spec, "ws:victims=rand,steal=half,seed=7",
                   engine_scale, warmup, reps, "stencil", "ws_rand_half"));
  add(bench_engine(stencil_spec, "aff:steal=half", engine_scale, warmup,
                   reps, "stencil", "aff_half"));

  add(bench_lru_stack(quick ? 0.03125 : 0.0625, warmup, reps));

  auto [build, sim] = bench_build_vs_sim(sweep_scale, warmup, reps);
  add(std::move(build));
  add(std::move(sim));

  for (Benchmark& b : bench_store(sweep_scale, warmup, reps)) {
    add(std::move(b));
  }

  const Benchmark serial =
      bench_sweep(1, sweep_scale, warmup, reps, "sweep/jobs_1");
  const Benchmark parallel =
      bench_sweep(0, sweep_scale, warmup, reps, "sweep/jobs_all");
  Benchmark scaling;
  scaling.name = "sweep/scaling_x";
  scaling.metric = "speedup";
  scaling.work_items = parallel.work_items;
  scaling.stats = parallel.stats;
  scaling.value = serial.value > 0 ? parallel.value / serial.value : 0;
  add(serial);
  add(parallel);
  add(scaling);
  return rep;
}

}  // namespace cachesched::perf
