// The benchmark workloads. Each one exercises a different part of the
// system (see perfbench/README.md for why each exists):
//
//   paper_sweep    the paper's Figure 2 matrix through run_sweep, no store;
//                  set-up traces every workload once (build, save_dag,
//                  load_dag);
//   store_resweep  an incremental re-sweep of generated workloads over the
//                  scheduler zoo through a half-filled ResultStore.
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/dag_io.h"
#include "exp/store.h"
#include "exp/sweep.h"
#include "harness/workload_registry.h"

namespace perfbench {

using namespace cachesched;
namespace fs = std::filesystem;

namespace {

// Line streams replayed through the standalone caches are capped so the
// probe stays a few seconds on the largest DAG.
constexpr uint64_t kCacheProbeRefs = 8'000'000;

std::string job_label(const SweepJob& j) {
  return j.app + " | " + j.sched +
         " | cores=" + std::to_string(j.config.cores) +
         " | scale=" + std::to_string(j.opt.scale);
}

/// Checks every output of one simulation: it ran each task once, and
/// every reference of the DAG, and (at the default seed) its SimResult
/// matches the recorded digest. Returns "" when all hold.
std::string check_result(const RunContext& ctx, const std::string& label,
                         const SimResult& r, uint64_t num_tasks,
                         uint64_t total_refs) {
  if (r.tasks_executed != num_tasks) {
    return "tasks_executed " + std::to_string(r.tasks_executed) +
           " != num_tasks " + std::to_string(num_tasks);
  }
  if (r.total_refs() != total_refs) {
    return "total_refs " + std::to_string(r.total_refs()) + " != DAG refs " +
           std::to_string(total_refs);
  }
  const std::string d = digest(r);
  if (ctx.record) ctx.record->record(label, d);
  return ctx.reference ? ctx.reference->check(label, d) : "";
}

/// One timed run_sweep with the benchmark's fixed options. A sweep that
/// throws fails every job; quarantined jobs fail individually.
struct TimedSweep {
  std::optional<SweepResults> res;
  std::vector<size_t> job_index;  // per record: its index in the job list
  std::vector<double> done_at;    // on_result wall times
  double start = 0;
  double wall = 0;
  double busy_cpu_s = 0;  // CPU time the sweep's threads spent on jobs
};

TimedSweep timed_sweep(const std::vector<SweepJob>& jobs, RunContext& ctx,
                       ResultStore* store, PassStats* ps) {
  TimedSweep ts;
  ts.done_at.reserve(jobs.size());
  // Busy time per thread, read in the (serialized) callbacks on the thread
  // that just finished a build or a job. run_sweep starts fresh worker
  // threads for its build phase and again for its simulation phase, so a
  // worker's CPU clock at its last callback of a phase is the time it
  // spent on that phase's jobs. The calling thread reports store hits, and
  // runs every job when the sweep runs inline; its clock is read from here.
  std::map<std::pair<int, std::thread::id>, double> busy;
  const std::thread::id caller = std::this_thread::get_id();
  const double caller_cpu0 = thread_cpu_s();
  auto note_busy = [&](int phase) {
    const std::thread::id id = std::this_thread::get_id();
    if (id == caller) {
      busy[{-1, id}] = thread_cpu_s() - caller_cpu0;
    } else {
      busy[{phase, id}] = thread_cpu_s();
    }
  };
  SweepOptions o;
  o.workers = ctx.workers;
  o.quarantine = true;
  o.store = store;
  o.on_workload_built = [&](const std::string&) { note_busy(0); };
  o.on_result = [&](const SweepRecord&, size_t, size_t) {
    ts.done_at.push_back(wall_s());
    note_busy(1);
  };
  std::vector<SweepJob> copy = jobs;  // copied before the clock starts
  {
    SpanScope span(ctx.tracer, "sweep.run");
    const double c0 = cpu_s();
    ts.start = wall_s();
    try {
      ts.res = run_sweep(std::move(copy), o);
    } catch (const std::exception& e) {
      ctx.ledger->ops_failed(jobs.size(), std::string("sweep threw: ") +
                                              e.what());
    }
    ts.wall = wall_s() - ts.start;
    ps->cpu_s = cpu_s() - c0;
  }
  for (const auto& [thread, secs] : busy) ts.busy_cpu_s += secs;
  ps->wall_s = ts.wall;
  if (ts.res) {
    ps->jobs = ts.res->size();
    std::vector<char> dropped(jobs.size(), 0);
    for (const QuarantinedJob& q : ts.res->quarantined()) {
      ctx.ledger->op(job_label(jobs[q.index]), "quarantined: " + q.error);
      dropped[q.index] = 1;
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!dropped[i]) ts.job_index.push_back(i);
    }
  }
  return ts;
}

/// Wall time after the (N - workers)-th completion: the sweep's tail,
/// when fewer jobs than workers are left.
double tail_s(const TimedSweep& ts, int workers) {
  const size_t n = ts.done_at.size();
  if (n == 0) return 0;
  const size_t k = n > static_cast<size_t>(workers) ? n - workers : 0;
  const double from = k == 0 ? ts.start : ts.done_at[k - 1];
  return ts.start + ts.wall - from;
}

/// The jobs of a sweep re-run one at a time, build and simulation timed
/// separately (engine.run_s, harness.build_s).
struct SerialRerun {
  double build_s = 0;
  double run_s = 0;
  uint64_t tasks = 0;      // over unique workloads
  uint64_t refs = 0;       // over unique workloads
  uint64_t sim_refs = 0;   // over jobs
  double dag_mb = 0;       // over unique workloads
  std::vector<Workload> kept;
  CacheProbe cache;
};

/// `keep(job)` selects the workloads kept for the scheduler probe and
/// replayed through the standalone caches.
template <typename Keep>
SerialRerun rerun_serially(const std::vector<SweepJob>& jobs, Tracer& tr,
                           Keep keep) {
  SerialRerun out;
  std::unordered_map<WorkloadKey, size_t, WorkloadKeyHash> ids;
  std::vector<std::vector<size_t>> members;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] = ids.emplace(workload_key(jobs[i]), members.size());
    if (fresh) members.emplace_back();
    members[it->second].push_back(i);
  }
  for (const std::vector<size_t>& m : members) {
    const SweepJob& first = jobs[m.front()];
    const double t0 = wall_s();
    Workload w = [&] {
      SpanScope s(&tr, "harness.build");
      return make_workload(first.app, first.config, first.opt);
    }();
    out.build_s += wall_s() - t0;
    out.tasks += w.dag.num_tasks();
    out.refs += w.dag.total_refs();
    out.dag_mb += w.dag.memory_stats().total() / 1e6;
    for (size_t i : m) {
      // The sweep's own rewrite of a sequential-baseline job.
      CmpConfig cfg = jobs[i].config;
      std::string sched = jobs[i].sched;
      if (sched == kSequentialSched) {
        cfg.cores = 1;
        sched = "pdf";
      }
      CmpSimulator sim(cfg);
      if (jobs[i].quantum_cycles) {
        sim.set_quantum_cycles(*jobs[i].quantum_cycles);
      }
      auto s = make_scheduler(sched);
      const double r0 = wall_s();
      {
        SpanScope span(&tr, "engine.run");
        sim.run(w.dag, *s);
      }
      out.run_s += wall_s() - r0;
      out.sim_refs += w.dag.total_refs();
    }
    if (keep(first)) {
      probe_caches(w.dag, first.config, kCacheProbeRefs, tr, &out.cache);
      out.kept.push_back(std::move(w));
    }
  }
  return out;
}

void set_layer_metrics(const SerialRerun& s, Metrics& out) {
  out.set("harness.build_s", s.build_s, "s");
  out.set("harness.tasks", static_cast<double>(s.tasks), "count");
  out.set("harness.refs", static_cast<double>(s.refs), "count");
  out.set("harness.dag_mb", s.dag_mb, "MB");
  out.set("engine.run_s", s.run_s, "s");
  out.set("engine.ns_per_ref", s.run_s * 1e9 / s.sim_refs, "ns");
}

/// sweep.busy_ratio: CPU time the sweep's threads spent on builds, jobs
/// and store hits over workers x wall time of the last pass.
void set_sweep_metrics(const TimedSweep& ts, int workers, Metrics& out) {
  out.set("sweep.busy_ratio", ts.busy_cpu_s / (workers * ts.wall), "ratio");
  out.set("sweep.tail_s", tail_s(ts, workers), "s");
}

void set_cache_metrics(const CacheProbe& c, Metrics& out) {
  out.set("cache.l1_ns_per_access", c.l1_s * 1e9 / c.l1_accesses, "ns");
  out.set("cache.l2_ns_per_access", c.l2_s * 1e9 / c.l2_accesses, "ns");
}

/// The configuration of the matrix's jobs at `cores` cores and `scale`.
CmpConfig config_with(const std::vector<SweepJob>& jobs, int cores,
                      double scale = 0.125) {
  for (const SweepJob& j : jobs) {
    if (j.config.cores == cores && j.opt.scale == scale) return j.config;
  }
  throw std::logic_error("no such configuration in the matrix");
}

std::vector<const TaskDag*> dags_of(const std::vector<Workload>& ws) {
  std::vector<const TaskDag*> out;
  for (const Workload& w : ws) out.push_back(&w.dag);
  return out;
}

// ---- paper_sweep -----------------------------------------------------------

class PaperSweep : public BenchWorkload {
 public:
  void setup(RunContext& ctx) override {
    SweepSpec spec;
    spec.apps = {"mergesort", "hashjoin", "lu"};
    spec.scheds = {"pdf", "ws"};
    spec.core_counts = {1, 2, 4, 8, 16, 32};
    spec.scales = {0.125};
    spec.sequential_baseline = true;
    spec.seed = ctx.seed;
    jobs_ = expand(spec);
    // Trace once: build every workload the sweep shares on its own, write
    // it with save_dag and read it back. The loaded DAGs' sizes are what
    // each record must report; finish() replays one of them.
    sizes_.clear();
    replay_.reset();
    dag_bytes_ = 0;
    for (const SweepJob& j : jobs_) {
      const WorkloadKey key = workload_key(j);
      if (sizes_.count(key)) continue;
      const std::string path = ctx.workdir + "/paper_sweep-" +
                               std::to_string(sizes_.size()) + ".dag";
      {
        const Workload w = [&] {
          SpanScope s(ctx.tracer, "harness.build");
          return make_workload(j.app, j.config, j.opt);
        }();
        SpanScope s(ctx.tracer, "dag_io.save");
        save_dag(w.dag, path);
      }
      TaskDag dag = [&] {
        SpanScope s(ctx.tracer, "dag_io.load");
        return load_dag(path);
      }();
      dag_bytes_ += fs::file_size(path);
      sizes_[key] = {dag.num_tasks(), dag.total_refs()};
      if (j.app == "mergesort" && j.config.cores == 8) {
        replay_ = std::move(dag);
        replay_cfg_ = j.config;
      }
    }
  }

  PassStats pass(RunContext& ctx) override {
    PassStats ps;
    last_ = timed_sweep(jobs_, ctx, nullptr, &ps);
    if (!last_.res) return ps;
    const auto& recs = last_.res->records();
    std::vector<std::string> why(recs.size());
    std::map<std::pair<std::string, int>, size_t> mergesort;
    for (size_t i = 0; i < recs.size(); ++i) {
      const SweepRecord& r = recs[i];
      const auto& size = sizes_.at(workload_key(r.job));
      why[i] = check_result(ctx, job_label(r.job), r.result, size.first,
                            size.second);
      if (why[i].empty() && r.num_tasks != size.first) {
        why[i] = "record num_tasks differs from an independent build";
      }
      ps.refs += r.total_refs;
      if (r.job.app == "mergesort") {
        mergesort[{r.job.sched, r.job.config.cores}] = i;
      }
    }
    // The paper's direction (pinned by integration_test): PDF misses less
    // than WS in the shared L2 once many cores share it.
    for (int cores : {16, 32}) {
      const auto pdf = mergesort.find({"pdf", cores});
      const auto ws = mergesort.find({"ws", cores});
      if (pdf == mergesort.end() || ws == mergesort.end()) {
        ctx.ledger->ops_failed(1, "mergesort pdf/ws record missing");
        continue;
      }
      const uint64_t a = recs[pdf->second].result.l2_misses;
      const uint64_t b = recs[ws->second].result.l2_misses;
      if (a >= b) {
        const std::string m = "mergesort at " + std::to_string(cores) +
                              " cores: pdf L2 misses " + std::to_string(a) +
                              " >= ws " + std::to_string(b);
        why[pdf->second] += why[pdf->second].empty() ? m : "; " + m;
        why[ws->second] += why[ws->second].empty() ? m : "; " + m;
      }
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      ctx.ledger->op(job_label(recs[i].job), why[i]);
    }
    return ps;
  }

  void finish(RunContext& ctx) override {
    // Replay many: the mergesort DAG read back by load_dag must simulate
    // exactly like the one the sweep built.
    if (!last_.res) return;  // the pass already failed every job
    for (const char* sched : {"pdf", "ws"}) {
      const SweepRecord* rec = last_.res->find("mergesort", sched, 8);
      CmpSimulator sim(replay_cfg_);
      auto s = make_scheduler(sched);
      const bool same = rec && replay_ &&
                        digest(sim.run(*replay_, *s)) == digest(rec->result);
      ctx.ledger->op(
          std::string("mergesort | ") + sched + " | cores=8 (loaded DAG)",
          same ? "" : "loaded DAG simulates differently from the built one");
    }
  }

  void probe(RunContext& ctx, Tracer& tr, Metrics& out) override {
    SerialRerun s = rerun_serially(jobs_, tr, [](const SweepJob& j) {
      return j.config.cores == 8 && j.sched == kSequentialSched;
    });
    set_layer_metrics(s, out);
    out.set("dag_io.save_s", tr.total("dag_io.save"), "s");
    out.set("dag_io.load_s", tr.total("dag_io.load"), "s");
    out.set("dag_io.file_mb", dag_bytes_ / 1e6, "MB");
    set_cache_metrics(s.cache, out);
    // The mergesort DAG at 8 cores (kept first) for the scheduler probe.
    probe_schedulers({&s.kept.front().dag}, config_with(jobs_, 8), ctx.seed,
                     200'000, tr, out);
    if (last_.res) {
      std::vector<SimResult> results;
      for (const SweepRecord& r : last_.res->records()) {
        results.push_back(r.result);
      }
      simulated_counts(results, out);
      set_sweep_metrics(last_, ctx.workers, out);
    }
  }

 private:
  std::vector<SweepJob> jobs_;
  std::unordered_map<WorkloadKey, std::pair<uint64_t, uint64_t>,
                     WorkloadKeyHash>
      sizes_;
  uint64_t dag_bytes_ = 0;  // the .dag files of one set-up
  std::optional<TaskDag> replay_;
  CmpConfig replay_cfg_;
  TimedSweep last_;
};

// ---- store_resweep ---------------------------------------------------------

class StoreResweep : public BenchWorkload {
 public:
  void setup(RunContext& ctx) override {
    SweepSpec spec;
    const std::string knobs =
        ",ws=16K,share=0.25,reuse=loop,seed=" + std::to_string(ctx.seed);
    spec.apps = {"dnc:depth=6,fanout=2" + knobs,
                 "stencil:tiles=16,steps=6" + knobs,
                 "forkjoin:stages=4,width=16" + knobs};
    spec.scheds.clear();
    for (const ZooEntry& z : scheduler_zoo(ctx.seed)) {
      spec.scheds.push_back(z.spec);
    }
    spec.core_counts = {1, 2, 4, 8, 16, 32};
    spec.scales = {0.0625, 0.125};
    spec.overrides.l2_banks = 4;
    spec.seed = ctx.seed;
    jobs_ = expand(spec);

    // Simulate the whole matrix once: the reference every pass's records
    // (store hits included) must equal.
    SweepOptions o;
    o.workers = ctx.workers;
    SweepResults ref = [&] {
      SpanScope s(ctx.tracer, "sweep.run");
      return run_sweep(jobs_, o);
    }();
    ref_ = ref.records();
    // The snapshot holds the even-indexed half of the records.
    snapshot_ = ctx.workdir + "/snapshot";
    fs::remove_all(snapshot_);
    ResultStore snap(snapshot_);
    for (size_t i = 0; i < jobs_.size(); i += 2) {
      SpanScope s(ctx.tracer, "store.put");
      snap.put(*store_key(jobs_[i]), ref_[i]);
    }
  }

  PassStats pass(RunContext& ctx) override {
    const std::string dir = restore(ctx);
    PassStats ps;
    {
      ResultStore store(dir);
      last_ = timed_sweep(jobs_, ctx, &store, &ps);
      stats_ = store.stats();
    }
    if (!last_.res) return ps;
    const auto& recs = last_.res->records();
    const size_t hits_expected = (jobs_.size() + 1) / 2;
    std::string store_why;
    if (stats_.hits != hits_expected || stats_.corrupt != 0 ||
        stats_.puts != jobs_.size() - hits_expected) {
      store_why = "store served " + std::to_string(stats_.hits) + " hits (" +
                  std::to_string(hits_expected) + " expected), " +
                  std::to_string(stats_.corrupt) + " rejected, " +
                  std::to_string(stats_.puts) + " puts";
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      const SweepRecord& r = recs[i];
      const size_t k = last_.job_index[i];
      const std::string label = job_label(r.job);
      std::string why = check_result(ctx, label, r.result, r.num_tasks,
                                     r.total_refs);
      if (why.empty() && digest(r.result) != digest(ref_[k].result)) {
        why = "record differs from simulating the job";
      }
      if (why.empty() && k % 2 == 0) why = store_why;
      if (k % 2 == 1) ps.refs += r.total_refs;
      ctx.ledger->op(label, why);
    }
    return ps;
  }

  void probe(RunContext& ctx, Tracer& tr, Metrics& out) override {
    SerialRerun s = rerun_serially(jobs_, tr, [this](const SweepJob& j) {
      return j.config.cores == 8 && j.opt.scale == 0.125 &&
             j.sched == jobs_.front().sched;
    });
    set_layer_metrics(s, out);
    set_cache_metrics(s.cache, out);
    probe_schedulers(dags_of(s.kept), config_with(jobs_, 8, 0.125), ctx.seed,
                     50'000, tr, out);

    if (last_.res) {
      std::vector<SimResult> results;
      for (const SweepRecord& r : last_.res->records()) {
        results.push_back(r.result);
      }
      simulated_counts(results, out);
      set_sweep_metrics(last_, ctx.workers, out);
    }
    out.set("store.hits", static_cast<double>(stats_.hits), "count");
    out.set("store.misses", static_cast<double>(stats_.misses), "count");
    out.set("store.rejected", static_cast<double>(stats_.corrupt), "count");

    // ResultStore::load and put called directly on one pass's keys and
    // records.
    const std::string dir = restore(ctx);
    ResultStore store(dir);
    double load_s = 0, put_s = 0, entry_bytes = 0;
    for (const SweepJob& j : jobs_) {
      SweepRecord rec;
      const StoreKey key = *store_key(j);
      const double t0 = wall_s();
      {
        SpanScope span(&tr, "store.load");
        store.load(key, &rec);
      }
      load_s += wall_s() - t0;
    }
    for (size_t i = 1; i < jobs_.size(); i += 2) {
      const StoreKey key = *store_key(jobs_[i]);
      const double t0 = wall_s();
      {
        SpanScope span(&tr, "store.put");
        store.put(key, ref_[i]);
      }
      put_s += wall_s() - t0;
    }
    for (const SweepJob& j : jobs_) {
      entry_bytes += fs::file_size(store.path_for(*store_key(j)));
    }
    out.set("store.load_us", load_s * 1e6 / jobs_.size(), "us");
    out.set("store.put_us", put_s * 1e6 / (jobs_.size() / 2), "us");
    out.set("store.entry_kb", entry_bytes / 1024.0 / jobs_.size(), "KB");
  }

 private:
  /// Replaces the pass's store with a copy of the snapshot (untimed).
  std::string restore(const RunContext& ctx) const {
    const std::string dir = ctx.workdir + "/store";
    fs::remove_all(dir);
    fs::copy(snapshot_, dir, fs::copy_options::recursive);
    return dir;
  }

  std::vector<SweepJob> jobs_;
  std::vector<SweepRecord> ref_;
  std::string snapshot_;
  TimedSweep last_;
  ResultStore::Stats stats_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_paper_sweep() {
  return std::make_unique<PaperSweep>();
}
std::unique_ptr<BenchWorkload> make_store_resweep() {
  return std::make_unique<StoreResweep>();
}

}  // namespace perfbench
