// cachesched benchmark: the entry point.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --workdir DIR --reference DIR [--trace-out FILE]
//             [--write-reference]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then repeats measured passes for S seconds and reports the end-to-end
// metrics as medians over passes. --trace 1 runs untraced and traced
// passes alternately, then the layer probes, and reports the per-layer
// metrics. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.py builds this binary and passes the directories.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "harness/workload_registry.h"
#include "sched/registry.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// Reference digests are recorded at this seed only.
constexpr uint64_t kDefaultSeed = 42;
// Sweep worker threads: min(nproc, kMaxWorkers), never 0 (0 would mean
// hardware_concurrency, which some containers report as 1).
constexpr int kMaxWorkers = 4;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 7;
// What one HostClock round reads on the host the benchmark was designed
// on (4-vCPU VM, gcc 12.2, Release); the end-to-end times are given at
// this host speed.
constexpr double kHostClockNominal_s = 0.0315;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void refuse(const std::string& why, int code = 2) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(code);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string reference;
  std::string trace_out;
  bool write_reference = false;
};

Args parse(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--write-reference") {
      a.write_reference = true;
    } else if (k.rfind("--", 0) == 0 && i + 1 < argc) {
      kv[k.substr(2)] = argv[++i];
    } else {
      refuse("bad argument '" + k + "'");
    }
  }
  auto take = [&](const char* key, bool required) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      if (required) refuse(std::string("missing --") + key);
      return std::string();
    }
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  try {
    a.workload = take("workload", true);
    a.seed = std::stoull(take("seed", true));
    a.seconds = std::stod(take("seconds", true));
    a.trace = take("trace", true) == "1";
  } catch (const std::logic_error&) {
    refuse("--seed, --seconds and --trace take numbers");
  }
  a.workdir = take("workdir", true);
  a.reference = take("reference", true);
  a.trace_out = take("trace-out", false);
  if (!kv.empty()) refuse("unknown option --" + kv.begin()->first);
  if (!(a.seconds > 0)) refuse("--seconds must be positive");
  return a;
}

/// Refuses to measure a program other than the optimized, unchecked one.
void refuse_other_programs() {
  for (const char* var :
       {"CACHESCHED_SIM_THREADS", "CACHESCHED_CHECK", "CACHESCHED_FAULTS"}) {
    if (const char* v = std::getenv(var)) {
      refuse(std::string(var) + "=" + v +
             " is set: it changes the simulator under test; unset it");
    }
  }
  if (!kOptimized) refuse("this build is unoptimized; build it as Release");
  if (kSanitized) refuse("this build is sanitized; build it without them");
}

/// Every workload and scheduler the benchmark names must be registered.
void assert_registered() {
  for (const char* w :
       {"mergesort", "hashjoin", "lu", "dnc", "stencil", "forkjoin"}) {
    if (!cachesched::WorkloadRegistry::instance().contains(w)) {
      refuse(std::string("workload '") + w + "' is not registered");
    }
  }
  for (const ZooEntry& z : scheduler_zoo(kDefaultSeed)) {
    const std::string name = z.spec.substr(0, z.spec.find(':'));
    if (!cachesched::SchedulerRegistry::instance().contains(name)) {
      refuse("scheduler '" + name + "' is not registered");
    }
    try {
      cachesched::make_scheduler(z.spec);
    } catch (const std::exception& e) {
      refuse("scheduler spec '" + z.spec + "' rejected: " + e.what());
    }
  }
}

/// Removes the scratch directory however the run ends.
struct Workdir {
  std::string path;
  explicit Workdir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~Workdir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  Workdir(const Workdir&) = delete;
  Workdir& operator=(const Workdir&) = delete;
};

std::unique_ptr<BenchWorkload> make(const std::string& name) {
  if (name == "paper_sweep") return make_paper_sweep();
  if (name == "store_resweep") return make_store_resweep();
  refuse("unknown workload '" + name +
         "' (known: paper_sweep store_resweep)");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  refuse_other_programs();
  assert_registered();
  auto workload = make(args.workload);

  const std::string ref_path = args.reference + "/" + args.workload + ".digest";
  if (args.write_reference && args.seed != kDefaultSeed) {
    refuse("--write-reference needs --seed " + std::to_string(kDefaultSeed));
  }
  // Loaded at every seed, so missing reference data fails every run.
  std::optional<Reference> reference;
  Reference recorded;
  if (!args.write_reference) {
    try {
      reference = Reference::load(ref_path);
    } catch (const std::exception& e) {
      refuse(e.what(), 3);
    }
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  Ledger ledger;
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.workers = static_cast<int>(std::clamp<long>(nproc, 1, kMaxWorkers));
  ctx.ledger = &ledger;
  ctx.reference =
      reference && args.seed == kDefaultSeed ? &*reference : nullptr;
  ctx.record = args.write_reference ? &recorded : nullptr;

  std::cout << "# perfbench {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << args.trace << ", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"nproc\": " << nproc
            << ", \"workers\": " << ctx.workers << "}" << std::endl;

  Metrics metrics;
  try {
    Workdir workdir(args.workdir);
    ctx.workdir = workdir.path;
    Tracer tracer;
    Tracer* tr = args.trace ? &tracer : nullptr;

    // Set-ups are spread over the measured window rather than run back to
    // back: host speed drifts over seconds, and their median should sample
    // the same stretch of time as the passes'.
    std::vector<double> setups;
    const int reps = args.trace ? 1 : kSetupReps;
    auto set_up = [&] {
      SpanScope s(tr, "bench.setup");
      ctx.tracer = tr;
      const double t0 = wall_s();
      workload->setup(ctx);
      setups.push_back(wall_s() - t0);
      ctx.tracer = nullptr;
    };

    HostClock host_clock(ctx.workers);
    std::vector<PassStats> passes, traced;
    const double start = wall_s();
    const double deadline = start + args.seconds;
    do {
      const double done = std::min(1.0, (wall_s() - start) / args.seconds);
      while (static_cast<int>(setups.size()) < 1 + (reps - 1) * done) set_up();
      const double host_s = args.trace ? 0 : host_clock.measure();
      passes.push_back(workload->pass(ctx));
      passes.back().host_s = host_s;
      std::cerr << "perfbench: pass " << passes.size() << ": wall "
                << passes.back().wall_s << " s, cpu " << passes.back().cpu_s
                << " s, " << passes.back().jobs << " jobs, host clock "
                << host_s << " s\n";
      if (args.trace) {
        SpanScope s(tr, "bench.pass");
        ctx.tracer = tr;
        traced.push_back(workload->pass(ctx));
        ctx.tracer = nullptr;
        ++ctx.traced_passes;
      }
    } while (wall_s() < deadline);
    while (static_cast<int>(setups.size()) < reps) set_up();
    const double peak_mb = peak_rss_mb();

    auto med = [](const std::vector<PassStats>& ps, auto f) {
      std::vector<double> v;
      for (const PassStats& p : ps) v.push_back(f(p));
      return median(v);
    };
    if (args.trace) {
      {
        SpanScope s(tr, "bench.probe");
        workload->probe(ctx, tracer, metrics);
      }
      for (const auto& [layer, secs] : tracer.self_by_layer()) {
        metrics.set("self_s." + layer, secs, "s");
      }
      const auto wall = [](const PassStats& p) { return p.wall_s; };
      metrics.set("trace.overhead_pct",
                  100.0 * (med(traced, wall) / med(passes, wall) - 1.0), "%");
      if (!args.trace_out.empty()) tracer.write(args.trace_out);
    } else {
      // Host drift: the time metrics are given at the nominal host speed.
      // On a host running 20% slower the HostClock reads 20% more than
      // kHostClockNominal_s, and every time is scaled down by that share.
      // The raw figures go on a comment line.
      const auto host = [](const PassStats& p) { return p.host_s; };
      const double host_s = med(passes, host);
      const double slow = host_s / kHostClockNominal_s;
      const double jobs = med(passes, [](const PassStats& p) {
        return p.jobs / p.wall_s;
      });
      const double mrefs = med(passes, [](const PassStats& p) {
        return p.refs / p.wall_s / 1e6;
      });
      const double cpu = med(passes, [](const PassStats& p) {
        return p.cpu_s;
      });
      const double setup = median(setups);
      std::cout << "# perfbench raw {\"jobs_per_s\": " << jobs
                << ", \"Mrefs_per_s\": " << mrefs << ", \"cpu_s\": " << cpu
                << ", \"setup_s\": " << setup
                << ", \"host_clock_s\": " << host_s << "}" << std::endl;
      metrics.set("jobs_per_s", jobs * slow, "1/s");
      metrics.set("Mrefs_per_s", mrefs * slow, "Mref/s");
      metrics.set("cpu_s", cpu / slow, "s");
      metrics.set("setup_s", setup / slow, "s");
      metrics.set("peak_rss_mb", peak_mb, "MB");
    }
    workload->finish(ctx);
    std::cerr << "perfbench: " << args.workload << " seed " << args.seed
              << ": " << passes.size() << " passes, setup x" << setups.size()
              << "\n";
  } catch (const std::exception& e) {
    refuse(std::string("run aborted: ") + e.what(), 1);
  }

  if (args.write_reference) {
    if (ledger.failed() != 0) refuse("not writing a reference: the run failed");
    recorded.write(ref_path,
                   "# SimResult digests of perfbench " + args.workload +
                       " at --seed " + std::to_string(kDefaultSeed) +
                       "; regenerate with perfbench/run.py "
                       "--write-reference\n");
    std::cerr << "perfbench: wrote " << ref_path << "\n";
  }

  const double ratio =
      static_cast<double>(ledger.failed()) /
      static_cast<double>(std::max<uint64_t>(1, ledger.attempted()));
  std::cout << "# perfbench failed_ratio " << ratio << std::endl;
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
