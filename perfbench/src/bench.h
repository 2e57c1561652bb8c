// Shared pieces of the cachesched benchmark: host clocks, the in-memory
// span recorder of the traced run, the metric sink and the output-check
// ledger that feeds `attempted` / `failed`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simarch/config.h"
#include "simarch/engine.h"

namespace perfbench {

/// Wall seconds on a monotonic clock.
double wall_s();
/// User + system CPU seconds of the whole process.
double cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Times a fixed piece of host work on `threads` threads at once: a
/// set-associative LRU cache model of the benchmark's own, fed the same
/// pseudo-random line stream every time. It shares no code with the
/// library, so a change to the library leaves it alone, while a host that
/// runs slower (other tenants on the same cores and caches, clock changes)
/// slows it too. The end-to-end time metrics are scaled by its reading to
/// take that drift out (see main.cc).
class HostClock {
 public:
  explicit HostClock(int threads);
  /// CPU seconds one thread spends on its share of the fixed work (the
  /// median over the threads). CPU time rather than wall time: a thread
  /// that waits for a core would only add noise.
  double measure();

 private:
  int threads_;
  std::vector<std::vector<uint64_t>> tags_;  // per thread
};

/// One traced interval. `parent` indexes the enclosing span (-1 at top).
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "engine.run"
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// Keeps spans in memory; single-threaded (spans are opened only from the
/// benchmark's own thread, around calls into the library).
class Tracer {
 public:
  int open(std::string name);
  void close(int id);

  /// Sum of the durations of every span called `name`.
  double total(const std::string& name) const;
  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the time its child spans cover.
  std::map<std::string, double> self_by_layer() const;
  /// Writes one JSON object per span. Throws std::runtime_error on I/O
  /// failure.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~SpanScope() {
    if (t_) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The result object's "metrics" member.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m_;
};

/// Output-check ledger. Every job or store hit is one operation; it fails
/// if it threw, was quarantined or failed a check.
class Ledger {
 public:
  /// Counts one operation; `why` (non-empty) marks it failed.
  void op(const std::string& label, const std::string& why);
  void ops_failed(uint64_t n, const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int reported_ = 0;
};

/// Stable digest of every field of a SimResult (hex FNV-1a).
std::string digest(const cachesched::SimResult& r);

/// Reference digests of one workload at the default seed:
/// perfbench/reference/<workload>.digest, lines "<label>\t<digest>".
class Reference {
 public:
  /// Loads `path`; throws std::runtime_error if it is missing or empty.
  static Reference load(const std::string& path);
  /// "" when the label matches, else why it does not.
  std::string check(const std::string& label, const std::string& d) const;
  void record(const std::string& label, const std::string& d);
  void write(const std::string& path, const std::string& header) const;

 private:
  std::map<std::string, std::string> digests_;
};

/// What one measured pass did, timed around the library calls only.
struct PassStats {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t jobs = 0;  // simulations plus store hits
  uint64_t refs = 0;  // references of the simulated jobs
  double host_s = 0;  // HostClock reading taken just before the pass
};

struct RunContext {
  uint64_t seed = 42;
  int workers = 1;
  std::string workdir;  // scratch directory, removed at exit
  Ledger* ledger = nullptr;
  /// Reference digests to check against; null when the seed is not the
  /// default one.
  const Reference* reference = nullptr;
  /// Non-null when rewriting the reference digests.
  Reference* record = nullptr;
  /// Non-null for the traced passes of the traced run.
  Tracer* tracer = nullptr;
  /// Traced passes run so far.
  int traced_passes = 0;
};

/// One benchmark workload: set-up, a measured pass, the checks that need
/// the whole run, and the traced run's per-layer probes.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Builds the pass's inputs. Runs several times, spread between the
  /// passes (the median is setup_s); each replaces the previous inputs.
  virtual void setup(RunContext& ctx) = 0;
  /// One measured pass; checks every output into ctx.ledger.
  virtual PassStats pass(RunContext& ctx) = 0;
  /// Checks that run once, after the measured passes.
  virtual void finish(RunContext& ctx) { (void)ctx; }
  /// Per-layer metrics of the traced run; `tr` holds the spans so far.
  virtual void probe(RunContext& ctx, Tracer& tr, Metrics& out) = 0;
};

std::unique_ptr<BenchWorkload> make_paper_sweep();
std::unique_ptr<BenchWorkload> make_store_resweep();

/// The scheduler zoo: a metric key ("ws_rand_half") and the spec the
/// benchmark builds it from, with the run's seed where the policy is
/// randomized.
struct ZooEntry {
  std::string key;
  std::string spec;
};
std::vector<ZooEntry> scheduler_zoo(uint64_t seed);

// ---- layer probes (probes.cc) ------------------------------------------

struct CacheProbe {
  uint64_t l1_accesses = 0;
  double l1_s = 0;
  uint64_t l2_accesses = 0;
  double l2_s = 0;
};

/// Replays the DAG's line stream, tasks in sequential order and at most
/// `max_refs` references, through a standalone L1 and then its misses
/// through a standalone L2 of `cfg`'s geometry; timed separately.
void probe_caches(const cachesched::TaskDag& dag,
                  const cachesched::CmpConfig& cfg, uint64_t max_refs,
                  Tracer& tr, CacheProbe* acc);

/// Sets "sched.<key>.dispatch_ns" for every zoo entry: drives each of
/// `dags` to completion through the Scheduler interface alone
/// (zero-latency tasks on cfg.cores cores), repeatedly until at least
/// `min_tasks` tasks ran. Throws std::runtime_error if a scheduler strands
/// tasks.
void probe_schedulers(const std::vector<const cachesched::TaskDag*>& dags,
                      const cachesched::CmpConfig& cfg, uint64_t seed,
                      uint64_t min_tasks, Tracer& tr, Metrics& out);

/// Sets the simulated-count metrics (l1.hits ... sim.core_util, and
/// sched.steals) summed over `results`.
void simulated_counts(const std::vector<cachesched::SimResult>& results,
                      Metrics& out);

}  // namespace perfbench
