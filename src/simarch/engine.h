// Event-driven CMP simulator (paper §4.1): P in-order scalar cores with
// private L1s over a shared L2 and a bandwidth-limited memory channel,
// executing a computation DAG under a pluggable greedy scheduler.
//
// The L2 is *non-inclusive*: an L2 eviction leaves L1 copies in place and
// only writes dirty data off-chip. (Strict inclusion is not viable across
// the paper's design space — its own 26-core/1 MB-L2 point has 1.6 MB of
// aggregate L1.) Write coherence is tracked with per-line L1-presence
// masks while the line is L2-resident; a write invalidates other L1
// copies. For the studied workloads, whose concurrent writes target
// disjoint regions, this model is exact up to line-boundary sharing.
//
// Timing model (per Table 1):
//  * compute: 1 instruction / cycle;
//  * memory reference: instr_per_ref cycles when it hits in the L1 (the
//    reference itself is one of those instructions, 1-cycle hit);
//    (instr_per_ref - 1) + l2_hit_cycles on an L2 hit;
//    (instr_per_ref - 1) + memory stall (latency + channel queueing) on an
//    L2 miss;
//  * task dispatch costs task_dispatch_cycles on the acquiring core.
//
// Causality: cores advance through a global min-time event queue. A running
// core may process references locally (private L1 hits do not touch shared
// state) but only up to `sim_quantum_cycles` past the earliest pending
// event; every shared-L2 access, task completion and dispatch is processed
// in exact global time order. With quantum = 0 interleaving is fully exact;
// the default small quantum only affects the timing of cross-core L1
// invalidations, which the studied workloads (disjoint writes) are
// insensitive to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/checkspec.h"
#include "check/invariants.h"
#include "core/dag.h"
#include "core/scheduler.h"
#include "simarch/cache.h"
#include "simarch/config.h"
#include "simarch/memchannel.h"

namespace cachesched {

namespace robust {
class RunGuard;  // robust/guard.h
}

struct SimResult {
  std::string scheduler;
  std::string config;
  int cores = 0;

  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t tasks_executed = 0;

  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t writebacks = 0;        // dirty L2 evictions sent off-chip
  uint64_t invalidations = 0;     // cross-L1 write invalidations
  uint64_t mem_stall_cycles = 0;  // core cycles stalled on off-chip misses
  uint64_t mem_queue_cycles = 0;  // portion of stalls due to channel queueing
  uint64_t mem_busy_cycles = 0;   // channel occupancy (demand + writeback)
  uint64_t steals = 0;            // WS only

  std::vector<uint64_t> core_busy_cycles;
  /// Per-task L2 misses / references; filled only when the simulator's
  /// collect_task_stats flag is set (Figure 1 style analyses).
  std::vector<uint32_t> task_l2_misses;
  std::vector<uint32_t> task_refs;

  uint64_t total_refs() const { return l1_hits + l2_hits + l2_misses; }

  /// Figure 2(b,d,f) metric.
  double l2_misses_per_kilo_instr() const {
    return instructions ? 1000.0 * static_cast<double>(l2_misses) /
                              static_cast<double>(instructions)
                        : 0.0;
  }

  /// Fraction of cycles the memory channel was occupied (§5.1 utilization).
  double mem_bandwidth_utilization() const {
    return cycles ? static_cast<double>(mem_busy_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Mean core utilization.
  double core_utilization() const;

  /// Figure 2(a,c,e) metric: sequential cycles / parallel cycles.
  double speedup_over(const SimResult& sequential) const {
    return cycles ? static_cast<double>(sequential.cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

class CmpSimulator {
 public:
  explicit CmpSimulator(const CmpConfig& config);

  /// Executes `dag` to completion under `sched` and returns the statistics.
  /// Deterministic: identical inputs give identical results.
  SimResult run(const TaskDag& dag, Scheduler& sched);

  /// Extra run-ahead window; see file comment. 0 = exact interleaving.
  void set_quantum_cycles(uint64_t q) { quantum_ = q; }

  /// Record per-task miss/reference counts in the result.
  void set_collect_task_stats(bool v) { collect_task_stats_ = v; }

  /// Arms the runtime invariant checkers (src/check/) for subsequent
  /// run() calls. Defaults to $CACHESCHED_CHECK (parsed once; unset =
  /// disarmed). Disarmed, the checked code compiles away entirely (the
  /// run loop is templated on a no-op checker).
  void set_check(const check::CheckSpec& spec) { check_ = spec; }
  const check::CheckSpec& check() const { return check_; }

  /// Checker statistics of the most recent armed run() (zeroed at the
  /// start of every run) — tests assert the checkers actually ran, not
  /// just that nothing threw.
  const check::CheckStats& check_stats() const { return check_stats_; }

  /// Cooperative watchdog/cancellation: the engine polls `guard` every
  /// few outer event-loop iterations (robust/guard.h), so a run can be
  /// bounded by a wall-clock budget or aborted on SIGINT/SIGTERM. The
  /// caller owns the guard; it must outlive run(). nullptr (the default)
  /// removes the poll entirely — the hot path is unaffected.
  void set_run_guard(const robust::RunGuard* g) { guard_ = g; }

  const CmpConfig& config() const { return cfg_; }

 private:
  CmpConfig cfg_;
  uint64_t quantum_ = 1000;
  bool collect_task_stats_ = false;
  const robust::RunGuard* guard_ = nullptr;
  check::CheckSpec check_;  // constructor applies $CACHESCHED_CHECK
  check::CheckStats check_stats_;
};

}  // namespace cachesched
