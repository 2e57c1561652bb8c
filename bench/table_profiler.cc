// §6.1 runtime comparison: the one-pass LruTree working-set profiler vs
// the multi-pass SetAssoc baseline, profiling every task group of a
// Mergesort trace at a list of candidate cache sizes.
//
// Paper numbers (32M-element sort, 2.85G references, >190K task groups):
// SetAssoc 253 minutes vs LruTree 13.4 minutes — an 18x improvement,
// because SetAssoc revisits each reference once per enclosing group level
// (22x on average) while LruTree is one pass. The speedup grows with
// problem size; at bench scale expect roughly an order of magnitude.
//
// Also cross-checks the two profilers' miss counts (SetAssoc run fully
// associative must match LruTree exactly).
//
// Usage: table_profiler [--scale=0.03125] [--csv=path]
#include <chrono>
#include <iostream>

#include "harness/apps.h"
#include "profile/setassoc_profiler.h"
#include "profile/ws_profiler.h"
#include "util/cli.h"
#include "util/table.h"

using namespace cachesched;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.015625);
  const std::string csv = args.get("csv", "");

  const CmpConfig cfg = default_config(8).scaled(scale);
  AppOptions opt;
  opt.scale = scale;
  opt.mergesort_task_ws =
      std::max<uint64_t>(static_cast<uint64_t>(64.0 * 1024 * scale), 2048);
  const Workload w = make_app("mergesort", cfg, opt);
  std::vector<uint64_t> sizes = {cfg.l2_bytes / 8, cfg.l2_bytes / 4,
                                 cfg.l2_bytes / 2, cfg.l2_bytes};

  std::cout << "Profiling " << w.dag.num_tasks() << " tasks, "
            << w.dag.num_groups() << " task groups, " << w.dag.total_refs()
            << " references, " << sizes.size() << " cache sizes ("
            << w.params << ")\n";

  // --- LruTree: one pass + queries for every group at every size.
  auto t0 = std::chrono::steady_clock::now();
  WorkingSetProfiler lru(sizes, cfg.line_bytes);
  lru.run(w.dag);
  std::vector<std::vector<uint64_t>> lru_misses(w.dag.num_groups());
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    const TaskGroup& grp = w.dag.group(g);
    for (size_t s = 0; s < sizes.size(); ++s) {
      lru_misses[g].push_back(
          lru.group_misses(grp.first_task, grp.last_task, s));
    }
  }
  const double lru_sec = seconds_since(t0);

  // --- SetAssoc (fully associative so results are directly comparable):
  // one cold replay per (group, size).
  t0 = std::chrono::steady_clock::now();
  SetAssocProfiler sa(cfg.line_bytes);
  const auto sa_misses = sa.profile_all_groups(w.dag, sizes);
  const double sa_sec = seconds_since(t0);

  uint64_t mismatches = 0;
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    for (size_t s = 0; s < sizes.size(); ++s) {
      if (lru_misses[g][s] != sa_misses[g][s]) ++mismatches;
    }
  }

  Table t({"algorithm", "passes_over_trace", "seconds", "speedup"});
  double revisit = 0;
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    const TaskGroup& grp = w.dag.group(g);
    revisit += static_cast<double>(
        lru.group_refs(grp.first_task, grp.last_task));
  }
  revisit = revisit * static_cast<double>(sizes.size()) /
            static_cast<double>(w.dag.total_refs());
  t.add_row({"SetAssoc (paper baseline)", Table::num(revisit, 1),
             Table::num(sa_sec, 2), "1.0"});
  t.add_row({"LruTree (one-pass)", "1.0", Table::num(lru_sec, 2),
             Table::num(sa_sec / lru_sec, 1)});
  std::cout << "\n=== Section 6.1: working-set profiler comparison ===\n";
  t.emit(csv);
  std::cout << "result agreement: "
            << (mismatches == 0 ? "exact (0 mismatching group/size cells)"
                                : Table::num(static_cast<int64_t>(mismatches)) +
                                      " mismatching cells")
            << "\n";
  if (mismatches != 0) return 1;
  return args.check_unused();
}
