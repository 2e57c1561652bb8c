// The SetAssoc baseline profiler (paper §6.1): measures a task group's
// miss curve by replaying the group's trace through a cold-started
// fully-associative LRU cache, one replay per (group, cache size), exactly
// as the paper describes. Tedious by design: profiling a hierarchy of
// nested groups revisits each reference once per enclosing level, which is
// what the one-pass LruTree profiler (ws_profiler.h) eliminates.
// bench/table_profiler.cc reproduces the §6.1 runtime comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dag.h"

namespace cachesched {

class SetAssocProfiler {
 public:
  explicit SetAssocProfiler(uint32_t line_bytes) : line_bytes_(line_bytes) {}

  struct GroupStats {
    uint64_t refs = 0;
    uint64_t hits = 0;
    uint64_t misses() const { return refs - hits; }
  };

  /// Replays tasks [b, e] of `dag` from a cold cache of `cache_bytes`.
  GroupStats profile_group(const TaskDag& dag, TaskId b, TaskId e,
                           uint64_t cache_bytes) const;

  /// Profiles every group of `dag`'s group hierarchy at every size;
  /// returns misses[group][size]. This is the multi-pass workload the
  /// paper times against LruTree.
  std::vector<std::vector<uint64_t>> profile_all_groups(
      const TaskDag& dag, const std::vector<uint64_t>& cache_sizes) const;

 private:
  uint32_t line_bytes_;
};

}  // namespace cachesched
