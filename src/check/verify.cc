#include "check/verify.h"

#include <string>
#include <utility>

namespace cachesched {
namespace check {
namespace {

std::string num_diff(const char* name, uint64_t e, uint64_t a) {
  return std::string(name) + ": expected " + std::to_string(e) +
         ", actual " + std::to_string(a);
}

template <class T>
std::string vec_diff(const char* name, const std::vector<T>& e,
                     const std::vector<T>& a) {
  if (e.size() != a.size()) {
    return std::string(name) + ".size: expected " + std::to_string(e.size()) +
           ", actual " + std::to_string(a.size());
  }
  for (size_t i = 0; i < e.size(); ++i) {
    if (e[i] != a[i]) {
      return std::string(name) + "[" + std::to_string(i) + "]: expected " +
             std::to_string(e[i]) + ", actual " + std::to_string(a[i]);
    }
  }
  return "";
}

}  // namespace

std::string diff_sim_results(const SimResult& e, const SimResult& a) {
  if (e.scheduler != a.scheduler) {
    return "scheduler: expected \"" + e.scheduler + "\", actual \"" +
           a.scheduler + "\"";
  }
  if (e.config != a.config) {
    return "config: expected \"" + e.config + "\", actual \"" + a.config +
           "\"";
  }
  if (e.cores != a.cores) {
    return num_diff("cores", static_cast<uint64_t>(e.cores),
                    static_cast<uint64_t>(a.cores));
  }
  const std::pair<const char*, std::pair<uint64_t, uint64_t>> scalars[] = {
      {"cycles", {e.cycles, a.cycles}},
      {"instructions", {e.instructions, a.instructions}},
      {"tasks_executed", {e.tasks_executed, a.tasks_executed}},
      {"l1_hits", {e.l1_hits, a.l1_hits}},
      {"l2_hits", {e.l2_hits, a.l2_hits}},
      {"l2_misses", {e.l2_misses, a.l2_misses}},
      {"writebacks", {e.writebacks, a.writebacks}},
      {"invalidations", {e.invalidations, a.invalidations}},
      {"mem_stall_cycles", {e.mem_stall_cycles, a.mem_stall_cycles}},
      {"mem_queue_cycles", {e.mem_queue_cycles, a.mem_queue_cycles}},
      {"mem_busy_cycles", {e.mem_busy_cycles, a.mem_busy_cycles}},
      {"steals", {e.steals, a.steals}},
  };
  for (const auto& [name, v] : scalars) {
    if (v.first != v.second) return num_diff(name, v.first, v.second);
  }
  if (auto d = vec_diff("core_busy_cycles", e.core_busy_cycles,
                        a.core_busy_cycles);
      !d.empty()) {
    return d;
  }
  if (auto d = vec_diff("task_l2_misses", e.task_l2_misses, a.task_l2_misses);
      !d.empty()) {
    return d;
  }
  if (auto d = vec_diff("task_refs", e.task_refs, a.task_refs); !d.empty()) {
    return d;
  }
  return "";
}

}  // namespace check
}  // namespace cachesched
