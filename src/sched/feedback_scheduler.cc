#include "sched/feedback_scheduler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/registry.h"

namespace cachesched {
namespace {

/// Counts each task's distinct line numbers in one pass over its trace: an
/// open-addressed set with linear probing. Every slot holds a line and the
/// stamp (task id + 1) of the task that inserted it, and a slot stamped by
/// any other task reads as empty, so nothing is cleared between tasks.
/// The table is reused across tasks and doubles when half full, so its
/// size follows the largest task's distinct lines, not its refs.
class DistinctLines {
 public:
  uint64_t count(TraceCursor cur, int line_shift, TaskId t) {
    const uint32_t stamp = t + 1;
    uint64_t distinct = 0;
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      if (op.kind != TraceOp::kMem) continue;
      const uint64_t line = op.addr >> line_shift;
      Slot* s = find(line, stamp);
      if (s->stamp == stamp) continue;  // seen earlier in this task
      *s = {line, stamp};
      if (++distinct * 2 > slots_.size()) grow(stamp);
    }
    return distinct;
  }

 private:
  struct Slot {
    uint64_t line = 0;
    uint32_t stamp = 0;  // 0: never used; no task has stamp 0
  };

  /// The slot holding `line` for this stamp, or the empty slot where it
  /// goes.
  Slot* find(uint64_t line, uint32_t stamp) {
    const size_t mask = slots_.size() - 1;
    size_t i = (line * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[i].stamp == stamp && slots_[i].line != line) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }

  /// Doubles the table, keeping only the current task's lines.
  void grow(uint32_t stamp) {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.stamp == stamp) *find(s.line, stamp) = s;
    }
  }

  static constexpr int kInitialLog2 = 10;  // 1024 slots, 16 KB
  std::vector<Slot> slots_ = std::vector<Slot>(size_t{1} << kInitialLog2);
  int shift_ = 64 - kInitialLog2;  // hash's top log2(slots) bits
};

}  // namespace

void FeedbackScheduler::reset(const TaskDag& dag, const SchedContext& ctx) {
  heap_ = {};
  live_bytes_ = 0;
  running_ = 0;
  budget_bytes_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(opt_.budget *
                               static_cast<double>(ctx.l2_bytes)));
  const uint64_t line_bytes = static_cast<uint64_t>(ctx.line_bytes);
  const int line_shift = std::countr_zero(line_bytes);
  DistinctLines lines;
  const size_t n = dag.num_tasks();
  task_ws_.assign(n, 0);
  for (TaskId t = 0; t < n; ++t) {
    task_ws_[t] = lines.count(dag.cursor(t), line_shift, t) * line_bytes;
  }
}

void FeedbackScheduler::enqueue_ready(int core, std::span<const TaskId> ready) {
  (void)core;
  for (TaskId t : ready) heap_.push(t);
}

TaskId FeedbackScheduler::acquire(int core) {
  (void)core;
  if (heap_.empty()) return kNoTask;
  const TaskId t = heap_.top();
  if (running_ > 0 && live_bytes_ + task_ws_[t] > budget_bytes_) {
    return kNoTask;  // throttled until a completion retires footprint
  }
  heap_.pop();
  live_bytes_ += task_ws_[t];
  ++running_;
  return t;
}

void FeedbackScheduler::on_complete(int core, TaskId t) {
  (void)core;
  live_bytes_ -= task_ws_[t];
  --running_;
}

namespace {

std::unique_ptr<Scheduler> make_cfb(const SchedSpec& spec) {
  SchedParams p(spec, {"budget"});
  FeedbackScheduler::Options opt;
  opt.budget = p.get_frac("budget", 1.0, 0.001, 64.0);
  return std::make_unique<FeedbackScheduler>(opt, spec.str());
}

}  // namespace

CACHESCHED_REGISTER_SCHEDULER_SPEC(
    "cfb", cfb, make_cfb,
    {{"budget", "1.0", "live working-set cap as a fraction of L2 bytes"}})

}  // namespace cachesched
