// Standalone layer probes of the traced run: the caches and the schedulers
// driven through their public interfaces alone, outside the engine loop,
// plus the simulated counts the engine reports.
#include <bit>
#include <deque>
#include <stdexcept>
#include <vector>

#include "bench.h"
#include "core/dag.h"
#include "sched/registry.h"
#include "simarch/cache.h"

namespace perfbench {

using namespace cachesched;

std::vector<ZooEntry> scheduler_zoo(uint64_t seed) {
  return {{"pdf", "pdf"},
          {"ws", "ws"},
          {"ws_rand_half",
           "ws:victims=rand,steal=half,seed=" + std::to_string(seed)},
          {"aff_half", "aff:steal=half"},
          {"prio_depth", "prio:key=depth"},
          {"cfb", "cfb"},
          {"fifo", "fifo"}};
}

void probe_caches(const TaskDag& dag, const CmpConfig& cfg, uint64_t max_refs,
                  Tracer& tr, CacheProbe* acc) {
  // Expand the line stream first (untimed) so the timed loops do cache
  // work only.
  const int shift = std::countr_zero(static_cast<unsigned>(cfg.line_bytes));
  std::vector<uint64_t> stream;  // line << 1 | is_write
  for (TaskId t = 0; t < dag.num_tasks() && stream.size() < max_refs; ++t) {
    TraceCursor cur = dag.cursor(t);
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      if (op.kind != TraceOp::kMem) continue;
      stream.push_back((op.addr >> shift) << 1 | (op.is_write ? 1 : 0));
      if (stream.size() >= max_refs) break;
    }
  }

  std::vector<uint64_t> misses;
  misses.reserve(stream.size() / 4);
  SetAssocCache l1(static_cast<uint64_t>(cfg.l1_sets()), cfg.l1_ways);
  {
    SpanScope s(&tr, "cache.l1");
    const double t0 = wall_s();
    for (uint64_t x : stream) {
      SetAssocCache::Line* e = l1.access(x >> 1);
      if (e) {
        e->dirty |= (x & 1) != 0;
      } else {
        l1.install(x >> 1, (x & 1) != 0, nullptr);
        misses.push_back(x);
      }
    }
    acc->l1_s += wall_s() - t0;
  }
  acc->l1_accesses += stream.size();

  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  {
    SpanScope s(&tr, "cache.l2");
    const double t0 = wall_s();
    SetAssocCache::Line* e;
    SetAssocCache::Evicted ev;
    for (uint64_t x : misses) {
      l2.access_or_install(x >> 1, (x & 1) != 0, &e, &ev);
    }
    acc->l2_s += wall_s() - t0;
  }
  acc->l2_accesses += misses.size();
}

namespace {

/// Seconds to drive `dag` to completion under `spec`.
double drive_scheduler(const TaskDag& dag, const CmpConfig& cfg,
                       const std::string& spec) {
  auto sched = make_scheduler(spec);
  SchedContext ctx(cfg.cores);
  ctx.l1_bytes = cfg.l1_bytes;
  ctx.l2_bytes = cfg.l2_bytes;
  ctx.line_bytes = cfg.line_bytes;
  ctx.l2_banks = cfg.l2_banks;

  const size_t n = dag.num_tasks();
  std::vector<uint32_t> pending(n);
  for (TaskId t = 0; t < n; ++t) pending[t] = dag.task(t).num_parents;
  std::vector<TaskId> ready;
  std::deque<std::pair<int, TaskId>> running;  // completes in FIFO order
  std::vector<char> idle(cfg.cores, 1);
  size_t done = 0;

  const double t0 = wall_s();
  sched->reset(dag, ctx);
  sched->enqueue_ready(0, dag.roots());
  for (;;) {
    for (int c = 0; c < cfg.cores; ++c) {
      if (!idle[c]) continue;
      const TaskId t = sched->acquire(c);
      if (t == kNoTask) continue;
      idle[c] = 0;
      running.emplace_back(c, t);
    }
    if (running.empty()) break;
    const auto [c, t] = running.front();
    running.pop_front();
    sched->on_complete(c, t);
    ready.clear();
    for (TaskId ch : dag.children(t)) {
      if (--pending[ch] == 0) ready.push_back(ch);
    }
    sched->enqueue_ready(c, ready);
    idle[c] = 1;
    ++done;
  }
  const double elapsed = wall_s() - t0;
  if (done != n) {
    throw std::runtime_error("scheduler " + spec + " stranded " +
                             std::to_string(n - done) + " tasks");
  }
  return elapsed;
}

}  // namespace

void probe_schedulers(const std::vector<const TaskDag*>& dags,
                      const CmpConfig& cfg, uint64_t seed, uint64_t min_tasks,
                      Tracer& tr, Metrics& out) {
  for (const ZooEntry& z : scheduler_zoo(seed)) {
    SpanScope s(&tr, "sched.drive");
    double secs = 0;
    uint64_t tasks = 0;
    while (tasks < min_tasks) {
      for (const TaskDag* d : dags) {
        secs += drive_scheduler(*d, cfg, z.spec);
        tasks += d->num_tasks();
      }
    }
    out.set("sched." + z.key + ".dispatch_ns", secs * 1e9 / tasks, "ns");
  }
}

void simulated_counts(const std::vector<SimResult>& results, Metrics& out) {
  uint64_t l1 = 0, l2h = 0, l2m = 0, wb = 0, inv = 0, stall = 0, queue = 0,
           busy = 0, cycles = 0, instr = 0, steals = 0;
  double util = 0;
  for (const SimResult& r : results) {
    l1 += r.l1_hits;
    l2h += r.l2_hits;
    l2m += r.l2_misses;
    wb += r.writebacks;
    inv += r.invalidations;
    stall += r.mem_stall_cycles;
    queue += r.mem_queue_cycles;
    busy += r.mem_busy_cycles;
    cycles += r.cycles;
    instr += r.instructions;
    steals += r.steals;
    util += r.core_utilization();
  }
  const auto d = [](uint64_t x) { return static_cast<double>(x); };
  out.set("l1.hits", d(l1), "count");
  out.set("l2.hits", d(l2h), "count");
  out.set("l2.misses", d(l2m), "count");
  out.set("l2.misses_per_kinstr", instr ? 1000.0 * d(l2m) / d(instr) : 0,
          "1/kinstr");
  out.set("l2.writebacks", d(wb), "count");
  out.set("l1.invalidations", d(inv), "count");
  out.set("mem.stall_cycles", d(stall), "cycles");
  out.set("mem.queue_cycles", d(queue), "cycles");
  out.set("mem.busy_util", cycles ? d(busy) / d(cycles) : 0, "ratio");
  out.set("sim.cycles", d(cycles), "cycles");
  out.set("sim.core_util", results.empty() ? 0 : util / results.size(),
          "ratio");
  out.set("sched.steals", d(steals), "count");
}

}  // namespace perfbench
