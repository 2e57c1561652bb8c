#include "check/invariants.h"

#include <bit>
#include <string>

namespace cachesched {
namespace check {

namespace {

std::string hx(uint64_t v) { return std::to_string(v); }

// A packed event key as "core C @ cycle T" ("none" for UINT64_MAX).
std::string key_str(uint64_t key) {
  if (key == UINT64_MAX) return "none";
  return "core " + std::to_string(key & 31) + " @ cycle " +
         std::to_string(key >> 5);
}

}  // namespace

CheckViolation::CheckViolation(std::string checker, std::string detail,
                               uint64_t op_index)
    : std::runtime_error("check violation [" + checker + "] at op " +
                         std::to_string(op_index) + ": " + detail),
      checker_(std::move(checker)),
      detail_(std::move(detail)),
      op_index_(op_index) {}

void Checker::violate(const char* checker, std::string detail) const {
  throw CheckViolation(checker, std::move(detail), stats_.refs);
}

void Checker::on_run_start(const CmpConfig& cfg, const TaskDag* dag,
                           const std::vector<SetAssocCache>* l1_live,
                           const SetAssocCache* l2_live) {
  cfg_ = &cfg;
  dag_ = dag;
  l1_live_ = l1_live;
  l2_live_ = l2_live;
  line_shift_ = std::countr_zero(static_cast<unsigned>(cfg.line_bytes));
  shadow_on_ = spec_.shadow();
  sl1_.clear();
  if (shadow_on_) {
    sl1_.reserve(static_cast<size_t>(cfg.cores));
    for (int c = 0; c < cfg.cores; ++c) {
      sl1_.emplace_back(static_cast<uint64_t>(cfg.l1_sets()), cfg.l1_ways);
    }
    sl2_ = ShadowCache(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  }
  pending_.clear();
  if ((spec_.sched || spec_.trace) && dag != nullptr) {
    const size_t n = dag->num_tasks();
    indeg_.assign(n, 0);
    tstate_.assign(n, kPending);
    for (size_t t = 0; t < n; ++t) {
      indeg_[t] = dag->task(static_cast<TaskId>(t)).num_parents;
    }
  }
  dispatched_ = 0;
  completed_tasks_ = 0;
  dispatch_count_ = 0;
}

void Checker::flush_pending(const char* context) {
  if (pending_.empty()) return;
  const PendingInv p = pending_.front();
  violate("coherence",
          "dropped invalidation: core " + std::to_string(p.core) +
              "'s L1 copy of line " + hx(p.line) +
              " was never invalidated (noticed at " + context + ")");
}

void Checker::bump_ref() {
  ++stats_.refs;
  if (spec_.period != 0 && stats_.refs % spec_.period == 0) audit_now();
}

void Checker::on_l1_hit(int core, uint64_t line, bool write) {
  flush_pending("the next L1 hit");
  if (shadow_on_) {
    ShadowCache::Way* w = sl1_[static_cast<size_t>(core)].touch(line);
    if (w == nullptr) {
      violate("coherence", "core " + std::to_string(core) +
                               " took an L1 hit on line " + hx(line) +
                               " which the shadow L1 does not hold");
    }
    w->dirty |= write;
  }
  bump_ref();
}

void Checker::on_l2_hit(int core, uint64_t line, bool write) {
  flush_pending("the next L2 access");
  if (!shadow_on_) return;
  ShadowCache::Way* w = sl2_.touch(line);
  if (w == nullptr) {
    violate("coherence", "L2 hit on line " + hx(line) +
                             " which the shadow L2 does not hold");
  }
  const uint32_t mybit = 1u << core;
  if (write) {
    uint32_t others = w->presence & ~mybit;
    while (others != 0) {
      const int i = std::countr_zero(others);
      others &= others - 1;
      pending_.push_back(PendingInv{i, line});
    }
    w->presence &= mybit;
    w->dirty = true;
  }
  w->presence |= mybit;
}

void Checker::on_inval(int core, uint64_t line) {
  if (!shadow_on_) return;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].core == core && pending_[i].line == line) {
      pending_.erase(pending_.begin() + static_cast<long>(i));
      if (!sl1_[static_cast<size_t>(core)].erase(line)) {
        violate("coherence",
                "invalidation of line " + hx(line) + " in core " +
                    std::to_string(core) +
                    "'s L1, but the shadow L1 holds no copy (stale L2 "
                    "presence bit)");
      }
      return;
    }
  }
  violate("coherence",
          "unexpected invalidation: line " + hx(line) + " in core " +
              std::to_string(core) +
              "'s L1 was invalidated but the shadow presence mask did not "
              "name that copy");
}

void Checker::on_l2_miss(int core, uint64_t line, bool write,
                         const SetAssocCache::Evicted& evicted) {
  flush_pending("the next L2 access");
  if (!shadow_on_) return;
  if (sl2_.find(line) != nullptr) {
    violate("coherence", "L2 miss on line " + hx(line) +
                             " which the shadow L2 holds (lost hit)");
  }
  const ShadowCache::Evict sev = sl2_.install(line, write, 1u << core);
  if (sev.valid != evicted.valid) {
    violate("lru", "L2 fill of line " + hx(line) + " evicted " +
                       (evicted.valid ? "a victim" : "nothing") +
                       " but the reference model evicted " +
                       (sev.valid ? "one" : "nothing") + " (set " +
                       hx(sl2_.set_of(line)) + ")");
  }
  if (sev.valid) {
    if (sev.way.line != evicted.line) {
      violate("lru", "L2 set " + hx(sl2_.set_of(line)) + " evicted line " +
                         hx(evicted.line) + " but the true-LRU victim is " +
                         hx(sev.way.line));
    }
    if (sev.way.dirty != evicted.dirty) {
      violate("coherence", "dirty-bit mismatch on evicted L2 line " +
                               hx(evicted.line) + ": real " +
                               std::to_string(evicted.dirty) + ", shadow " +
                               std::to_string(sev.way.dirty));
    }
    if (sev.way.presence != evicted.presence) {
      violate("coherence", "presence-mask mismatch on evicted L2 line " +
                               hx(evicted.line) + ": real " +
                               std::to_string(evicted.presence) + ", shadow " +
                               std::to_string(sev.way.presence));
    }
  }
}

void Checker::on_l1_fill(int core, uint64_t line, bool write, bool victim_valid,
                         uint64_t victim_line, bool victim_dirty) {
  flush_pending("the next L1 fill");
  if (shadow_on_) {
    ShadowCache& l1 = sl1_[static_cast<size_t>(core)];
    if (l1.find(line) != nullptr) {
      violate("coherence", "core " + std::to_string(core) +
                               " L1 fill of line " + hx(line) +
                               " which the shadow L1 already holds "
                               "(missed hit)");
    }
    const ShadowCache::Evict sev = l1.install(line, write, 0);
    if (sev.valid != victim_valid) {
      violate("lru", "core " + std::to_string(core) + " L1 fill of line " +
                         hx(line) + " evicted " +
                         (victim_valid ? "a victim" : "nothing") +
                         " but the reference model evicted " +
                         (sev.valid ? "one" : "nothing") + " (set " +
                         hx(l1.set_of(line)) + ")");
    }
    if (sev.valid) {
      if (sev.way.line != victim_line) {
        violate("lru", "core " + std::to_string(core) + " L1 set " +
                           hx(l1.set_of(line)) + " evicted line " +
                           hx(victim_line) + " but the true-LRU victim is " +
                           hx(sev.way.line));
      }
      if (sev.way.dirty != victim_dirty) {
        violate("coherence", "dirty-bit mismatch on core " +
                                 std::to_string(core) + "'s evicted L1 line " +
                                 hx(victim_line) + ": real " +
                                 std::to_string(victim_dirty) + ", shadow " +
                                 std::to_string(sev.way.dirty));
      }
      // Mirror the engine's inclusion bookkeeping: the victim's L2 entry
      // (if the non-inclusive L2 still holds it) drops this core's
      // presence bit and absorbs the victim's dirty bit.
      if (ShadowCache::Way* l2w = sl2_.find(sev.way.line)) {
        l2w->presence &= ~(1u << core);
        l2w->dirty |= sev.way.dirty;
      }
    }
  }
  bump_ref();
}

void Checker::on_dispatch(int core, TaskId t) {
  (void)core;
  if (spec_.sched) {
    if (static_cast<size_t>(t) >= tstate_.size()) {
      violate("sched", "dispatch of out-of-range task " + std::to_string(t));
    }
    if (tstate_[t] == kDispatched) {
      violate("sched", "task " + std::to_string(t) + " dispatched twice");
    }
    if (tstate_[t] == kCompleted) {
      violate("sched",
              "task " + std::to_string(t) + " dispatched after completing");
    }
    if (indeg_[t] != 0) {
      violate("sched", "task " + std::to_string(t) + " dispatched with " +
                           std::to_string(indeg_[t]) +
                           " dependencies incomplete");
    }
    tstate_[t] = kDispatched;
    ++dispatched_;
  }
  if (spec_.trace && dag_ != nullptr) {
    if (spec_.period != 0 && dispatch_count_++ % spec_.period == 0) {
      spot_check_trace(t);
    }
  }
}

void Checker::on_complete(int core, TaskId t) {
  (void)core;
  if (!spec_.sched) return;
  if (static_cast<size_t>(t) >= tstate_.size()) {
    violate("sched", "completion of out-of-range task " + std::to_string(t));
  }
  if (tstate_[t] == kCompleted) {
    violate("sched",
            "task " + std::to_string(t) + " completed twice (double-complete)");
  }
  if (tstate_[t] != kDispatched) {
    violate("sched", "task " + std::to_string(t) +
                         " completed without being dispatched");
  }
  tstate_[t] = kCompleted;
  ++completed_tasks_;
  for (TaskId ch : dag_->children(t)) {
    if (indeg_[ch] == 0) {
      violate("sched", "ready-set accounting underflow: child task " +
                           std::to_string(ch) +
                           " had no open dependencies before parent " +
                           std::to_string(t) + " completed");
    }
    --indeg_[ch];
  }
}

void Checker::on_pick(std::span<const uint64_t> keys, uint64_t k1,
                      uint64_t k2) {
  if (!spec_.sched) return;
  ++stats_.picks;
  uint64_t first = UINT64_MAX;
  uint64_t second = UINT64_MAX;
  for (const uint64_t key : keys) {
    if (key < first) {
      second = first;
      first = key;
    } else if (key < second) {
      second = key;
    }
  }
  if (k1 != first || k2 != second) {
    violate("sched", "event pick (" + key_str(k1) + ", next " + key_str(k2) +
                         ") but the core keys' two smallest are (" +
                         key_str(first) + ", next " + key_str(second) + ")");
  }
}

void Checker::on_run_end() {
  flush_pending("run end");
  if (spec_.sched && dag_ != nullptr) {
    if (completed_tasks_ != dag_->num_tasks()) {
      violate("sched", "run ended with " + std::to_string(completed_tasks_) +
                           " of " + std::to_string(dag_->num_tasks()) +
                           " tasks completed");
    }
    if (dispatched_ != completed_tasks_) {
      violate("sched", "run ended with " + std::to_string(dispatched_) +
                           " dispatches but " +
                           std::to_string(completed_tasks_) + " completions");
    }
  }
  if (shadow_on_) audit_now();
}

void Checker::audit_now() {
  if (!shadow_on_ || l2_live_ == nullptr) return;
  ++stats_.audits;
  audit_cache(*l2_live_, sl2_, /*with_presence=*/true, "L2");
  if (l1_live_ != nullptr) {
    for (size_t c = 0; c < sl1_.size(); ++c) {
      audit_cache((*l1_live_)[c], sl1_[c], /*with_presence=*/false,
                  "core " + std::to_string(c) + " L1");
    }
  }
  if (spec_.coherence) audit_coherence();
}

void Checker::audit_cache(const SetAssocCache& real, const ShadowCache& shadow,
                          bool with_presence, const std::string& label) {
  const uint64_t num_sets = real.num_sets();
  const int ways = real.ways();
  const int set_shift = std::countr_zero(num_sets);
  for (uint64_t s = 0; s < num_sets; ++s) {
    const std::vector<ShadowCache::Way>& sh = shadow.set_list(s);
    const uint32_t vc = real.valid_count(s);
    if (vc != sh.size()) {
      violate("coherence", label + " set " + hx(s) + " valid count " +
                               std::to_string(vc) + " != shadow " +
                               std::to_string(sh.size()));
    }
    uint32_t tagged = 0;
    for (int w = 0; w < ways; ++w) {
      const SetAssocCache::Line& ln = real.line_at(s, w);
      if (ln.tag == SetAssocCache::kInvalidTag) continue;
      ++tagged;
      if ((ln.tag & (num_sets - 1)) != s) {
        violate("coherence", label + " set " + hx(s) + " way " +
                                 std::to_string(w) + " holds line " +
                                 hx(ln.tag) + " which maps to set " +
                                 hx(ln.tag & (num_sets - 1)));
      }
      const ShadowCache::Way* sw = nullptr;
      for (const ShadowCache::Way& x : sh) {
        if (x.line == ln.tag) {
          sw = &x;
          break;
        }
      }
      if (sw == nullptr) {
        violate("coherence", label + " holds line " + hx(ln.tag) +
                                 " which the shadow model does not");
      }
      if (sw->dirty != ln.dirty) {
        violate("coherence", label + " line " + hx(ln.tag) +
                                 " dirty-bit mismatch: real " +
                                 std::to_string(ln.dirty) + ", shadow " +
                                 std::to_string(sw->dirty));
      }
      if (with_presence && sw->presence != ln.presence) {
        violate("coherence", label + " line " + hx(ln.tag) +
                                 " presence-mask mismatch: real " +
                                 std::to_string(ln.presence) + ", shadow " +
                                 std::to_string(sw->presence));
      }
      if (spec_.lru) {
        const uint8_t fp = real.stored_fingerprint(s, w);
        const uint8_t want = static_cast<uint8_t>(ln.tag >> set_shift);
        if (fp != want) {
          violate("lru", label + " set " + hx(s) + " way " +
                             std::to_string(w) + " fingerprint row holds " +
                             std::to_string(fp) + " but line " + hx(ln.tag) +
                             " files under " + std::to_string(want));
        }
      }
    }
    if (tagged != vc) {
      violate("coherence", label + " set " + hx(s) + " valid count " +
                               std::to_string(vc) + " != " +
                               std::to_string(tagged) + " tagged ways");
    }
    if (spec_.lru) {
      const std::vector<int> order = real.lru_order(s);
      if (order.size() != sh.size()) {
        violate("lru", label + " set " + hx(s) + " order-row prefix length " +
                           std::to_string(order.size()) + " != shadow " +
                           std::to_string(sh.size()));
      }
      std::vector<bool> seen(static_cast<size_t>(ways), false);
      for (size_t j = 0; j < order.size(); ++j) {
        const int w = order[j];
        if (w < 0 || w >= ways || seen[static_cast<size_t>(w)]) {
          violate("lru", label + " set " + hx(s) +
                             " order row is not a permutation (way " +
                             std::to_string(w) + " at rank " +
                             std::to_string(j) + ")");
        }
        seen[static_cast<size_t>(w)] = true;
        const SetAssocCache::Line& ln = real.line_at(s, w);
        if (ln.tag == SetAssocCache::kInvalidTag) {
          violate("lru", label + " set " + hx(s) +
                             " order row names invalid way " +
                             std::to_string(w) + " within the valid prefix");
        }
        if (ln.tag != sh[j].line) {
          violate("lru", label + " set " + hx(s) + " LRU order diverges at "
                             "rank " + std::to_string(j) + ": real line " +
                             hx(ln.tag) + ", reference model " +
                             hx(sh[j].line));
        }
      }
    }
  }
}

void Checker::audit_coherence() {
  for (uint64_t s = 0; s < sl2_.num_sets(); ++s) {
    for (const ShadowCache::Way& w : sl2_.set_list(s)) {
      uint32_t p = w.presence;
      while (p != 0) {
        const int c = std::countr_zero(p);
        p &= p - 1;
        if (static_cast<size_t>(c) >= sl1_.size() ||
            sl1_[static_cast<size_t>(c)].find(w.line) == nullptr) {
          violate("coherence", "L2 presence mask names core " +
                                   std::to_string(c) + " for line " +
                                   hx(w.line) +
                                   " but that L1 holds no copy");
        }
        if (l1_live_ != nullptr &&
            (*l1_live_)[static_cast<size_t>(c)].probe(w.line) == nullptr) {
          violate("coherence", "L2 presence mask names core " +
                                   std::to_string(c) + " for line " +
                                   hx(w.line) +
                                   " but the live L1 probe misses");
        }
      }
    }
  }
}

void Checker::spot_check_trace(TaskId t) {
  ++stats_.spot_checks;
  // Re-expand the sampled task from scratch through both expansions and
  // compare op streams. Bounded: a pathological single task cannot turn
  // one spot-check into a whole-trace replay.
  constexpr uint64_t kMaxOps = uint64_t{1} << 16;
  TraceCursor cursor = dag_->cursor(t);
  const engine_detail::TraceExpander ex{dag_->interleave_data(), line_shift_};
  const std::span<const PackedRef> blocks = dag_->blocks(t);
  uint32_t bi = 0;
  uint32_t ri = 0;
  uint32_t em[3] = {0, 0, 0};
  engine_detail::BufOp buf[engine_detail::kBufOps];
  uint64_t idx = 0;
  for (;;) {
    const int n =
        ex.expand(blocks.data(), static_cast<uint32_t>(blocks.size()), bi, ri,
                  em, buf, engine_detail::kBufOps);
    if (n == 0) break;
    compare_expansion(buf, n, cursor, line_shift_, idx);
    idx += static_cast<uint64_t>(n);
    if (idx >= kMaxOps) return;
  }
  if (cursor.next().kind != TraceOp::kDone) {
    throw CheckViolation(
        "trace",
        "task " + std::to_string(t) + ": batched expander exhausted after " +
            std::to_string(idx) +
            " ops but the reference cursor still has ops",
        idx);
  }
}

void Checker::compare_expansion(const engine_detail::BufOp* ops, int n,
                                TraceCursor& cursor, int line_shift,
                                uint64_t base_index) {
  for (int i = 0; i < n; ++i) {
    const engine_detail::BufOp& b = ops[i];
    const TraceOp op = cursor.next();
    const uint64_t idx = base_index + static_cast<uint64_t>(i);
    const auto die = [idx](const std::string& what) {
      throw CheckViolation("trace", "expansion op " + std::to_string(idx) +
                                        ": " + what,
                           idx);
    };
    if (op.kind == TraceOp::kDone) {
      die("batched expander emitted an op past the reference cursor's end");
    }
    if (b.meta == 0) {  // compute op
      if (op.kind != TraceOp::kCompute) {
        die("batched expander emitted a compute op; reference cursor "
            "emitted a memory op");
      }
      if (op.instr != b.v) {
        die("compute instruction mismatch: expander " + std::to_string(b.v) +
            ", cursor " + std::to_string(op.instr));
      }
      continue;
    }
    if (op.kind != TraceOp::kMem) {
      die("batched expander emitted a memory op; reference cursor emitted "
          "a compute op");
    }
    if ((op.addr >> line_shift) != b.v) {
      die("line mismatch: expander " + std::to_string(b.v) + ", cursor " +
          std::to_string(op.addr >> line_shift));
    }
    const uint32_t ipr = b.meta & ~engine_detail::kBufWrite;
    if (op.instr != ipr) {
      die("instr_per_ref mismatch: expander " + std::to_string(ipr) +
          ", cursor " + std::to_string(op.instr));
    }
    const bool wr = (b.meta & engine_detail::kBufWrite) != 0;
    if (wr != op.is_write) {
      die(std::string("write-flag mismatch: expander ") + (wr ? "W" : "R") +
          ", cursor " + (op.is_write ? "W" : "R"));
    }
  }
}

}  // namespace check
}  // namespace cachesched
