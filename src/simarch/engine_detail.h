// Engine internals: the packed event key and the tournament tree that
// picks the next event, the run-buffer op format, and the batched trace
// expansion that turns a task's PackedRef blocks into a flat op stream.
// The serial engine (engine.cc) runs the expansion per core between
// events; the invariant checker (check/invariants.cc) re-runs it for its
// trace spot-checks against the reference TraceCursor.
//
// Expansion is a pure function of the blocks and the cursor — it never
// looks at the caches or the clock — so the engine may run it ahead of
// the simulation. The emission order mirrors TraceCursor::next() exactly;
// tests/golden_sim_test.cc and tests/trace_test.cc pin it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/trace.h"

namespace cachesched::engine_detail {

/// One expanded trace operation in a core's run buffer: 16 bytes. `meta`
/// packs the per-reference instruction charge with the write flag; 0
/// marks a compute op (mem ops always charge at least one instruction).
struct BufOp {
  uint64_t v;     // kMem: line number; compute: instruction count
  uint32_t meta;  // kMem: instr_per_ref | (is_write ? kBufWrite : 0)
};
inline constexpr uint32_t kBufWrite = 1u << 31;

/// Ops buffered per core between refills. Large enough to amortize the
/// per-block setup of a refill over many references, small enough to stay
/// in the host L1 (2 KB per core).
inline constexpr int kBufOps = 128;

/// Packed (time, core) event key: time-major with the core id as the tie
/// break, comparable as one integer. Cycle counts stay far below 2^58, so
/// the id bits never change the time order.
inline uint64_t evt_key(uint64_t time, int c) {
  return (time << 5) | static_cast<uint32_t>(c);
}

/// The two smallest event keys over all cores, maintained incrementally:
/// a tournament tree whose leaves are the cores (padded with idle
/// UINT64_MAX leaves to a power of two >= 2) and whose every node holds
/// the smallest and second-smallest key of its subtree as one adjacent
/// pair. set() replays one leaf-to-root path — log2 of the leaf count
/// branch-free merges — and first()/second() read the root.
class EventTree {
 public:
  explicit EventTree(int cores)
      : leaves_(std::bit_ceil(static_cast<unsigned>(std::max(cores, 2)))),
        node_(2 * leaves_, Pair{UINT64_MAX, UINT64_MAX}) {}

  /// Core c's pending event key (UINT64_MAX = idle).
  void set(int c, uint64_t key) {
    unsigned i = leaves_ + static_cast<unsigned>(c);
    Pair p{key, UINT64_MAX};
    node_[i] = p;
    for (; i > 1; i >>= 1) {
      const Pair& s = node_[i ^ 1];
      // lo = min(a1, b1); second = min(max(a1, b1), min(a2, b2)).
      const uint64_t hi1 = p.lo > s.lo ? p.lo : s.lo;
      const uint64_t lo2 = p.second < s.second ? p.second : s.second;
      p.lo = p.lo < s.lo ? p.lo : s.lo;
      p.second = hi1 < lo2 ? hi1 : lo2;
      node_[i >> 1] = p;
    }
  }

  /// Smallest key over all cores.
  uint64_t first() const { return node_[1].lo; }
  /// Second-smallest key over all cores (UINT64_MAX if < 2 are pending).
  uint64_t second() const { return node_[1].second; }

 private:
  struct alignas(16) Pair {
    uint64_t lo;
    uint64_t second;
  };
  unsigned leaves_;
  std::vector<Pair> node_;  // heap order: root 1, leaves [leaves_, 2*leaves_)
};

/// Batched trace expansion over one task's PackedRef blocks. The cursor
/// (bi, ri, em) is resumable at any point; per-block constants (the
/// interleave streams' schedule products, the kRandom reciprocal) are set
/// up once per call and amortized over the batch.
struct TraceExpander {
  const InterleaveSide* inter;  // dag.interleave_data()
  int line_shift;

  /// Expands up to `cap` ops from (blocks, nb) at cursor (bi, ri, em)
  /// into `buf`, advancing the cursor; returns the number of ops emitted
  /// (0 = trace exhausted; zero-emission blocks never end a batch early).
  int expand(const PackedRef* blocks, uint32_t nb, uint32_t& bi_io,
             uint32_t& ri_io, uint32_t em[3], BufOp* buf, int cap) const {
    int len = 0;
    uint32_t bi = bi_io;
    uint32_t ri = ri_io;
    while (len < cap && bi < nb) {
      const PackedRef& b = blocks[bi];
      switch (b.kind()) {
        case RefKind::kCompute:
          ++bi;
          ri = 0;
          if (b.instr() != 0) buf[len++] = BufOp{b.instr(), 0};
          break;
        case RefKind::kStride: {
          const uint64_t base = b.base();
          const int64_t stride = b.stride();
          const uint32_t mw =
              b.instr_per_ref() | (b.is_write() ? kBufWrite : 0u);
          uint32_t i = ri;
          const uint32_t end =
              std::min(b.count, i + static_cast<uint32_t>(cap - len));
          for (; i < end; ++i) {
            const uint64_t addr =
                base + static_cast<uint64_t>(static_cast<int64_t>(i) * stride);
            buf[len++] = BufOp{addr >> line_shift, mw};
          }
          if (i == b.count) {
            ++bi;
            ri = 0;
          } else {
            ri = i;
          }
          break;
        }
        case RefKind::kRandom: {
          const uint64_t base = b.base();
          const uint64_t seed = b.seed();
          const uint64_t region = b.region_len();
          const uint32_t mw =
              b.instr_per_ref() | (b.is_write() ? kBufWrite : 0u);
          // h % region with the division strength-reduced to a multiply:
          // with magic = floor(2^64/region), q = mulhi(h, magic) is either
          // floor(h/region) or one less (h*magic/2^64 > h/region - 1 since
          // h < 2^64), so one conditional subtract makes the remainder
          // exact for every h.
          const uint64_t magic =
              region > 1 ? static_cast<uint64_t>(
                               (static_cast<unsigned __int128>(1) << 64) /
                               region)
                         : 0;
          uint32_t i = ri;
          const uint32_t end =
              std::min(b.count, i + static_cast<uint32_t>(cap - len));
          for (; i < end; ++i) {
            uint64_t rem = 0;
            if (region > 1) {
              const uint64_t h = mix64(seed + i);
              const uint64_t q = static_cast<uint64_t>(
                  (static_cast<unsigned __int128>(h) * magic) >> 64);
              rem = h - q * region;
              if (rem >= region) rem -= region;
            }
            buf[len++] = BufOp{(base + rem) >> line_shift, mw};
          }
          if (i == b.count) {
            ++bi;
            ri = 0;
          } else {
            ri = i;
          }
          break;
        }
        case RefKind::kInterleave: {
          // TraceCursor::next()'s proportional schedule as exact uint64
          // products of uint32 factors: stream s is due when
          // prog_s = (i+1)*lines_s >= goal_s = (em_s+1)*n. Pick the first
          // due stream, else (floor rounding gap) the first unfinished
          // one. The loop always spans all kMaxStreams slots; unused and
          // empty slots have lines == 0, so they are never due and never
          // unfinished, and are never picked.
          const InterleaveSide& sd = inter[b.side_index()];
          const uint32_t n = b.count;
          const uint32_t ipr = b.instr_per_ref();
          const uint32_t lb = sd.line_bytes;
          uint32_t i = ri;
          const uint32_t end =
              std::min(n, i + static_cast<uint32_t>(cap - len));
          uint32_t lines[kMaxStreams];
          uint32_t mw[kMaxStreams];
          uint64_t prog[kMaxStreams];
          uint64_t goal[kMaxStreams];
          uint64_t addr[kMaxStreams];
          for (int s = 0; s < kMaxStreams; ++s) {
            const StreamRef& r = sd.streams[s];
            lines[s] = r.lines;
            mw[s] = ipr | (r.is_write ? kBufWrite : 0u);
            prog[s] = (uint64_t{i} + 1) * r.lines;
            goal[s] = (uint64_t{em[s]} + 1) * n;
            addr[s] = r.base + uint64_t{em[s]} * lb;
          }
          for (; i < end; ++i) {
            int s;
            if (prog[0] >= goal[0]) {
              s = 0;
            } else if (prog[1] >= goal[1]) {
              s = 1;
            } else if (prog[2] >= goal[2]) {
              s = 2;
            } else if (em[0] < lines[0]) {
              s = 0;
            } else if (em[1] < lines[1]) {
              s = 1;
            } else {
              s = 2;
            }
            buf[len++] = BufOp{addr[s] >> line_shift, mw[s]};
            ++em[s];
            goal[s] += n;
            addr[s] += lb;
            prog[0] += lines[0];
            prog[1] += lines[1];
            prog[2] += lines[2];
          }
          if (i == n) {
            ++bi;
            ri = 0;
            em[0] = em[1] = em[2] = 0;
          } else {
            ri = i;
          }
          break;
        }
      }
    }
    bi_io = bi;
    ri_io = ri;
    return len;
  }
};

}  // namespace cachesched::engine_detail
