// Engine internals: the run-buffer op format and the batched trace
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
#include <cstdint>

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

/// Batched trace expansion over one task's PackedRef blocks. The cursor
/// (bi, ri, em) is resumable at any point; per-block constants (stream
/// interleave error terms, the kRandom reciprocal) are set up once per
/// call and amortized over the batch.
struct TraceExpander {
  const InterleaveSide* inter;  // dag.interleave_data()
  const InterleaveFast* ifast;  // dag.interleave_fast()
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
          const uint32_t n = b.count;
          const uint32_t ipr = b.instr_per_ref();
          const InterleaveFast& f = ifast[b.side_index()];
          uint32_t i = ri;
          const uint32_t end =
              std::min(n, i + static_cast<uint32_t>(cap - len));
          if (f.kind != InterleaveFast::kGeneric) {
            const uint32_t mw[kMaxStreams] = {
                ipr | (f.write[0] ? kBufWrite : 0u),
                ipr | (f.write[1] ? kBufWrite : 0u),
                ipr | (f.write[2] ? kBufWrite : 0u)};
            if (i < end) {
              interleave_expand(f, n, i, end, em,
                                [&](uint64_t addr, int s) {
                                  buf[len++] = BufOp{addr >> line_shift, mw[s]};
                                });
              i = end;
            }
          } else {
            // Reference expansion for blocks whose error terms would not
            // fit int64 (>= 2^31 refs): the uint64 Bresenham products
            // prog_s = (i+1)*lines_s vs goal_s = (em_s+1)*n; "behind
            // target" is prog_s >= goal_s, prog gains lines_s per step
            // and goal gains n per emission (exact: uint32 factors).
            const InterleaveSide& sd = inter[b.side_index()];
            const int ns = static_cast<int>(sd.num_streams);
            const uint32_t lb = sd.line_bytes;
            uint64_t prog[kMaxStreams];
            uint64_t goal[kMaxStreams];
            uint64_t addr_next[kMaxStreams];
            for (int s = 0; s < ns; ++s) {
              prog[s] = (static_cast<uint64_t>(i) + 1) * sd.streams[s].lines;
              goal[s] = (static_cast<uint64_t>(em[s]) + 1) * n;
              addr_next[s] =
                  sd.streams[s].base + static_cast<uint64_t>(em[s]) * lb;
            }
            for (; i < end; ++i) {
              int pick = -1;
              for (int s = 0; s < ns; ++s) {
                if (prog[s] >= goal[s]) {
                  pick = s;
                  break;
                }
              }
              if (pick < 0) {  // floor rounding gap: any unfinished stream
                for (int s = 0; s < ns; ++s) {
                  if (em[s] < sd.streams[s].lines) {
                    pick = s;
                    break;
                  }
                }
              }
              buf[len++] =
                  BufOp{addr_next[pick] >> line_shift,
                        ipr | (sd.streams[pick].is_write ? kBufWrite : 0u)};
              ++em[pick];
              goal[pick] += n;
              addr_next[pick] += lb;
              for (int s = 0; s < ns; ++s) prog[s] += sd.streams[s].lines;
            }
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
