// Hierarchical bit-set with blocked popcount counters — the
// order-statistic structure behind the LruTree working-set profiler
// (profile/lru_stack.h).
//
// One bit per slot plus two cache-dense count levels:
//
//   bits_ — raw live bits, 64 slots per word.
//   l1_   — set-bit count per *block* of 8 words (512 slots, one 64-byte
//           host cache line of bits).
//   l2_   — set-bit count per *super* of 64 blocks (32768 slots).
//
// A range count walks lo -> hi: a masked word, whole words to the block
// boundary, whole blocks (l1_) to the super boundary, whole supers
// (l2_), then back down. Every level is a sequential sum over a small
// contiguous array — no pointer chasing, auto-vectorizable — and the
// cost is proportional to the *distance* being measured, so the short
// reuse distances that dominate real traces cost a handful of
// operations. This replaced a binary indexed (prefix-sum) tree, whose
// log(n) scattered probes at both ends of every query and update were
// the profiler's bottleneck; set/clear here touch exactly three hot
// counters.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace cachesched {

class BitRank {
 public:
  static constexpr uint64_t kBlockWords = 8;    // 512 slots per l1 entry
  static constexpr uint64_t kSuperBlocks = 64;  // 32768 slots per l2 entry
  static constexpr uint64_t kBlockSlots = kBlockWords * 64;

  BitRank() = default;
  explicit BitRank(uint64_t n) { reset(n); }

  /// Inline SWAR popcount: the default x86-64 baseline has no POPCNT
  /// instruction, so a std popcount lowers to a libgcc *call* per word —
  /// ruinous in count_range's word walks.
  static uint64_t popcount64(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
  }

  /// Clears everything and sizes the structure for slots [0, n).
  void reset(uint64_t n) {
    n_ = n;
    const uint64_t words = (n + 63) / 64;
    const uint64_t blocks = (words + kBlockWords - 1) / kBlockWords;
    const uint64_t supers = (blocks + kSuperBlocks - 1) / kSuperBlocks;
    bits_.assign(words, 0);
    l1_.assign(blocks, 0);
    l2_.assign(supers, 0);
  }

  uint64_t size() const { return n_; }

  /// Sets bit `i` (must be clear).
  void set(uint64_t i) {
    assert(i < n_ && !test(i));
    bits_[i >> 6] |= uint64_t{1} << (i & 63);
    ++l1_[i / kBlockSlots];
    ++l2_[i / (kBlockSlots * kSuperBlocks)];
  }

  /// Clears bit `i` (must be set).
  void clear(uint64_t i) {
    assert(i < n_ && test(i));
    bits_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    --l1_[i / kBlockSlots];
    --l2_[i / (kBlockSlots * kSuperBlocks)];
  }

  bool test(uint64_t i) const {
    return (bits_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set bits in [lo, hi); lo <= hi <= size().
  uint64_t count_range(uint64_t lo, uint64_t hi) const {
    assert(lo <= hi && hi <= n_);
    if (lo >= hi) return 0;
    uint64_t w = lo >> 6;
    const uint64_t wend = hi >> 6;
    const int lo_off = static_cast<int>(lo & 63);
    if (w == wend) {
      const uint64_t span_mask = (uint64_t{1} << (hi - lo)) - 1;
      return static_cast<uint64_t>(
          popcount64((bits_[w] >> lo_off) & span_mask));
    }
    uint64_t sum = static_cast<uint64_t>(popcount64(bits_[w] >> lo_off));
    ++w;
    while (w < wend && (w & (kBlockWords - 1)) != 0) {
      sum += static_cast<uint64_t>(popcount64(bits_[w++]));
    }
    if (w < wend) {
      uint64_t b = w / kBlockWords;
      const uint64_t bend = wend / kBlockWords;
      while (b < bend && (b & (kSuperBlocks - 1)) != 0) sum += l1_[b++];
      if (b < bend) {
        uint64_t sp = b / kSuperBlocks;
        const uint64_t spend = bend / kSuperBlocks;
        while (sp < spend) sum += l2_[sp++];
        b = spend * kSuperBlocks;
        while (b < bend) sum += l1_[b++];
      }
      w = b * kBlockWords;
      while (w < wend) {
        sum += static_cast<uint64_t>(popcount64(bits_[w++]));
      }
    }
    const int tail = static_cast<int>(hi & 63);
    if (tail != 0) {
      sum += static_cast<uint64_t>(
          popcount64(bits_[wend] & ((uint64_t{1} << tail) - 1)));
    }
    return sum;
  }

  /// Fills `prefix` with prefix[b] = count of set bits in blocks [0, b)
  /// — i.e. below slot b * kBlockSlots. Used with count_range for O(1)
  /// rank queries during batched renumbering (profile/lru_stack.cc):
  /// rank(x) = prefix[x / kBlockSlots] + count_range(block start, x).
  void block_prefix(std::vector<uint64_t>* prefix) const {
    prefix->resize(l1_.size() + 1);
    uint64_t run = 0;
    for (size_t b = 0; b < l1_.size(); ++b) {
      (*prefix)[b] = run;
      run += l1_[b];
    }
    (*prefix)[l1_.size()] = run;
  }

 private:
  uint64_t n_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> l1_;
  std::vector<uint32_t> l2_;
};

}  // namespace cachesched
