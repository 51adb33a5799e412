#pragma once
// BitMask<N>: fixed-width multi-word bitset. DestMask (below) is the
// 256-bit instance holding one bit per mesh node, which caps the mesh at
// k <= 16 (docs/SCALING.md); the router datapath models its per-port /
// per-VC candidate sets as narrower instances instead of per-element loops
// (docs/PERF.md Layer 5).
//
// Design constraints (in priority order):
//  - Zero heap: plain array storage, trivially copyable, so Flit/Packet/
//    Branch copies stay memcpy and hot-path state built on BitMask keeps
//    the steady-state no-allocation invariant.
//  - Word-0 fast path: masks narrower than 64 bits compile to single-word
//    ops (kWords == 1 collapses every loop below), and wider masks
//    short-circuit on word 0 first -- destination masks on k <= 8 meshes
//    only ever populate word 0.
//  - No silent truncation: the uint64_t constructor is explicit, so the
//    single-word idioms that would quietly produce a word-0-only mask
//    (`dest_mask = 1u << n`, comparisons against integer literals) are
//    build errors; single bits come from bit(), all-ones masks from
//    first_n, and a literal is spelled DestMask{0x1f}. Operators keep bits
//    above kBits cleared, so count()/any()/== never see phantom tail bits
//    (operator~ masks the last word).
//
// The noc layer instantiates three more aliases (noc/routing.hpp,
// noc/buffers.hpp): PortMask over the 5 router ports, VcMask over the VC
// ids of one port, and VcSetMask over ports x VCs. Word-boundary behavior
// is pinned by tests/test_bit_mask.cpp, including the randomized
// incremental-vs-recompute cross-checks; tests/test_routing.cpp and
// tests/test_multiflit_multicast.cpp pin destination sets that straddle
// DestMask's 64/128/192-bit seams.

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace noc {

template <int NBits>
class BitMask {
  static_assert(NBits >= 1, "empty mask");

 public:
  static constexpr int kBits = NBits;
  static constexpr int kWords = (NBits + 63) / 64;
  /// Hex digits of the widest mask (to_hex buffer sizing).
  static constexpr int kMaxHexChars = (NBits + 3) / 4;

  constexpr BitMask() = default;
  /// Explicit on purpose: a bare integer is only ever a word-0 mask, and
  /// silent conversion would reintroduce the truncation bugs this type
  /// exists to make unrepresentable.
  constexpr explicit BitMask(uint64_t low) : w_{} {
    if constexpr (kBits < 64) NOC_EXPECTS((low >> kBits) == 0);
    w_[0] = low;
  }

  /// Mask with only bit `n` set.
  static constexpr BitMask bit(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    BitMask m;
    m.w_[word_of(n)] = bit_of(n);
    return m;
  }

  /// Mask with the lowest `n` bits set.
  static constexpr BitMask first_n(int n) {
    NOC_EXPECTS(n >= 0 && n <= kBits);
    BitMask m;
    for (int w = 0; w < kWords; ++w) {
      const int low = w * 64;
      if (n >= low + 64)
        m.w_[w] = ~uint64_t{0};
      else if (n > low)
        m.w_[w] = (uint64_t{1} << (n - low)) - 1;
    }
    return m;
  }

  constexpr bool test(int n) const {
    NOC_EXPECTS(n >= 0 && n < kBits);
    return (w_[word_of(n)] & bit_of(n)) != 0;
  }
  constexpr void set(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    w_[word_of(n)] |= bit_of(n);
  }
  constexpr void clear(int n) {
    NOC_EXPECTS(n >= 0 && n < kBits);
    w_[word_of(n)] &= ~bit_of(n);
  }
  constexpr void clear_all() {
    for (int w = 0; w < kWords; ++w) w_[w] = 0;
  }

  constexpr bool any() const {
    uint64_t acc = w_[0];
    if (acc != 0) return true;  // word-0 fast path
    for (int w = 1; w < kWords; ++w) acc |= w_[w];
    return acc != 0;
  }
  constexpr bool none() const { return !any(); }

  constexpr int count() const {
    int c = 0;
    for (int w = 0; w < kWords; ++w) c += std::popcount(w_[w]);
    return c;
  }

  /// Index of the lowest set bit; kBits when empty.
  constexpr int lowest() const {
    for (int w = 0; w < kWords; ++w)
      if (w_[w] != 0) return w * 64 + std::countr_zero(w_[w]);
    return kBits;
  }

  /// Clear the lowest set bit (no-op when empty).
  constexpr void clear_lowest() {
    for (int w = 0; w < kWords; ++w) {
      if (w_[w] != 0) {
        w_[w] &= w_[w] - 1;
        return;
      }
    }
  }

  /// Visit every set bit in ascending index order: fn(int index).
  template <typename Fn>
  constexpr void for_each(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w)
      for (uint64_t rest = w_[w]; rest != 0; rest &= rest - 1)
        fn(w * 64 + std::countr_zero(rest));
  }

  /// Up to 32 consecutive bits starting at `pos`, as a plain word (bit i of
  /// the result = mask bit pos+i). Handles slices that straddle a word
  /// boundary; the router uses it to pull one port's VC set out of a
  /// VcSetMask in O(1).
  constexpr uint32_t extract(int pos, int width) const {
    NOC_EXPECTS(width >= 1 && width <= 32);
    NOC_EXPECTS(pos >= 0 && pos + width <= kBits);
    const int w = word_of(pos);
    const int off = pos & 63;
    uint64_t slice = w_[w] >> off;
    if (off != 0 && off + width > 64) slice |= w_[w + 1] << (64 - off);
    const uint32_t keep =
        width == 32 ? ~uint32_t{0} : (uint32_t{1} << width) - 1;
    return static_cast<uint32_t>(slice) & keep;
  }

  constexpr uint64_t word(int i) const {
    NOC_EXPECTS(i >= 0 && i < kWords);
    return w_[i];
  }

  /// this & ~other without materializing the complement.
  constexpr BitMask andnot(const BitMask& other) const {
    BitMask r;
    for (int w = 0; w < kWords; ++w) r.w_[w] = w_[w] & ~other.w_[w];
    return r;
  }

  constexpr BitMask& operator&=(const BitMask& o) {
    for (int w = 0; w < kWords; ++w) w_[w] &= o.w_[w];
    return *this;
  }
  constexpr BitMask& operator|=(const BitMask& o) {
    for (int w = 0; w < kWords; ++w) w_[w] |= o.w_[w];
    return *this;
  }
  constexpr BitMask& operator^=(const BitMask& o) {
    for (int w = 0; w < kWords; ++w) w_[w] ^= o.w_[w];
    return *this;
  }

  friend constexpr BitMask operator&(BitMask a, const BitMask& b) {
    return a &= b;
  }
  friend constexpr BitMask operator|(BitMask a, const BitMask& b) {
    return a |= b;
  }
  friend constexpr BitMask operator^(BitMask a, const BitMask& b) {
    return a ^= b;
  }
  /// Complement within kBits: tail bits of the last word stay cleared so
  /// any()/count()/== keep exact semantics at non-multiple-of-64 widths.
  friend constexpr BitMask operator~(const BitMask& a) {
    BitMask r;
    for (int w = 0; w < kWords; ++w) r.w_[w] = ~a.w_[w] & live_bits(w);
    return r;
  }

  friend constexpr bool operator==(const BitMask&, const BitMask&) = default;

  /// Lowercase hex, most-significant digit first, no leading zeros ("0" for
  /// the empty mask) -- single-word masks render like a plain %" PRIx64 "
  /// so v1 trace files round-trip unchanged. `buf` must hold at least
  /// kMaxHexChars + 1 bytes; returns the string length.
  int to_hex(char* buf) const {
    int digits = (kWords * 64 - leading_zero_bits_nibble_aligned()) / 4;
    if (digits == 0) digits = 1;
    for (int i = 0; i < digits; ++i) {
      const int shift = (digits - 1 - i) * 4;
      const uint64_t nib = (w_[shift / 64] >> (shift % 64)) & 0xF;
      buf[i] = nib < 10 ? static_cast<char>('0' + nib)
                        : static_cast<char>('a' + nib - 10);
    }
    buf[digits] = '\0';
    return digits;
  }

  /// Parse a hex string as written by to_hex (case-insensitive). Returns
  /// false on an empty string, a non-hex character, or a value wider than
  /// kBits.
  static bool from_hex(const char* s, BitMask& out) {
    int len = 0;
    while (s[len] != '\0') ++len;
    if (len == 0 || len > kMaxHexChars) return false;
    BitMask m;
    for (int i = 0; i < len; ++i) {
      const char c = s[i];
      uint64_t nib;
      if (c >= '0' && c <= '9')
        nib = static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        nib = static_cast<uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        nib = static_cast<uint64_t>(c - 'A' + 10);
      else
        return false;
      const int shift = (len - 1 - i) * 4;
      m.w_[shift / 64] |= nib << (shift % 64);
    }
    if ((m.w_[kWords - 1] & ~live_bits(kWords - 1)) != 0) return false;
    out = m;
    return true;
  }

 private:
  static constexpr int word_of(int n) { return n >> 6; }
  static constexpr uint64_t bit_of(int n) { return uint64_t{1} << (n & 63); }
  /// Valid-bit mask of storage word `w` (all-ones except a partial tail).
  static constexpr uint64_t live_bits(int w) {
    const int used = kBits - w * 64;
    return used >= 64 ? ~uint64_t{0} : (uint64_t{1} << used) - 1;
  }

  /// Leading-zero bit count of the storage words, rounded DOWN to a nibble
  /// (to_hex helper).
  int leading_zero_bits_nibble_aligned() const {
    for (int w = kWords - 1; w >= 0; --w)
      if (w_[w] != 0)
        return ((kWords - 1 - w) * 64 + std::countl_zero(w_[w])) & ~3;
    return kWords * 64;
  }

  uint64_t w_[kWords] = {};
};

/// Destination set, one bit per mesh node: 4 x 64-bit words cover k <= 16
/// (256 nodes). Word-boundary pitfalls this type makes unrepresentable are
/// catalogued in docs/SCALING.md.
using DestMask = BitMask<256>;

}  // namespace noc
