#pragma once
// Bit-stream view over pseudorandom words.
//
// Normal distributed procedures (Definition 5) consume a bounded number
// of random bits per node. BitStream is the uniform interface through
// which procedures draw those bits, whether the backing words come from
// true (seeded) randomness or from a PRG chunk — swapping the source is
// exactly the derandomization step.

#include <cstdint>
#include <functional>

#include "pdc/util/check.hpp"

namespace pdc {

/// A deterministic stream of bits backed by a word supplier. The supplier
/// is called with an increasing word index; the stream slices words into
/// bit requests. Consuming code must bound its total draw (the procedure
/// declares rand_bits_per_node()); the stream counts consumption so the
/// framework can verify the declared bound.
class BitStream {
 public:
  using WordFn = std::function<std::uint64_t(std::uint64_t word_index)>;

  explicit BitStream(WordFn words) : words_(std::move(words)) {}

  /// Next `k` bits (1..64) as the low bits of the result.
  std::uint64_t bits(int k) {
    PDC_CHECK(k >= 1 && k <= 64);
    std::uint64_t out = 0;
    int got = 0;
    while (got < k) {
      if (avail_ == 0) {
        cur_ = words_(word_idx_++);
        avail_ = 64;
      }
      int take = std::min(k - got, avail_);
      out |= (cur_ & ((take == 64) ? ~0ULL : ((1ULL << take) - 1))) << got;
      // A full-word take empties cur_ (a shift by 64 would be UB).
      cur_ = take == 64 ? 0 : cur_ >> take;
      avail_ -= take;
      got += take;
    }
    consumed_ += k;
    return out;
  }

  /// Uniform value in [0, bound) using fixed 64-bit draws (Lemire map).
  /// Deterministic given the stream position.
  std::uint64_t below(std::uint64_t bound) {
    PDC_CHECK(bound > 0);
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(bits(64)) * bound) >> 64);
  }

  bool coin(std::uint64_t num, std::uint64_t den) { return below(den) < num; }

  std::uint64_t bits_consumed() const { return consumed_; }

 private:
  WordFn words_;
  std::uint64_t word_idx_ = 0;
  std::uint64_t cur_ = 0;
  int avail_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace pdc
