// A lazily seeded MT19937-64 engine: the standard library's 64-bit Mersenne
// Twister (same constants, same seeding recurrence, same output sequence),
// with stream setup that costs O(words drawn) instead of O(state size).
//
// The library opens one short keyed stream per (user, epoch) and draws only a
// few fades from it (DESIGN.md §7). The standard engine pays the full seeding
// recurrence (312 words) and a full 312-word twist before its first output,
// whatever the stream then draws. Here the first block runs word by word, on
// demand:
//
//  - Twist. Block word k is  x[k] ← x[k+m] ⊕ A(upper(x[k]) | lower(x[k+1])),
//    indices mod n, updated in increasing k. The batch twist and a twist of
//    word k at the moment output k is requested read exactly the same
//    values: x[k+1] is still the previous block's word (k+1 is not yet
//    reached), and x[k+m] is the previous block's word for k < n−m and this
//    block's (already twisted) word otherwise — in both schemes.
//  - Seeding. Initial word i depends only on word i−1. In the first block,
//    output k < n−m reads initial words k, k+1 and k+m, so it needs initial
//    words 0..k+m and no more; outputs k ≥ n−m read initial words up to
//    n−1. The recurrence is therefore run only as far as the next output
//    needs: a stream that draws d ≤ 156 words computes d+156 initial words
//    and d twists, not 312 + 312.
//
// Once the first block is spent the state is fully seeded, so every later
// block is twisted whole, as the standard engine does. The twist's
// "⊕ A if the low bit is set" is a mask, A & (0 − (y & 1)), not a branch:
// the low bit is a coin flip, which a branch predictor cannot learn.
//
// Words of x_ past the seeded prefix are never read, so the 2.5 KB state is
// not zero-filled, and copies move only the seeded prefix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mmw::randgen {

/// MT19937-64 with on-demand seeding and twisting; a
/// std::uniform_random_bit_generator whose output sequence for a given seed
/// is the standard 64-bit Mersenne Twister's.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;

  explicit MersenneTwister64(result_type seed)
      : seeded_(1), pos_(0), twisted_(0) {
    x_[0] = seed;
  }

  // Copies take the seeded prefix only: the words past it are uninitialized
  // and must not be read.
  MersenneTwister64(const MersenneTwister64& o)
      : seeded_(o.seeded_), pos_(o.pos_), twisted_(o.twisted_) {
    std::copy_n(o.x_, seeded_, x_);
  }
  MersenneTwister64& operator=(const MersenneTwister64& o) {
    if (this != &o) {
      seeded_ = o.seeded_;
      pos_ = o.pos_;
      twisted_ = o.twisted_;
      std::copy_n(o.x_, seeded_, x_);
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (pos_ == twisted_) [[unlikely]]
      advance();
    return temper(x_[pos_++]);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;
  static constexpr result_type kLowerMask = ~kUpperMask;
  static constexpr result_type kInitMultiplier = 6364136223846793005ULL;

  /// Makes word pos_ available: the next first-block word (seeded and
  /// twisted on demand), or, once a fully seeded block is spent, the whole
  /// next block.
  void advance() {
    if (pos_ == kN) {
      twist_block();
      pos_ = 0;
      twisted_ = kN;
      return;
    }
    seed_through(std::min(pos_ + kM + 1, kN));
    const std::size_t k = pos_;
    x_[k] = twist(x_[k], x_[k + 1 == kN ? 0 : k + 1],
                  x_[k < kN - kM ? k + kM : k + kM - kN]);
    twisted_ = k + 1;
  }

  /// The standard block twist, in increasing k with indices mod n split
  /// into three loops; it reads what twisting word by word would.
  void twist_block() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  }

  /// Extends the seeded prefix to initial words [0, count).
  void seed_through(std::size_t count) {
    for (; seeded_ < count; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = kInitMultiplier * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  /// New value of a block word from its old value, its successor and the
  /// word m ahead.
  static result_type twist(result_type word, result_type next,
                           result_type ahead) {
    const result_type y = (word & kUpperMask) | (next & kLowerMask);
    return ahead ^ (y >> 1) ^ (kMatrixA & (result_type{0} - (y & 1)));
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

  std::size_t seeded_;   ///< initial words x_[0, seeded_) computed
  std::size_t pos_;      ///< next block word to output
  std::size_t twisted_;  ///< words [0, twisted_) of this block are twisted
  result_type x_[kN];    ///< state; words past seeded_ are never read
};

}  // namespace mmw::randgen
