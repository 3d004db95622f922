// FNV-1a fingerprint accumulator.
//
// One hashing scheme serves every content key in the system: the DesignDB
// state fingerprint (pinned by the FlowGolden tests), the ML engine's
// graph-content cache keys (ml/batcher.cpp) and the decide pass's skip key.
// Keeping the mixing in one place means a cache key and a state fingerprint
// can never silently disagree on how a double is folded in.
//
// The byte-at-a-time folding matches the original DesignDB lambda exactly,
// so extracting it here leaves every historical fingerprint value unchanged.
#pragma once

#include <cstdint>
#include <cstring>

namespace gnnmls::core {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kPrime;
    }
  }

  void mix_double(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(double) == sizeof(bits));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }

  // Whole-word folding: one xor-multiply per 64-bit value instead of eight.
  // ~8x cheaper than mix() with the same avalanche-through-multiply shape —
  // use it for hot recomputed keys (the ML graph cache). NOT interchangeable
  // with mix(): DesignDB state fingerprints stay on the byte loop so their
  // historical values never move.
  void mix_word(std::uint64_t v) {
    h_ ^= v;
    h_ *= kPrime;
  }

  void mix_double_word(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_word(bits);
  }

  std::uint64_t value() const { return h_; }

  // Order-sensitive combiner for merging independently computed hashes
  // (e.g. a graph fingerprint with epoch counters) into one key.
  static std::uint64_t combine(std::uint64_t seed, std::uint64_t v) {
    Fnv1a f;
    f.h_ = seed;
    f.mix(v);
    return f.value();
  }

 private:
  std::uint64_t h_ = kOffset;
};

}  // namespace gnnmls::core
