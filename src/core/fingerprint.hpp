// FNV-1a fingerprint accumulator.
//
// One hashing scheme serves every content key in the system: the DesignDB
// state fingerprint (pinned by the FlowGolden tests), the decide pass's
// skip key and the TrainingGolden weight hash. Keeping the mixing in one
// place means two keys can never silently disagree on how a double is
// folded in.
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

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

}  // namespace gnnmls::core
