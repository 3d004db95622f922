#include "util/parse.hpp"

#include <charconv>
#include <cmath>

namespace gnnmls::util {

namespace {

// from_chars accepts a leading '-' for both types (and wraps it for
// unsigned), so a sign is refused here; a leading '+' or space it refuses
// itself.
template <typename T>
std::optional<T> parse_whole(std::string_view s) {
  if (s.empty() || s.front() == '-') return std::nullopt;
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_whole<std::uint64_t>(s);
}

std::optional<double> parse_nonneg_double(std::string_view s) {
  const std::optional<double> v = parse_whole<double>(s);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

}  // namespace gnnmls::util
