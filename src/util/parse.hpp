// Strict numeric parsing for command-line values. The whole string must be
// one number: "abc", "-1" and "10x" are rejected, where strtoull/atof would
// read them as 0, a wrapped 2^64-1 or the leading prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace gnnmls::util {

// A decimal unsigned integer: digits only (no sign, no space), in range.
std::optional<std::uint64_t> parse_u64(std::string_view s);

// A finite decimal >= 0, such as "10", "0.5" or "1e-3".
std::optional<double> parse_nonneg_double(std::string_view s);

}  // namespace gnnmls::util
