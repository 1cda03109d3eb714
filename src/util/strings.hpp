// Small string utilities used across the libraries (no locale dependence).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ht::util {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double with `digits` digits after the decimal point.
std::string format_double(double value, int digits);

/// Formats an integer with thousands separators, e.g. 22000 -> "22,000".
std::string with_commas(long long value);

/// "$4,160" style money formatting (integral dollars).
std::string format_money(long long dollars);

/// Parses the whole of `token` as a T (a base-10 integer, or a decimal
/// floating-point number for double) with std::from_chars. Throws SpecError
/// naming `what` (a CLI flag, say) on an empty token, on anything that is
/// not a number, on trailing characters and on values outside T's range.
/// Instantiated for int, long long, unsigned long long and double.
template <typename T>
T parse_number(std::string_view token, std::string_view what);

}  // namespace ht::util
