#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <system_error>

#include "util/status.hpp"

namespace ht::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ull - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (negative) out += '-';
  return std::string(out.rbegin(), out.rend());
}

std::string format_money(long long dollars) {
  if (dollars < 0) return "-$" + with_commas(-dollars);
  return "$" + with_commas(dollars);
}

template <typename T>
T parse_number(std::string_view token, std::string_view what) {
  T value{};
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw SpecError(std::string(what) + ": value '" + std::string(token) +
                    "' is out of range");
  }
  if (token.empty() || ec != std::errc() || stop != end) {
    throw SpecError(std::string(what) + ": expected a number, got '" +
                    std::string(token) + "'");
  }
  return value;
}

template int parse_number<int>(std::string_view, std::string_view);
template long long parse_number<long long>(std::string_view,
                                           std::string_view);
template unsigned long long parse_number<unsigned long long>(
    std::string_view, std::string_view);
template double parse_number<double>(std::string_view, std::string_view);

}  // namespace ht::util
