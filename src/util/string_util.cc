#include "util/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cmath>

namespace cardir {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
           c == '\v';
  };
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

Result<double> ParseDouble(std::string_view text) {
  // The common case, a finite decimal number, parses in place. from_chars
  // rounds as strtod does; whatever it does not read whole and finite
  // (a '+' sign, hex, an underflow, inf, nan, garbage) goes to strtod, so
  // values and rejections stay strtod's.
  const std::string_view stripped = StripWhitespace(text);
  double parsed = 0;
  const char* last = stripped.data() + stripped.size();
  const auto [end_of_number, error] =
      std::from_chars(stripped.data(), last, parsed);
  if (error == std::errc() && end_of_number == last && std::isfinite(parsed)) {
    return parsed;
  }
  const std::string buf(stripped);
  if (buf.empty()) return Status::ParseError("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  // ERANGE also flags an underflow to a subnormal or zero, which is the
  // nearest double and round-trips; only an overflow (±HUGE_VAL) fails.
  if (end != buf.c_str() + buf.size() ||
      (errno == ERANGE && std::isinf(value))) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  return value;
}

Result<int64_t> ParseInt(std::string_view text) {
  const std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not an integer: '" + buf + "'");
  }
  return static_cast<int64_t>(value);
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace cardir
