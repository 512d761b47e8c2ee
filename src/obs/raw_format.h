// Async-signal-safe text formatting for the flight-recorder dump path.
//
// Everything here appends into a caller-owned fixed buffer: no heap, no
// stdio, no locale, no errno mutation — the only things a SIGSEGV handler
// is allowed to touch. The recorder's crash dump and the clean-exit dump
// share these helpers so the signal path is exercised by ordinary tests
// (the FormatLogLine-seam pattern from util/logging).
//
// All functions silently truncate at the buffer capacity and return the
// new length; a truncated dump is still parseable line-by-line.

#ifndef CARDIR_SRC_OBS_RAW_FORMAT_H_
#define CARDIR_SRC_OBS_RAW_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace cardir {
namespace obs {
namespace raw {

/// Appends NUL-free bytes of `text` (up to its terminator) into
/// `buf[len..cap)`; returns the new length.
inline size_t AppendStr(char* buf, size_t len, size_t cap, const char* text) {
  if (text == nullptr) text = "(null)";
  while (*text != '\0' && len < cap) buf[len++] = *text++;
  return len;
}

/// Appends a single character.
inline size_t AppendChar(char* buf, size_t len, size_t cap, char c) {
  if (len < cap) buf[len++] = c;
  return len;
}

/// Appends `value` in decimal.
inline size_t AppendU64(char* buf, size_t len, size_t cap, uint64_t value) {
  char digits[20];  // 2^64-1 has 20 decimal digits.
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (n > 0 && len < cap) buf[len++] = digits[--n];
  return len;
}

/// Appends `value` in decimal with a leading '-' when negative.
inline size_t AppendI64(char* buf, size_t len, size_t cap, int64_t value) {
  uint64_t magnitude = static_cast<uint64_t>(value);
  if (value < 0) {
    len = AppendChar(buf, len, cap, '-');
    magnitude = ~magnitude + 1;  // Two's complement; INT64_MIN-safe.
  }
  return AppendU64(buf, len, cap, magnitude);
}

/// Appends `text`, replacing bytes outside printable ASCII (and spaces,
/// which would break the key=value line grammar) with '_'.
inline size_t AppendSanitised(char* buf, size_t len, size_t cap,
                              const char* text) {
  if (text == nullptr) text = "(null)";
  for (; *text != '\0' && len < cap; ++text) {
    const char c = *text;
    const bool ok = c > ' ' && c < 0x7f;
    buf[len++] = ok ? c : '_';
  }
  return len;
}

}  // namespace raw
}  // namespace obs
}  // namespace cardir

#endif  // CARDIR_SRC_OBS_RAW_FORMAT_H_
