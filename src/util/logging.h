// Minimal leveled logging and check macros.
//
// CARDIR_CHECK(cond) aborts (with file/line and the failed expression) when
// `cond` is false; it is reserved for programming errors, never for
// data-dependent failures (those return Status, see util/status.h).
// CARDIR_DCHECK(cond) is CARDIR_CHECK(cond) in the audit build
// (-DCARDIR_AUDIT=ON, which the sanitizer presets use) and in every build
// without NDEBUG; in the others (Release) `cond` and any streamed message
// are parsed but never evaluated.
// CARDIR_LOG(level) << ... emits a line to stderr when `level` is at or above
// the global threshold (default kWarning; configurable via SetLogLevel or the
// CARDIR_LOG_LEVEL environment variable: debug|info|warning|error).
//
// Each log line is assembled in full — prefix, message, newline — and
// emitted with a single write(2), so concurrent CARDIR_LOG calls from
// engine worker threads never interleave mid-line. Set
// CARDIR_LOG_TIMESTAMPS=1 (or SetLogTimestamps(true)) to prefix lines with
// an ISO-8601 UTC timestamp.

#ifndef CARDIR_UTIL_LOGGING_H_
#define CARDIR_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace cardir {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the global minimum level emitted by CARDIR_LOG.
void SetLogLevel(LogLevel level);

/// Returns the current global minimum level.
LogLevel GetLogLevel();

/// Enables/disables the ISO-8601 UTC timestamp prefix (overrides the
/// CARDIR_LOG_TIMESTAMPS environment variable).
void SetLogTimestamps(bool enabled);

/// True when log lines carry a timestamp prefix.
bool GetLogTimestamps();

/// Observer invoked with every fully formatted log line (including the
/// trailing newline) after it is written to stderr. The hook runs on the
/// logging thread and must be cheap and reentrancy-safe (it must not log).
/// Used by the obs flight recorder to keep a tail of recent log lines.
/// Pass nullptr to clear. Not a layering inversion: util knows only this
/// function-pointer seam, never the obs types.
using LogLineHook = void (*)(const char* line, size_t length);
void SetLogLineHook(LogLineHook hook);

namespace internal_logging {

/// The full log line for `message` (prefix, message, trailing newline) —
/// exactly what LogMessage writes. Exposed for tests.
std::string FormatLogLine(LogLevel level, const char* file, int line,
                          const std::string& message);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

[[noreturn]] void DieCheckFailure(const char* file, int line,
                                  const char* expression,
                                  const std::string& extra);

class CheckFailureStream {
 public:
  CheckFailureStream(const char* file, int line, const char* expression)
      : file_(file), line_(line), expression_(expression) {}
  [[noreturn]] ~CheckFailureStream();

  std::ostream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  const char* expression_;
  std::ostringstream stream_;
};

struct Voidify {
  // Lowest-precedence operator: swallows the streamed expression.
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging

#define CARDIR_LOG(level)                                           \
  (static_cast<int>(::cardir::LogLevel::level) <                    \
   static_cast<int>(::cardir::GetLogLevel()))                       \
      ? (void)0                                                     \
      : ::cardir::internal_logging::Voidify() &                     \
            ::cardir::internal_logging::LogMessage(                 \
                ::cardir::LogLevel::level, __FILE__, __LINE__)      \
                .stream()

#define CARDIR_CHECK(condition)                                       \
  (condition)                                                         \
      ? (void)0                                                       \
      : ::cardir::internal_logging::Voidify() &                       \
            ::cardir::internal_logging::CheckFailureStream(           \
                __FILE__, __LINE__, #condition)                       \
                .stream()

#define CARDIR_CHECK_OK(status_expr)                                   \
  do {                                                                 \
    const ::cardir::Status cardir_check_status__ = (status_expr);      \
    CARDIR_CHECK(cardir_check_status__.ok())                           \
        << cardir_check_status__.ToString();                           \
  } while (false)

#if defined(CARDIR_AUDIT_ENABLED) || !defined(NDEBUG)
#define CARDIR_DCHECK(condition) CARDIR_CHECK(condition)
#else
#define CARDIR_DCHECK(condition) \
  while (false) CARDIR_CHECK(condition)
#endif

}  // namespace cardir

#endif  // CARDIR_UTIL_LOGGING_H_
