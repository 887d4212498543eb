// Minimal leveled logger. Logging is off by default so that test-corpus runs
// (which execute tens of thousands of mini-cluster operations) stay quiet;
// examples and debugging sessions can raise the level.

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <atomic>
#include <sstream>
#include <string>

namespace zebra {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

// Sets the process-wide minimum level that is emitted. Thread-safe.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Emits one line to stderr if `level` >= the configured minimum.
void LogLine(LogLevel level, const std::string& message);

namespace log_internal {

extern std::atomic<int> g_min_level;

}  // namespace log_internal

// True when a line at `level` would be emitted. The ZLOG_* macros check this
// before evaluating or formatting any operand, so a disabled log statement
// costs one relaxed load — operands must therefore be free of side effects.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         log_internal::g_min_level.load(std::memory_order_relaxed);
}

namespace log_internal {

class LineBuilder {
 public:
  explicit LineBuilder(LogLevel level) : level_(level) {}
  ~LineBuilder() { LogLine(level_, stream_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Turns the `LineBuilder << ...` chain into a void expression, so the macro
// below can sit in the false arm of a conditional (`<<` binds tighter than
// `&`, which binds tighter than `?:`).
struct Voidify {
  void operator&(const LineBuilder&) {}
};

}  // namespace log_internal

}  // namespace zebra

#define ZLOG_AT(level)                                  \
  !::zebra::LogEnabled(level)                           \
      ? (void)0                                         \
      : ::zebra::log_internal::Voidify() &              \
            ::zebra::log_internal::LineBuilder(level)

#define ZLOG_DEBUG ZLOG_AT(::zebra::LogLevel::kDebug)
#define ZLOG_INFO ZLOG_AT(::zebra::LogLevel::kInfo)
#define ZLOG_WARN ZLOG_AT(::zebra::LogLevel::kWarning)
#define ZLOG_ERROR ZLOG_AT(::zebra::LogLevel::kError)

#endif  // SRC_COMMON_LOGGING_H_
