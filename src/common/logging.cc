#include "src/common/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace zebra {

namespace log_internal {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kOff)};

}  // namespace log_internal

namespace {

using log_internal::g_min_level;

std::mutex g_emit_mutex;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_min_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_min_level.load()); }

void LogLine(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "[%s] %s\n", LevelTag(level), message.c_str());
}

}  // namespace zebra
