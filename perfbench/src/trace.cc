#include "perfbench/src/trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t op) {
  Event event;
  event.name = name;
  event.id = next_id_++;
  event.parent = open_.empty() ? 0 : open_.back().id;
  event.op = op;
  event.start_us = NowUs();
  open_.push_back(event);
  return event.id;
}

double Tracer::End(int64_t id) {
  double now = NowUs();
  if (open_.empty() || open_.back().id != id) {
    throw std::logic_error("perfbench: spans must close innermost-first");
  }
  Event event = open_.back();
  open_.pop_back();
  event.end_us = now;
  double us = event.end_us - event.start_us;
  Totals& totals = totals_[event.name];
  ++totals.calls;
  totals.total_us += us;
  if (events_.size() < kMaxKeptEvents) {
    events_.push_back(event);
  } else {
    ++dropped_;
  }
  return us;
}

const Tracer::Totals& Tracer::TotalsFor(const std::string& name) const {
  static const Totals kNone;
  auto it = totals_.find(name);
  return it == totals_.end() ? kNone : it->second;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld}}%s\n",
                 e.name, e.start_us, e.end_us - e.start_us,
                 static_cast<long long>(e.id), static_cast<long long>(e.parent),
                 static_cast<long long>(e.op),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(out, "],\"metadata\":{\"dropped_events\":%zu", dropped_);
  for (const auto& [key, value] : metadata) {
    std::fprintf(out, ",\"%s\":%s", key.c_str(), value.c_str());
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
