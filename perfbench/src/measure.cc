#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double FailedPct(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 0.0;
  return 100.0 * static_cast<double>(failed) /
         static_cast<double>(attempted);
}

double RoundRate(const std::vector<VisibleEvent>& events,
                 std::uint64_t end_ns) {
  if (events.empty()) return 0.0;
  std::uint64_t updates = 0;
  std::uint64_t last_ns = events.front().ns;
  for (std::size_t i = 1; i < events.size() && events[i].ns <= end_ns; ++i) {
    updates += events[i].updates;
    last_ns = events[i].ns;
  }
  if (last_ns <= events.front().ns) return 0.0;
  return static_cast<double>(updates) * 1e9 /
         static_cast<double>(last_ns - events.front().ns);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void SpanRecorder::Record(const std::string& name, std::uint64_t duration_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[name];
  ++span.count;
  span.total_ns += duration_ns;
  span.samples_ns.push_back(static_cast<double>(duration_ns));
}

void SpanRecorder::RecordAll(const std::string& name,
                             const std::vector<double>& durations_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[name];
  span.count += durations_ns.size();
  for (double d : durations_ns) span.total_ns += static_cast<std::uint64_t>(d);
  span.samples_ns.insert(span.samples_ns.end(), durations_ns.begin(),
                         durations_ns.end());
}

std::map<std::string, SpanRecorder::Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
