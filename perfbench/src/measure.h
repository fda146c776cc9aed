// Measurement arithmetic of the repository benchmark: exact percentiles
// over recorded samples, the failure share, a round's ingest rate, peak RSS, and the benchmark's own span recorder (the spans
// it times around each call it makes into a layer).
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t NowNs();

/// Percentile q ∈ [0, 1] of `values` by linear interpolation between the
/// closest ranks (rank q·(n−1)); 0 for an empty input. Sorts a copy.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Failed operations as a percentage of attempted ones (0 when nothing
/// was attempted).
double FailedPct(std::uint64_t failed, std::uint64_t attempted);

/// One published epoch as the applied-batch listener saw it.
struct VisibleEvent {
  std::uint64_t ns = 0;       ///< steady-clock time of the callback
  std::uint64_t updates = 0;  ///< updates the epoch made visible
};

/// A round's ingest rate: the updates its epochs made visible after the
/// first epoch (whose own updates are the pipeline filling), up to the
/// last epoch at or before `end_ns`, per second of the span from the first
/// epoch to that last one. 0 with fewer than two epochs in the span.
double RoundRate(const std::vector<VisibleEvent>& events,
                 std::uint64_t end_ns);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

/// Thread-safe recorder of the benchmark's own spans, keyed by a span
/// name ("net.rpc.topk", "core.replay_apply", ...). Disabled recorders
/// ignore Record.
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<double> samples_ns;  ///< every duration, for percentiles
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  void Record(const std::string& name, std::uint64_t duration_ns);
  /// Merges a thread-local batch of durations under one name.
  void RecordAll(const std::string& name,
                 const std::vector<double>& durations_ns);
  std::map<std::string, Span> Snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
