// Measurement plumbing shared by the three workloads: wall-clock samples and
// percentiles, before/after deltas of the program's own GlobalMetrics()
// counters and histograms, the in-memory span recorder of the traced run,
// and the result record main() prints.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace c2d {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// Nearest-rank percentile (q in [0,1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Tail percentile robust to rare stalls: splits time-ordered `samples`
/// into consecutive chunks of `chunk` (a short remainder joins the last
/// chunk), takes each chunk's q-percentile and returns their median.
double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Before/after delta of one registry counter.
class CounterDelta {
 public:
  explicit CounterDelta(const std::string& name);
  void Start();
  uint64_t Get() const;

 private:
  idba::Counter* counter_;
  uint64_t start_ = 0;
};

/// Before/after delta of one registry histogram, read from bucket counts so
/// a window's percentiles exclude what was recorded before it started.
class HistDelta {
 public:
  explicit HistDelta(const std::string& name);
  void Start();
  uint64_t Count() const;
  /// Exact sum of the values recorded in the window.
  double Sum() const;
  /// Bucket-resolution quantile of the window (upper bound of the bucket
  /// holding the q-th sample); 0 when the window is empty.
  double Percentile(double q) const;

 private:
  idba::Histogram* hist_;
  std::vector<uint64_t> start_;
  double start_sum_ = 0;
};

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t trace = 0;   ///< update sequence number / view-open number
  uint32_t tid = 0;
};

/// One named metric value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< what the value is on this workload (stderr only)
};

/// What a workload run reports back to main().
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<Metric> metrics;      ///< end-to-end or per-layer, per mode
  double overhead_base = 0;         ///< primary p50, untraced window
  double overhead_traced = 0;       ///< primary p50, traced window
  std::vector<SpanRecord> spans;  ///< traced window's spans

  void Add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void Error(std::string what) { errors.push_back(std::move(what)); }
};

/// Options every workload takes from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool small = false;  ///< tiny inputs and windows: a seconds-long smoke run
  double rate = 0;     ///< display_tcp commits/s override (0 = default)
  int64_t start_ns = 0;  ///< process start (main entry), for setup_s
  /// Self-test only: corrupt one observation before it reaches the
  /// workload's checker, which must then report the run incorrect.
  bool corrupt = false;
};

// --- Spans of the traced run ------------------------------------------------


/// In-memory span store. Recording is off until Enable(); spans beyond the
/// cap are counted, not kept.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 150000;

  void Enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NewId();
  void Record(const SpanRecord& span);
  /// Records [start_ns, now) and returns its id.
  uint64_t Close(const char* name, int64_t start_ns, uint64_t parent,
                 uint64_t trace, uint64_t id = 0);

  std::vector<SpanRecord> Take();
  uint64_t dropped() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{1};
  uint64_t dropped_ = 0;
};

SpanRecorder& Spans();

/// Per span name: count, duration percentiles and self time (duration minus
/// the union of its children's intervals).
struct LayerRow {
  std::string name;
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<LayerRow> LayerTable(const std::vector<SpanRecord>& spans);

/// p50 duration (µs) of the spans named `name`; 0 when none.
double SpanP50Us(const std::vector<SpanRecord>& spans, const char* name);

/// Writes Chrome trace_event JSON; returns false on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace c2d
