#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace c2d {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q) {
  const size_t chunks = std::max<size_t>(1, samples.size() / chunk);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    auto first = samples.begin() + static_cast<long>(c * chunk);
    auto last = c + 1 == chunks ? samples.end() : first + static_cast<long>(chunk);
    per_chunk.push_back(Percentile(std::vector<double>(first, last), q));
  }
  return Percentile(std::move(per_chunk), 0.50);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CounterDelta::CounterDelta(const std::string& name)
    : counter_(idba::GlobalMetrics().GetCounter(name)) {}
void CounterDelta::Start() { start_ = counter_->Get(); }
uint64_t CounterDelta::Get() const { return counter_->Get() - start_; }

HistDelta::HistDelta(const std::string& name)
    : hist_(idba::GlobalMetrics().GetHistogram(name)),
      start_(idba::Histogram::kNumBuckets, 0) {}
void HistDelta::Start() {
  start_ = hist_->BucketCounts();
  start_sum_ = hist_->sum();
}

double HistDelta::Sum() const { return hist_->sum() - start_sum_; }

uint64_t HistDelta::Count() const {
  std::vector<uint64_t> now = hist_->BucketCounts();
  uint64_t total = 0;
  for (int b = 0; b < idba::Histogram::kNumBuckets; ++b) {
    total += now[b] - start_[b];
  }
  return total;
}

double HistDelta::Percentile(double q) const {
  std::vector<uint64_t> now = hist_->BucketCounts();
  uint64_t total = 0;
  for (int b = 0; b < idba::Histogram::kNumBuckets; ++b) {
    total += now[b] - start_[b];
  }
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(q * total));
  if (target == 0) target = 1;
  uint64_t cumulative = 0;
  for (int b = 0; b < idba::Histogram::kNumBuckets; ++b) {
    cumulative += now[b] - start_[b];
    if (cumulative >= target) return idba::Histogram::BucketUpperBound(b);
  }
  return idba::Histogram::BucketUpperBound(idba::Histogram::kNumBuckets - 1);
}

// --- Spans -------------------------------------------------------------------

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Enable(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.reserve(kMaxSpans);
  }
  enabled_.store(on);
}

uint64_t SpanRecorder::NewId() { return next_id_.fetch_add(1); }

void SpanRecorder::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

uint64_t SpanRecorder::Close(const char* name, int64_t start_ns,
                             uint64_t parent, uint64_t trace, uint64_t id) {
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.trace = trace;
  span.tid = ThreadIndex();
  Record(span);
  return span.id;
}

std::vector<SpanRecord> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<LayerRow> LayerTable(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self_ns;
  for (const SpanRecord& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    durations[s.name].push_back(dur / 1000.0);
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        int64_t a = std::max(c->start_ns, s.start_ns);
        int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self_ns[s.name] += dur - static_cast<double>(covered);
  }
  std::vector<LayerRow> rows;
  for (auto& [name, d] : durations) {
    LayerRow row;
    row.name = name;
    row.count = d.size();
    double total = 0;
    for (double v : d) total += v;
    row.total_ms = total / 1000.0;
    row.self_ms = self_ns[name] / 1e6;
    row.p50_us = Percentile(d, 0.50);
    row.p99_us = Percentile(std::move(d), 0.99);
    rows.push_back(std::move(row));
  }
  return rows;
}

double SpanP50Us(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> d;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name) == name) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return Percentile(std::move(d), 0.50);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace\":%llu}}%s\n",
                 s.name, s.tid, (s.start_ns - origin) / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace c2d
