// display_tcp: the paper's §4.3 set-up over loopback TCP. One monitor
// writer commits single-link read-modify-writes open-loop at a fixed rate;
// two operator sessions, each on its own connection with its own pump
// thread, hold two active views over every link. The clock of each commit
// starts when it was due and stops when all four views show its value (or
// a later one) for the link.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "checkers.h"
#include "common/rng.h"
#include "workloads.h"

namespace c2d {
namespace {

using namespace idba;

constexpr int kSessions = 2;
constexpr int kViewsPerSession = 2;
constexpr int kViews = kSessions * kViewsPerSession;
constexpr uint32_t kAllViews = (1u << kViews) - 1;
constexpr double kZipfTheta = 0.8;
/// A link is not drawn again within this many commits, and the writer waits
/// for a link's previous update to reach every view before updating it
/// again: a refetch racing a newer commit's invalidation can leave a view
/// stale for good (see the README), which this workload does not exercise.
constexpr uint64_t kLinkGap = 16;
constexpr int64_t kLinkWaitTimeoutNs = 1'000'000'000;
/// Commits per chunk of the p99 (ten samples beyond it per chunk).
constexpr size_t kTailChunk = 1000;
constexpr int64_t kQuiesceTimeoutNs = 10'000'000'000;

/// Per-commit timeline, indexed by the writer's sequence number.
struct Entry {
  size_t link = 0;
  int64_t due_ns = 0;
  int64_t ack_ns = 0;
  int64_t shown_ns = 0;  ///< when the last of the views showed it
  uint32_t views = 0;    ///< bit per view that has shown it (or later)
  bool failed = false;
  uint64_t span_id = 0;  ///< commit_to_display span (traced runs)
};

/// Matches the values views show against the commits the writer made.
class DisplayTracker {
 public:
  DisplayTracker(size_t links, uint64_t max_seq)
      : pending_(links), entries_(max_seq + 1) {}

  void Due(uint64_t seq, size_t link, int64_t due_ns, uint64_t span_id) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[seq];
    e.link = link;
    e.due_ns = due_ns;
    e.span_id = span_id;
    pending_[link].push_back(seq);
    ++open_;
  }
  void Acked(uint64_t seq, int64_t ack_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[seq].ack_ns = ack_ns;
  }
  void Failed(uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[seq];
    e.failed = true;
    auto& p = pending_[e.link];
    auto it = std::find(p.begin(), p.end(), seq);
    if (it != p.end()) {
      p.erase(it);
      --open_;
    }
  }
  /// `view` now shows `value` for `link`: every pending commit of that link
  /// with a sequence number up to the value has reached this view.
  void Shown(int view, size_t link, double value, int64_t now_ns) {
    if (!(value >= 1.0)) return;  // set-up values are below 1
    const uint64_t shown = static_cast<uint64_t>(value);
    std::lock_guard<std::mutex> lock(mu_);
    auto& p = pending_[link];
    size_t i = 0;
    while (i < p.size() && p[i] <= shown) {
      Entry& e = entries_[p[i]];
      e.views |= 1u << view;
      if (e.views == kAllViews) {
        e.shown_ns = now_ns;
        p.erase(p.begin() + static_cast<long>(i));
        --open_;
      } else {
        ++i;
      }
    }
  }
  size_t open() const {
    std::lock_guard<std::mutex> lock(mu_);
    return open_;
  }
  bool LinkPending(size_t link) const {
    std::lock_guard<std::mutex> lock(mu_);
    return !pending_[link].empty();
  }
  /// Read after quiesce only.
  const Entry& entry(uint64_t seq) const { return entries_[seq]; }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<uint64_t>> pending_;  ///< per link, ascending
  std::vector<Entry> entries_;
  size_t open_ = 0;
};

/// Everything a view's notification hook reports to.
struct Observer {
  std::unordered_map<Oid, size_t> link_index;
  DisplayTracker* tracker = nullptr;
  MonotonicChecker* monotonic = nullptr;
  std::atomic<bool> corrupt_pending{false};  ///< self-test injection
};

/// The pump span of the calling pump thread: opened at the first refresh
/// of a PumpWait, closed when PumpWait returns.
struct PumpSpan {
  uint64_t id = 0;
  int64_t start_ns = 0;
};
thread_local PumpSpan t_pump;

/// An ActiveView that reports what it shows after every refresh.
class ObservedView : public ActiveView {
 public:
  ObservedView(std::string name, InteractiveSession* session, int index,
               Observer* observer)
      : ActiveView(std::move(name), &session->client(), &session->dlc(),
                   &session->display_cache()),
        index_(index),
        observer_(observer) {}

  Status Open(const DisplayClassDef* dclass) {
    IDBA_ASSIGN_OR_RETURN(std::vector<DisplayObject*> dobs,
                          PopulateFromClass(dclass));
    for (DisplayObject* dob : dobs) by_link_[dob->sources().front()] = dob;
    return Status::OK();
  }

  void OnUpdateNotify(const UpdateNotifyMessage& msg, VTime now) override {
    const int64_t start = NowNs();
    ActiveView::OnUpdateNotify(msg, now);
    const int64_t end = NowNs();
    double traced_value = 0;
    for (Oid oid : msg.updated) {
      auto it = by_link_.find(oid);
      if (it == by_link_.end()) continue;
      const size_t link = observer_->link_index.at(oid);
      const double value = Shown(*it->second);
      traced_value = value;
      observer_->monotonic->Observe(index_, link, value);
      if (value >= 2.0 && observer_->corrupt_pending.exchange(false)) {
        // Self-test: report the previous value after the current one.
        observer_->monotonic->Observe(index_, link, value - 1.0);
      }
      observer_->tracker->Shown(index_, link, value, end);
    }
    SpanRecorder& spans = Spans();
    if (spans.enabled()) {
      if (t_pump.id == 0) {
        t_pump.id = spans.NewId();
        t_pump.start_ns = start;
      }
      spans.Close("view.refresh", start, t_pump.id,
                  traced_value >= 1.0 ? static_cast<uint64_t>(traced_value)
                                      : 0);
    }
  }

  /// (link oid, shown value) per display object. Pumps must be stopped.
  std::vector<std::pair<uint64_t, double>> Contents() const {
    std::vector<std::pair<uint64_t, double>> out;
    for (DisplayObject* dob : display_objects()) {
      out.emplace_back(dob->sources().front().value, Shown(*dob));
    }
    return out;
  }

 private:
  int index_;
  Observer* observer_;
  std::unordered_map<Oid, DisplayObject*> by_link_;
};

void PumpLoop(InteractiveSession* session, const std::atomic<bool>* run) {
  while (run->load()) {
    session->dlc().PumpWait(/*timeout_ms=*/20);
    if (t_pump.id != 0) {
      Spans().Close("dlc.pump", t_pump.start_ns, 0, 0, t_pump.id);
      t_pump = PumpSpan{};
    }
  }
}

struct Window {
  uint64_t first_seq = 0;
  uint64_t count = 0;
  double seconds = 0;  ///< first due time -> last commit returned
};

/// Per-instance counters of the writer, the sessions and their views.
struct ClientCounts {
  uint64_t writer_rpcs = 0, writer_bytes = 0;
  uint64_t viewer_rpcs = 0, callbacks = 0, dlc_notes = 0, dlc_dispatches = 0;
  uint64_t refreshes = 0;
};

/// Registry deltas of one measured window (per-layer metrics).
struct LayerWindow {
  CounterDelta requests{"transport.requests"};
  CounterDelta notifies{"transport.notifications"};
  CounterDelta encodes{"transport.fanout.encodes"};
  CounterDelta reuses{"transport.fanout.reuses"};
  HistDelta loop_lag{"net.loop.lag_us"};
  HistDelta dispatch_lag{"worker.dispatch_lag_us"};
  std::vector<std::pair<std::string, HistDelta>> rpc;

  LayerWindow() {
    for (const char* m :
         {"Begin", "Fetch", "LockForRead", "Put", "Commit", "FetchCurrent"}) {
      for (const char* part : {"queue", "execute", "network"}) {
        std::string base = std::string(m) + "." + part + "_us";
        rpc.emplace_back(base, HistDelta("rpc." + base));
      }
    }
  }
  void Start() {
    requests.Start();
    notifies.Start();
    encodes.Start();
    reuses.Start();
    loop_lag.Start();
    dispatch_lag.Start();
    for (auto& [name, h] : rpc) h.Start();
  }
};

}  // namespace

RunResult RunDisplayTcp(const RunOptions& opts) {
  RunResult result;
  const int num_nodes = opts.small ? 40 : 1000;
  const double rate = opts.rate > 0 ? opts.rate : (opts.small ? 200 : 500);
  const double measured_s = opts.small ? 1.0 : opts.seconds;
  const uint64_t warmup = static_cast<uint64_t>(rate * (opts.small ? 0.2 : 1));
  const uint64_t measured = static_cast<uint64_t>(rate * measured_s);

  // --- Set-up: populate, serve, connect, open the views -----------------
  auto rig_or = TcpRig::Create(NetworkConfig(opts.seed, num_nodes));
  if (!rig_or.ok()) {
    result.Error("set-up: " + rig_or.status().ToString());
    return result;
  }
  std::unique_ptr<TcpRig> rig = std::move(rig_or).value();
  const std::vector<Oid>& links = rig->db().link_oids;

  auto writer_or = rig->ConnectClient(100);
  if (!writer_or.ok()) {
    result.Error("connect writer: " + writer_or.status().ToString());
    return result;
  }
  std::unique_ptr<RemoteDatabaseClient> writer = std::move(writer_or).value();

  DisplayTracker tracker(links.size(), warmup + measured);
  MonotonicChecker monotonic(kViews, links.size());
  Observer observer;
  observer.tracker = &tracker;
  observer.monotonic = &monotonic;
  for (size_t i = 0; i < links.size(); ++i) observer.link_index[links[i]] = i;

  std::vector<RemoteSession> sessions;
  std::vector<std::unique_ptr<ObservedView>> views;
  for (int s = 0; s < kSessions; ++s) {
    auto session = rig->ConnectSession(static_cast<ClientId>(200 + s));
    if (!session.ok()) {
      result.Error("connect operator: " + session.status().ToString());
      return result;
    }
    sessions.push_back(std::move(session).value());
    for (int v = 0; v < kViewsPerSession; ++v) {
      const int index = s * kViewsPerSession + v;
      auto view = std::make_unique<ObservedView>(
          "links-" + std::to_string(index), sessions.back().session.get(),
          index, &observer);
      Status st =
          view->Open(v == 0 ? rig->color_links() : rig->width_links());
      if (!st.ok()) {
        result.Error("open view: " + st.ToString());
        return result;
      }
      views.push_back(std::move(view));
    }
  }
  // What each view showed at open, per link (the baseline for links the
  // writer never touches).
  std::unordered_map<uint64_t, double> opened;
  for (const auto& [oid, value] : views.front()->Contents()) {
    opened[oid] = value;
  }
  const double setup_s = (NowNs() - opts.start_ns) / 1e9;

  std::atomic<bool> pumping{true};
  std::vector<std::thread> pumps;
  for (auto& s : sessions) {
    pumps.emplace_back(PumpLoop, s.session.get(), &pumping);
  }

  // --- Open-loop writer ---------------------------------------------------
  // The link of every commit, drawn up front from the seed: Zipf over the
  // links, redrawn while the link was used in the last kLinkGap commits.
  std::vector<size_t> link_of(warmup + measured + 1);
  {
    Rng rng(opts.seed * 7919 + 17);
    ZipfGenerator zipf(links.size(), kZipfTheta);
    std::vector<uint64_t> last_seq(links.size(), 0);
    for (uint64_t seq = 1; seq < link_of.size(); ++seq) {
      size_t link = zipf.Next(rng);
      while (last_seq[link] != 0 && seq - last_seq[link] <= kLinkGap) {
        link = zipf.Next(rng);
      }
      last_seq[link] = seq;
      link_of[seq] = link;
    }
  }
  std::unordered_map<uint64_t, double> ledger;  // link oid -> last acked seq
  uint64_t next_seq = 1;
  uint64_t failed_commits = 0;
  std::vector<double> late_us;
  uint64_t link_waits = 0;  // commits that waited for their link's last one

  auto run_window = [&](uint64_t count, bool traced) {
    Window w{next_seq, count};
    Spans().Enable(traced);
    const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
    const int64_t t0 = NowNs() + 1'000'000;
    for (uint64_t k = 0; k < count; ++k) {
      const uint64_t seq = next_seq++;
      const int64_t due = t0 + static_cast<int64_t>(k) * period_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const size_t link = link_of[seq];
      if (tracker.LinkPending(link)) {
        ++link_waits;
        for (const int64_t give_up = NowNs() + kLinkWaitTimeoutNs;
             tracker.LinkPending(link) && NowNs() < give_up;) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      const uint64_t c2d_span = traced ? Spans().NewId() : 0;
      tracker.Due(seq, link, due, c2d_span);
      late_us.push_back((NowNs() - due) / 1000.0);
      Status st = UpdateLink(writer.get(), links[link],
                             static_cast<double>(seq), seq, c2d_span);
      if (st.ok()) {
        tracker.Acked(seq, NowNs());
        ledger[links[link].value] = static_cast<double>(seq);
      } else {
        tracker.Failed(seq);
        ++failed_commits;
        result.Error("commit " + std::to_string(seq) + ": " + st.ToString());
      }
    }
    w.seconds = (NowNs() - t0) / 1e9;
    // Quiesce: every acknowledged commit reaches every view.
    const int64_t deadline = NowNs() + kQuiesceTimeoutNs;
    while (tracker.open() > 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Spans().Enable(false);
    return w;
  };

  auto sum_viewers = [&](auto fn) {
    uint64_t total = 0;
    for (auto& s : sessions) total += fn(s);
    return total;
  };
  auto snapshot = [&] {
    ClientCounts c;
    c.writer_rpcs = writer->rpcs_issued();
    c.writer_bytes = writer->bytes_sent() + writer->bytes_received();
    c.viewer_rpcs =
        sum_viewers([](RemoteSession& s) { return s.remote->rpcs_issued(); });
    c.callbacks = sum_viewers(
        [](RemoteSession& s) { return s.remote->callbacks_served(); });
    c.dlc_notes = sum_viewers([](RemoteSession& s) {
      return s.session->dlc().notifications_received();
    });
    c.dlc_dispatches = sum_viewers(
        [](RemoteSession& s) { return s.session->dlc().local_dispatches(); });
    for (auto& v : views) c.refreshes += v->refreshes();
    return c;
  };

  HistDelta commit_rpcs("rpc.Commit.execute_us");
  commit_rpcs.Start();
  run_window(warmup, false);
  if (opts.corrupt) observer.corrupt_pending = true;

  const uint64_t untraced_count = opts.trace ? measured / 2 : measured;
  Window a = run_window(untraced_count, false);
  Window b{};
  LayerWindow lw;
  ClientCounts before;
  const uint64_t link_waits_a = link_waits;
  if (opts.trace) {
    before = snapshot();
    lw.Start();
    b = run_window(measured - untraced_count, true);
  }

  pumping = false;
  for (auto& t : pumps) t.join();
  for (auto& s : sessions) s.session->PumpOnce();

  // --- Output checks ------------------------------------------------------
  const uint64_t attempted_total = next_seq - 1;
  uint64_t undisplayed = 0;
  std::string first_undisplayed;
  for (uint64_t seq = 1; seq <= attempted_total; ++seq) {
    const Entry& e = tracker.entry(seq);
    if (e.failed || e.shown_ns != 0) continue;
    if (undisplayed++ == 0) {
      first_undisplayed = "seq " + std::to_string(seq) + " on link " +
                          std::to_string(e.link) + " reached views mask " +
                          std::to_string(e.views);
    }
  }
  if (undisplayed > 0) {
    result.Error(std::to_string(undisplayed) +
                 " acknowledged commits never reached every view, first: " +
                 first_undisplayed);
  }
  if (CheckReport r = monotonic.Report(); !r.ok()) {
    result.Error("monotonicity: " + std::to_string(r.mismatches) +
                 " regressions, first: " + r.first);
  }
  std::unordered_map<uint64_t, double> expected = opened;
  for (const auto& [oid, seq] : ledger) expected[oid] = seq;
  std::vector<uint64_t> link_values;
  for (Oid oid : links) link_values.push_back(oid.value);
  for (auto& v : views) {
    CheckReport r =
        CheckViewContents(v->name(), link_values, v->Contents(), expected);
    if (!r.ok()) {
      result.Error("final display: " + std::to_string(r.mismatches) +
                   " mismatches, first: " + r.first);
    }
  }
  const uint64_t acked = attempted_total - failed_commits;
  if (commit_rpcs.Count() != acked) {
    result.Error("server executed " + std::to_string(commit_rpcs.Count()) +
                 " Commit RPCs, writer saw " + std::to_string(acked) +
                 " acknowledged");
  }

  // --- Metrics --------------------------------------------------------------
  auto collect = [&](const Window& w, std::vector<double>* c2d,
                     std::vector<double>* update, std::vector<double>* until,
                     std::vector<double>* after, std::vector<double>* late,
                     uint64_t* failed) {
    for (uint64_t seq = w.first_seq; seq < w.first_seq + w.count; ++seq) {
      const Entry& e = tracker.entry(seq);
      if (late != nullptr) late->push_back(late_us[seq - 1]);
      if (e.failed || e.shown_ns == 0) {
        ++*failed;
        continue;
      }
      c2d->push_back((e.shown_ns - e.due_ns) / 1000.0);
      update->push_back((e.ack_ns - e.due_ns) / 1000.0);
      if (until != nullptr) until->push_back((e.ack_ns - e.due_ns) / 1000.0);
      if (after != nullptr) after->push_back((e.shown_ns - e.ack_ns) / 1000.0);
    }
  };

  std::vector<double> c2d_a, update_a;
  uint64_t failed_a = 0;
  collect(a, &c2d_a, &update_a, nullptr, nullptr, nullptr, &failed_a);
  result.attempted = a.count;
  result.failed = failed_a;

  if (!opts.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("primary_p50_ms", Percentile(c2d_a, 0.50) / 1000.0, "ms",
               "commit->display p50");
    result.Add("secondary_p50_ms", Percentile(update_a, 0.50) / 1000.0, "ms",
               "update transaction p50, from the due time");
    result.Add("ops_per_s",
               static_cast<double>(a.count - failed_a) / std::max(a.seconds, 1e-9),
               "1/s", "commits acknowledged per second");
    return result;
  }

  std::vector<double> c2d_b, update_b, until_b, after_b, late_b;
  uint64_t failed_b = 0;
  collect(b, &c2d_b, &update_b, &until_b, &after_b, &late_b, &failed_b);
  result.attempted += b.count;
  result.failed += failed_b;
  result.overhead_base = Percentile(c2d_a, 0.50);
  result.overhead_traced = Percentile(c2d_b, 0.50);

  const ClientCounts after = snapshot();
  // Synthetic commit_to_display spans: due -> last view shows the value.
  for (uint64_t seq = b.first_seq; seq < b.first_seq + b.count; ++seq) {
    const Entry& e = tracker.entry(seq);
    if (e.span_id == 0 || e.shown_ns == 0) continue;
    SpanRecord span;
    span.name = "commit_to_display";
    span.start_ns = e.due_ns;
    span.end_ns = e.shown_ns;
    span.id = e.span_id;
    span.trace = seq;
    Spans().Record(span);
  }
  std::vector<SpanRecord> spans = Spans().Take();
  const double commits = std::max<double>(1.0, static_cast<double>(b.count));
  auto per_commit = [&](uint64_t a0, uint64_t a1) {
    return static_cast<double>(a1 - a0) / commits;
  };
  result.Add("client.begin_us", SpanP50Us(spans, "client.begin"), "us");
  result.Add("client.read_us", SpanP50Us(spans, "client.read"), "us");
  result.Add("client.write_us", SpanP50Us(spans, "client.write"), "us");
  result.Add("client.commit_us", SpanP50Us(spans, "client.commit"), "us");
  result.Add("client.round_trips_per_update",
             lw.requests.Get() / commits, "count");
  result.Add("client.writer_rpcs_per_update",
             per_commit(before.writer_rpcs, after.writer_rpcs), "count");
  result.Add("client.bytes_per_update",
             per_commit(before.writer_bytes, after.writer_bytes), "B");
  for (auto& [name, h] : lw.rpc) {
    result.Add("net.rpc." + name, h.Percentile(0.50), "us");
  }
  result.Add("net.loop.lag_p99_us", lw.loop_lag.Percentile(0.99), "us");
  result.Add("net.worker.dispatch_lag_p99_us",
             lw.dispatch_lag.Percentile(0.99), "us");
  result.Add("net.notify_frames_per_commit", lw.notifies.Get() / commits,
             "count");
  const double fanout = static_cast<double>(lw.encodes.Get() + lw.reuses.Get());
  result.Add("net.fanout.reuse_ratio",
             fanout > 0 ? lw.reuses.Get() / fanout : 0, "ratio");
  result.Add("server.callbacks_per_commit",
             per_commit(before.callbacks, after.callbacks), "count");
  result.Add("dlc.pump_us", SpanP50Us(spans, "dlc.pump"), "us");
  const double notes = static_cast<double>(after.dlc_notes - before.dlc_notes);
  result.Add("dlc.dispatches_per_notification",
             notes > 0 ? (after.dlc_dispatches - before.dlc_dispatches) / notes
                       : 0,
             "count");
  result.Add("view.refreshes_per_commit",
             per_commit(before.refreshes, after.refreshes), "count");
  result.Add("view.refetches_per_commit",
             per_commit(before.viewer_rpcs, after.viewer_rpcs), "count");
  result.Add("c2d.until_ack_p50_us", Percentile(until_b, 0.50), "us");
  result.Add("c2d.after_ack_p50_us", Percentile(after_b, 0.50), "us");
  result.Add("gen.late_p99_us", Percentile(late_b, 0.99), "us");
  result.Add("gen.link_waits", static_cast<double>(link_waits - link_waits_a),
             "count");
  // The p99s swing with the host's scheduling noise far beyond any bound
  // (see the README), so they are reported here, from the untraced half,
  // rather than gated as end-to-end metrics.
  result.Add("tail.commit_to_display_p99_us",
             ChunkedPercentile(c2d_a, kTailChunk, 0.99), "us");
  result.Add("tail.update_txn_p99_us",
             ChunkedPercentile(update_a, kTailChunk, 0.99), "us");
  result.spans = std::move(spans);
  return result;
}

}  // namespace c2d
