// commit_durable: the embedded deployment. Four in-process DatabaseClients
// run closed-loop single-link updates on disjoint link sets against a
// DurableDatabase in a fresh directory, while a Checkpointer cycles on a
// WAL-bytes trigger. Afterwards: a forced checkpoint, a fixed tail of
// commits, a crash (the database is dropped without Checkpoint) and a timed
// reopen, after which a full class scan must equal the writers' ledger.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "checkers.h"
#include "client/database_client.h"
#include "common/rng.h"
#include "server/checkpointer.h"
#include "server/durable.h"
#include "workloads.h"

namespace c2d {
namespace {

using namespace idba;

constexpr int kWriters = 4;
constexpr int kTailPerWriter = 500;
constexpr int kReopens = 9;
constexpr std::chrono::milliseconds kReopenSpacing{400};

/// One closed-loop writer over its own slice of the links.
struct Writer {
  std::unique_ptr<DatabaseClient> client;
  std::vector<size_t> links;  ///< indexes into the link list
  Rng rng{1};
  uint64_t next_value = 0;
  std::unordered_map<uint64_t, double> ledger;  ///< oid -> last acked value
  std::vector<double> latency_us;
  uint64_t commits = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Runs every writer until `deadline_ns` (or for `count` commits each when
/// count > 0); returns the wall time taken.
double RunWriters(std::vector<Writer>& writers, const std::vector<Oid>& oids,
                  int64_t deadline_ns, int count, bool record) {
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Writer& wr = writers[w];
      for (int i = 0; count > 0 ? i < count : NowNs() < deadline_ns; ++i) {
        const size_t link = wr.links[wr.rng.NextBelow(wr.links.size())];
        // Values are unique per commit: writer id in the low digits.
        const double value = static_cast<double>(++wr.next_value * 8 + w + 1);
        const uint64_t trace = wr.next_value * 8 + w + 1;
        const int64_t t0 = NowNs();
        Status st = UpdateLink(wr.client.get(), oids[link], value, trace, 0);
        const int64_t t1 = NowNs();
        if (!st.ok()) {
          if (wr.failed++ == 0) wr.first_error = st.ToString();
          continue;
        }
        ++wr.commits;
        wr.ledger[oids[link].value] = value;
        if (record) wr.latency_us.push_back((t1 - t0) / 1000.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  return (NowNs() - start) / 1e9;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                         : 0;
}

/// Per-layer counters of one measured window.
struct LayerWindow {
  CounterDelta lock_waits{"txn.lock.waits"};
  HistDelta lock_wait{"txn.lock.wait_us"};
  CounterDelta fsyncs{"wal.fsyncs_total"};
  HistDelta batch{"wal.group.batch_size"};
  HistDelta group_wait{"wal.group.wait_us"};
  CounterDelta page_hits{"cache.page.hits"};
  CounterDelta page_misses{"cache.page.misses"};
  CounterDelta checkpoints{"wal.checkpoints_total"};
  HistDelta checkpoint_us{"wal.checkpoint.duration_us"};
  uint64_t wal_bytes = 0;

  void Start(DatabaseServer& server) {
    lock_waits.Start();
    lock_wait.Start();
    fsyncs.Start();
    batch.Start();
    group_wait.Start();
    page_hits.Start();
    page_misses.Start();
    checkpoints.Start();
    checkpoint_us.Start();
    wal_bytes = server.wal().appended_bytes();
  }
};

}  // namespace

RunResult RunCommitDurable(const RunOptions& opts) {
  RunResult result;
  const int num_nodes = opts.small ? 200 : 5000;
  const int reopens = opts.small ? 2 : kReopens;
  const int tail = opts.small ? 50 : kTailPerWriter;
  const double warmup_s = opts.small ? 0.1 : 0.5;
  const double window_s = opts.small ? 0.5 : opts.seconds;
  CheckpointerOptions cp_opts;
  cp_opts.wal_bytes = opts.small ? (256u << 10) : (4u << 20);

  // --- Set-up: fresh directory, populate, checkpointer, clients ---------
  const std::string dir =
      ".bench_data/commit_durable-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    result.Error("cannot create " + dir + ": " + ec.message());
    return result;
  }
  struct DirCleanup {
    std::string dir;
    ~DirCleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{dir};

  auto db_or = DurableDatabase::Open(dir);
  if (!db_or.ok()) {
    result.Error("open: " + db_or.status().ToString());
    return result;
  }
  std::unique_ptr<DurableDatabase> db = std::move(db_or).value();
  auto nms_or = PopulateNms(&db->server(), NetworkConfig(opts.seed, num_nodes));
  if (!nms_or.ok()) {
    result.Error("populate: " + nms_or.status().ToString());
    return result;
  }
  const NmsDatabase nms = std::move(nms_or).value();
  const std::vector<Oid>& oids = nms.link_oids;

  RpcMeter meter;
  NotificationBus bus;
  std::vector<Writer> writers(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers[w].client = std::make_unique<DatabaseClient>(
        &db->server(), static_cast<ClientId>(100 + w), &meter, &bus);
    writers[w].rng = Rng(opts.seed * 1009 + static_cast<uint64_t>(w));
  }
  for (size_t i = 0; i < oids.size(); ++i) {
    writers[i % kWriters].links.push_back(i);
  }
  auto checkpointer =
      std::make_unique<Checkpointer>(&db->server(), cp_opts);
  checkpointer->Start();
  const double setup_s = (NowNs() - opts.start_ns) / 1e9;

  // --- Timed phase ----------------------------------------------------------
  auto seconds_ns = [](double s) { return static_cast<int64_t>(s * 1e9); };
  RunWriters(writers, oids, NowNs() + seconds_ns(warmup_s), 0, false);
  const double a_s = opts.trace ? window_s / 2 : window_s;
  auto commits_now = [&] {
    uint64_t n = 0;
    for (const Writer& w : writers) n += w.commits;
    return n;
  };
  // One-second sub-windows: throughput and the tail are reported as the
  // median over them, so a short disk or scheduler stall moves one of ~20
  // sub-windows instead of the whole figure.
  const int subs = std::max(1, static_cast<int>(a_s + 0.5));
  std::vector<double> lat_a, rate_subs, p99_subs;
  uint64_t commits_a = 0;
  for (int i = 0; i < subs; ++i) {
    const uint64_t before = commits_now();
    const double wall =
        RunWriters(writers, oids, NowNs() + seconds_ns(a_s / subs), 0, true);
    const uint64_t n = commits_now() - before;
    commits_a += n;
    rate_subs.push_back(n / wall);
    std::vector<double> sub;
    for (Writer& w : writers) {
      sub.insert(sub.end(), w.latency_us.begin(), w.latency_us.end());
      w.latency_us.clear();
    }
    p99_subs.push_back(Percentile(sub, 0.99));
    lat_a.insert(lat_a.end(), sub.begin(), sub.end());
  }

  LayerWindow lw;
  uint64_t commits_b = 0;
  std::vector<double> lat_b;
  if (opts.trace) {
    lw.Start(db->server());
    Spans().Enable(true);
    const uint64_t before = commits_now();
    RunWriters(writers, oids, NowNs() + seconds_ns(window_s - a_s), 0, true);
    Spans().Enable(false);
    commits_b = commits_now() - before;
    for (Writer& w : writers) {
      lat_b.insert(lat_b.end(), w.latency_us.begin(), w.latency_us.end());
    }
  }
  const uint64_t wal_bytes_b = db->server().wal().appended_bytes() - lw.wal_bytes;

  // --- Forced checkpoint, fixed tail, crash ---------------------------------
  checkpointer->Stop();
  if (Status st = checkpointer->TriggerNow(); !st.ok()) {
    result.Error("forced checkpoint: " + st.ToString());
  }
  CounterDelta fsyncs_tail("wal.fsyncs_total");
  fsyncs_tail.Start();
  const uint64_t before_tail = commits_now();
  RunWriters(writers, oids, 0, tail, false);
  const uint64_t tail_commits = commits_now() - before_tail;
  if (fsyncs_tail.Get() > tail_commits) {
    result.Error("tail: " + std::to_string(fsyncs_tail.Get()) +
                 " WAL fsyncs for " + std::to_string(tail_commits) +
                 " commits");
  }
  if (opts.trace && lw.fsyncs.Get() > commits_b) {
    result.Error("traced window: more WAL fsyncs than commits");
  }

  std::unordered_map<uint64_t, double> ledger;
  uint64_t failed = 0;
  for (Writer& w : writers) {
    ledger.insert(w.ledger.begin(), w.ledger.end());
    failed += w.failed;
    if (!w.first_error.empty()) result.Error("commit: " + w.first_error);
  }
  for (Writer& w : writers) w.client.reset();
  checkpointer.reset();
  db.reset();  // crash: no Checkpoint()

  // --- Recovery: reopen (repeatedly crashing again) and check ---------------
  std::vector<double> recovery_ms;
  uint64_t records_scanned = 0;
  double stored_per_user = 0;
  double data_mb = 0;
  Spans().Enable(opts.trace);
  for (int r = 0; r < reopens; ++r) {
    // Spaced out so the median spans several seconds of the host's speed,
    // not one moment of it.
    if (r > 0) std::this_thread::sleep_for(kReopenSpacing);
    const int64_t t0 = NowNs();
    auto reopened = DurableDatabase::Open(dir);
    const int64_t t1 = NowNs();
    if (opts.trace) Spans().Close("storage.recovery", t0, 0, 0);
    if (!reopened.ok()) {
      result.Error("reopen: " + reopened.status().ToString());
      break;
    }
    recovery_ms.push_back((t1 - t0) / 1e6);
    std::unique_ptr<DurableDatabase> rdb = std::move(reopened).value();
    records_scanned = rdb->recovery_stats().records_scanned;
    if (r > 0) continue;
    // The catalog lives with the application (DDL travels with the client),
    // so the reopened server learns the schema again before the scan.
    auto schema = RegisterNmsSchema(&rdb->server().schema());
    if (!schema.ok() || schema.value().link != nms.schema.link) {
      result.Error("schema after recovery does not match");
      break;
    }
    RpcMeter check_meter;
    NotificationBus check_bus;
    DatabaseClient reader(&rdb->server(), 900, &check_meter, &check_bus);
    auto scan = reader.ScanClass(nms.schema.link);
    if (!scan.ok()) {
      result.Error("scan after recovery: " + scan.status().ToString());
      break;
    }
    std::unordered_map<uint64_t, double> recovered;
    double user_bytes = 0;
    for (const DatabaseObject& obj : scan.value()) {
      recovered[obj.oid().value] = StoredUtilization(reader.schema(), obj);
      user_bytes += static_cast<double>(obj.WireBytes());
    }
    if (opts.corrupt && !ledger.empty()) {
      // Self-test: one acknowledged value did not survive the crash.
      recovered[ledger.begin()->first] -= 1.0;
    }
    CheckReport report = CheckValues("recovered links", ledger, recovered);
    if (!report.ok()) {
      result.Error("recovery lost " + std::to_string(report.mismatches) +
                   " acknowledged values, first: " + report.first);
    }
    if (recovered.size() != oids.size()) {
      result.Error("recovered " + std::to_string(recovered.size()) +
                   " links of " + std::to_string(oids.size()));
    }
    // Links are the bulk of the data; count the rest at their scan size too.
    for (ClassId cls : {nms.schema.network_node, nms.schema.hardware_component}) {
      auto rest = reader.ScanClass(cls, /*include_subclasses=*/true);
      if (rest.ok()) {
        for (const DatabaseObject& obj : rest.value()) {
          user_bytes += static_cast<double>(obj.WireBytes());
        }
      }
    }
    data_mb = static_cast<double>(FileBytes(dir + "/data.idb")) / (1 << 20);
    const double stored = static_cast<double>(FileBytes(dir + "/data.idb") +
                                              FileBytes(dir + "/wal.idb"));
    stored_per_user = user_bytes > 0 ? stored / user_bytes : 0;
  }
  Spans().Enable(false);

  result.attempted = commits_a + failed;
  result.failed = failed;
  if (!opts.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("primary_p50_ms", Percentile(lat_a, 0.50) / 1000.0, "ms",
               "update transaction p50");
    result.Add("secondary_p50_ms", Percentile(recovery_ms, 0.50), "ms",
               "recovery (DurableDatabase::Open after the crash) median");
    result.Add("ops_per_s", Percentile(rate_subs, 0.50), "1/s",
               "commits per second, median over one-second sub-windows");
    return result;
  }

  result.attempted += commits_b;
  result.overhead_base = Percentile(lat_a, 0.50);
  result.overhead_traced = Percentile(lat_b, 0.50);
  std::vector<SpanRecord> spans = Spans().Take();
  const double commits = std::max<double>(1.0, static_cast<double>(commits_b));
  // Reported here rather than gated: the tail swings with the host's speed
  // (see the README). Median over the untraced half's one-second windows.
  result.Add("tail.update_txn_p99_us", Percentile(p99_subs, 0.50), "us");
  result.Add("client.begin_us", SpanP50Us(spans, "client.begin"), "us");
  result.Add("client.read_us", SpanP50Us(spans, "client.read"), "us");
  result.Add("client.write_us", SpanP50Us(spans, "client.write"), "us");
  result.Add("client.commit_us", SpanP50Us(spans, "client.commit"), "us");
  result.Add("txn.lock.waits_per_commit", lw.lock_waits.Get() / commits,
             "count");
  result.Add("txn.lock.wait_p99_us", lw.lock_wait.Percentile(0.99), "us");
  result.Add("storage.fsyncs_per_commit", lw.fsyncs.Get() / commits, "count");
  result.Add("storage.wal.batch_size_p50", lw.batch.Percentile(0.50),
             "count");
  result.Add("storage.wal.group_wait_p50_us", lw.group_wait.Percentile(0.50),
             "us");
  result.Add("storage.wal_bytes_per_commit", wal_bytes_b / commits, "B");
  result.Add("storage.bytes_stored_per_user_byte", stored_per_user, "ratio");
  result.Add("storage.data_file_mb", data_mb, "MB");
  const double page_refs =
      static_cast<double>(lw.page_hits.Get() + lw.page_misses.Get());
  result.Add("storage.page.hit_ratio",
             page_refs > 0 ? lw.page_hits.Get() / page_refs : 0, "ratio");
  result.Add("storage.checkpoints", static_cast<double>(lw.checkpoints.Get()),
             "count");
  result.Add("storage.checkpoint_p50_ms",
             lw.checkpoint_us.Percentile(0.50) / 1000.0, "ms");
  result.Add("storage.recovery.records_scanned",
             static_cast<double>(records_scanned), "count");
  result.spans = std::move(spans);
  return result;
}

}  // namespace c2d
