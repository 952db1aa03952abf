// browse_tcp: one operator over TCP opens an active view of every link and
// closes it, over and over, while nothing writes. Opening is a ScanClass,
// one display object per link and one batched display-lock request; the
// view fits in the client object cache.

#include <algorithm>
#include <unordered_map>

#include "checkers.h"
#include "client/database_client.h"
#include "common/rng.h"
#include "workloads.h"

namespace c2d {
namespace {

using namespace idba;

constexpr int kWarmupRounds = 2;
constexpr int kSetupBatch = 100;  ///< links per set-up transaction

/// The value the benchmark writes to link `i` at set-up: a seeded draw,
/// offset so it never equals a value PopulateNms chose (those are in [0,1)).
double SetupValue(Rng& rng) { return 2.0 + rng.NextDouble(); }

/// Writes a fresh Utilization to every link through an in-process client.
Status WriteSetupValues(Deployment& deployment, const std::vector<Oid>& links,
                        uint64_t seed,
                        std::unordered_map<uint64_t, double>* expected) {
  DatabaseClient client(&deployment.server(), 150, &deployment.meter(),
                        &deployment.bus());
  Rng rng(seed * 31 + 3);
  for (size_t i = 0; i < links.size(); i += kSetupBatch) {
    IDBA_ASSIGN_OR_RETURN(TxnId txn, client.BeginTxn());
    for (size_t j = i; j < std::min(links.size(), i + kSetupBatch); ++j) {
      IDBA_ASSIGN_OR_RETURN(DatabaseObject obj, client.Read(txn, links[j]));
      const double value = SetupValue(rng);
      IDBA_RETURN_NOT_OK(SetUtilization(client.schema(), &obj, value));
      IDBA_RETURN_NOT_OK(client.Write(txn, std::move(obj)));
      (*expected)[links[j].value] = value;
    }
    IDBA_RETURN_NOT_OK(client.Commit(txn).status());
  }
  return Status::OK();
}

/// Client-side plus server-side time of one RPC method, summed over a window.
struct RpcTime {
  std::vector<HistDelta> parts;
  explicit RpcTime(const std::string& method) {
    for (const char* p : {"serialize", "network", "queue", "execute",
                          "deserialize"}) {
      parts.emplace_back("rpc." + method + "." + p + "_us");
    }
  }
  void Start() {
    for (HistDelta& h : parts) h.Start();
  }
  double SumUs() const {
    double total = 0;
    for (const HistDelta& h : parts) total += h.Sum();
    return total;
  }
};

}  // namespace

RunResult RunBrowseTcp(const RunOptions& opts) {
  RunResult result;
  const int num_nodes = opts.small ? 40 : 1000;
  const double window_s = opts.small ? 0.5 : opts.seconds;

  // --- Set-up: populate, write known values, serve, connect ---------------
  auto rig_or = TcpRig::Create(NetworkConfig(opts.seed, num_nodes));
  if (!rig_or.ok()) {
    result.Error("set-up: " + rig_or.status().ToString());
    return result;
  }
  std::unique_ptr<TcpRig> rig = std::move(rig_or).value();
  const std::vector<Oid>& links = rig->db().link_oids;
  std::unordered_map<uint64_t, double> expected;
  if (Status st = WriteSetupValues(rig->deployment(), links, opts.seed,
                                   &expected);
      !st.ok()) {
    result.Error("set-up writes: " + st.ToString());
    return result;
  }
  std::vector<uint64_t> link_values;
  for (Oid oid : links) link_values.push_back(oid.value);
  auto op_or = rig->ConnectSession(300);
  if (!op_or.ok()) {
    result.Error("connect operator: " + op_or.status().ToString());
    return result;
  }
  RemoteSession op = std::move(op_or).value();
  const DisplayClassDef* dclass = rig->color_links();
  const double setup_s = (NowNs() - opts.start_ns) / 1e9;

  // --- Rounds: open, check, close, check -----------------------------------
  CounterDelta requests("transport.requests");
  uint64_t open_rpcs = 0, close_rpcs = 0, open_locks = 0, open_bytes = 0;
  uint64_t rounds_failed = 0;
  bool corrupt_pending = opts.corrupt;
  auto round = [&](uint64_t n, std::vector<double>* open_ms,
                   std::vector<double>* close_ms) {
    const bool traced = Spans().enabled();
    int64_t t0 = NowNs();
    requests.Start();
    const uint64_t locks0 = op.session->dlc().remote_lock_requests();
    const uint64_t bytes0 = op.remote->bytes_received();
    ActiveView* view = op.session->CreateView("browse");
    auto dobs = view->PopulateFromClass(dclass);
    int64_t t1 = NowNs();
    open_rpcs += requests.Get();
    open_locks += op.session->dlc().remote_lock_requests() - locks0;
    open_bytes += op.remote->bytes_received() - bytes0;
    if (traced) Spans().Close("view.open", t0, 0, n);
    bool ok = dobs.ok();
    if (!ok) {
      result.Error("open: " + dobs.status().ToString());
    } else {
      const int64_t c0 = NowNs();
      std::vector<std::pair<uint64_t, double>> shown;
      for (DisplayObject* dob : dobs.value()) {
        shown.emplace_back(dob->sources().front().value, Shown(*dob));
      }
      if (corrupt_pending && open_ms != nullptr) {
        shown.pop_back();  // self-test: one display object went missing
        corrupt_pending = false;
      }
      CheckReport r = CheckViewContents("view", link_values, shown, expected);
      if (!r.ok()) {
        ok = false;
        result.Error("opened view: " + std::to_string(r.mismatches) +
                     " mismatches, first: " + r.first);
      }
      if (traced) Spans().Close("check.view", c0, 0, n);
    }
    const int64_t t2 = NowNs();
    requests.Start();
    Status closed = op.session->CloseView("browse");
    const int64_t t3 = NowNs();
    close_rpcs += requests.Get();
    if (traced) Spans().Close("view.close", t2, 0, n);
    if (!closed.ok()) {
      ok = false;
      result.Error("close: " + closed.ToString());
    }
    if (const size_t held = op.remote->held_display_locks(); held != 0) {
      ok = false;
      result.Error("session holds " + std::to_string(held) +
                   " display locks after close");
    }
    // The server's side of the same fact: its DLM holds nothing for us.
    const auto holders = rig->deployment().dlm().HolderCounts();
    if (auto it = holders.find(op.remote->id());
        it != holders.end() && it->second != 0) {
      ok = false;
      result.Error("DLM holds " + std::to_string(it->second) +
                   " display locks for the session after close");
    }
    if (open_ms != nullptr) {
      if (ok) {
        open_ms->push_back((t1 - t0) / 1e6);
        close_ms->push_back((t3 - t2) / 1e6);
      } else {
        ++rounds_failed;
      }
    }
  };
  for (int i = 0; i < kWarmupRounds; ++i) round(0, nullptr, nullptr);

  // Whole rounds until the window has elapsed.
  uint64_t round_no = 0;
  auto run_window = [&](double seconds, std::vector<double>* open_ms,
                        std::vector<double>* close_ms) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t n = 0;
    do {
      round(++round_no, open_ms, close_ms);
      ++n;
    } while (NowNs() < deadline);
    return n;
  };
  std::vector<double> open_a, close_a;
  const double a_s = opts.trace ? window_s / 2 : window_s;
  const uint64_t rounds_a = run_window(a_s, &open_a, &close_a);
  result.attempted = 2 * rounds_a;
  result.failed = 2 * rounds_failed;
  if (!opts.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    double busy_ms = 0;
    for (double ms : open_a) busy_ms += ms;
    for (double ms : close_a) busy_ms += ms;
    result.Add("primary_p50_ms", Percentile(open_a, 0.50), "ms",
               "view open p50");
    result.Add("secondary_p50_ms", Percentile(close_a, 0.50), "ms",
               "view close p50");
    result.Add("ops_per_s",
               static_cast<double>(open_a.size() + close_a.size()) /
                   std::max(busy_ms / 1000.0, 1e-9),
               "1/s", "view opens and closes per second spent in them");
    return result;
  }

  // --- Traced window ----------------------------------------------------------
  CounterDelta hits("cache.object.hits"), misses("cache.object.misses");
  std::vector<std::pair<std::string, HistDelta>> rpc;
  for (const char* m : {"ScanClass", "DlmLockBatch", "DlmUnlock",
                        "DlmUnlockBatch", "FetchCurrent"}) {
    for (const char* part : {"queue", "execute", "network"}) {
      std::string base = std::string(m) + "." + part + "_us";
      rpc.emplace_back(base, HistDelta("rpc." + base));
    }
  }
  RpcTime scan_time("ScanClass"), lock_time("DlmLockBatch");
  hits.Start();
  misses.Start();
  for (auto& [name, h] : rpc) h.Start();
  scan_time.Start();
  lock_time.Start();
  open_rpcs = close_rpcs = open_locks = open_bytes = 0;
  rounds_failed = 0;
  Spans().Enable(true);
  std::vector<double> open_b, close_b;
  const uint64_t rounds_b = run_window(window_s - a_s, &open_b, &close_b);
  Spans().Enable(false);
  result.attempted += 2 * rounds_b;
  result.failed += 2 * rounds_failed;
  result.overhead_base = Percentile(open_a, 0.50);
  result.overhead_traced = Percentile(open_b, 0.50);

  const double rounds = std::max<double>(1.0, static_cast<double>(rounds_b));
  result.Add("tail.view_open_p90_ms", Percentile(open_a, 0.90), "ms");
  result.Add("tail.view_close_p90_ms", Percentile(close_a, 0.90), "ms");
  result.Add("client.round_trips_per_view_open", open_rpcs / rounds, "count");
  result.Add("client.round_trips_per_view_close", close_rpcs / rounds,
             "count");
  result.Add("client.bytes_per_view_open", open_bytes / rounds, "B");
  const double refs = static_cast<double>(hits.Get() + misses.Get());
  result.Add("cache.object.hit_ratio", refs > 0 ? hits.Get() / refs : 0,
             "ratio");
  for (auto& [name, h] : rpc) {
    result.Add("net.rpc." + name, h.Percentile(0.50), "us");
  }
  double open_us = 0;
  for (double ms : open_b) open_us += ms * 1000.0;
  const double objects = rounds * static_cast<double>(links.size());
  result.Add("view.materialize_us_per_object",
             (open_us - scan_time.SumUs() - lock_time.SumUs()) / objects,
             "us");
  result.Add("dlc.remote_lock_requests_per_view_open",
             open_locks / rounds,
             "count");
  result.spans = Spans().Take();
  return result;
}

}  // namespace c2d
