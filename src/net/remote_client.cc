#include "net/remote_client.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/rng.h"
#include "core/notification.h"
#include "obs/audit.h"
#include "obs/rpc_stats.h"
#include "obs/trace.h"

namespace idba {

namespace {

/// Records a span that already happened (retrospective child of `parent`).
/// Returns its span id so further synthesized spans can nest under it.
uint64_t EmitSpan(uint64_t trace_id, uint64_t parent, const char* name,
                  int64_t start_us, int64_t dur_us) {
  obs::SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = obs::NewSpanId();
  rec.parent_id = parent;
  rec.start_us = start_us;
  rec.dur_us = dur_us;
  rec.tid = ThisThreadId();
  rec.name = name;
  const uint64_t id = rec.span_id;
  obs::GlobalRecorder().Record(std::move(rec));
  return id;
}

// Request-body fields, encoded in the order given to Body().
void Encode(Encoder* enc, uint8_t v) { enc->PutU8(v); }
void Encode(Encoder* enc, uint64_t v) { enc->PutU64(v); }
void Encode(Encoder* enc, uint32_t v) { enc->PutU32(v); }
void Encode(Encoder* enc, int64_t v) { enc->PutI64(v); }
void Encode(Encoder* enc, bool v) { enc->PutU8(v ? 1 : 0); }
void Encode(Encoder* enc, ValueType v) { enc->PutU8(static_cast<uint8_t>(v)); }
void Encode(Encoder* enc, Oid oid) { enc->PutU64(oid.value); }
void Encode(Encoder* enc, const std::string& s) { enc->PutString(s); }
void Encode(Encoder* enc, const std::vector<Oid>& oids) {
  wire::EncodeOidVector(oids, enc);
}
void Encode(Encoder* enc, const ReadSet& reads) {
  wire::EncodeReadSet(reads, enc);
}
template <typename T>
auto Encode(Encoder* enc, const T& v) -> decltype(v.EncodeTo(enc)) {
  v.EncodeTo(enc);
}

template <typename... Fields>
std::vector<uint8_t> Body(const Fields&... fields) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  (Encode(&enc, fields), ...);
  return body;
}

Status DecodeU64(Decoder* dec, uint64_t* out) { return dec->GetU64(out); }

}  // namespace

TcpChannel::TcpChannel(ClientApi& client, const RemoteClientOptions& opts)
    : ServerChannel(client), opts_(opts), cost_model_(opts.cost) {}

Status TcpChannel::Open(const std::string& host, uint16_t port) {
  host_ = host;
  port_ = port;
  IDBA_ASSIGN_OR_RETURN(sock_,
                        Socket::ConnectTo(host, port, opts_.connect_timeout_ms));
  connected_.store(true);
  reader_ = std::thread([this] { ReaderLoop(); });
  IDBA_RETURN_NOT_OK(Hello());
  if (opts_.heartbeat_interval_ms > 0) {
    heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  }
  return Status::OK();
}

TcpChannel::~TcpChannel() {
  shutting_down_.store(true);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
  }
  hb_cv_.notify_all();
  sock_.ShutdownBoth();
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  client_.inbox().Close();
  sock_.Close();
}

void RemoteDatabaseClient::set_fault_injector(
    std::shared_ptr<FaultInjector> faults) {
  std::lock_guard<std::mutex> lock(channel_.write_mu_);
  channel_.faults_ = faults;
  channel_.sock_.set_fault_injector(std::move(faults));
}

Status TcpChannel::Reconnect(int max_attempts,
                             const std::function<Status()>& resume) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (shutting_down_.load()) return Status::IOError("client shutting down");
  if (connected_.load()) {
    return Status::InvalidArgument(
        "Reconnect: connection is still up; it is for dead connections");
  }
  if (reader_.joinable()) reader_.join();
  // The dead session's copy registrations died with it, so cached copies
  // are no longer protected by callbacks: drop them all, with the read
  // sets of its transactions.
  DropSession();
  int64_t backoff = std::max<int64_t>(opts_.reconnect_backoff_ms, 1);
  const int64_t backoff_cap = std::max<int64_t>(
      opts_.reconnect_backoff_cap_ms, backoff);
  // Deterministic per client and per reconnect episode, so tests replay
  // exactly while distinct clients still spread their re-dials.
  Rng jitter_rng(client_.id() * 0x9E3779B97F4A7C15ULL + reconnects_.Get() + 1);
  // An Overloaded rejection's retry-after hint floors the first sleep: the
  // server told us when it wants to hear from us again.
  const int64_t hint = retry_after_hint_ms_.load(std::memory_order_relaxed);
  if (hint > backoff) backoff = std::min(hint, backoff_cap);
  Status last = Status::IOError("reconnect: no attempts made");
  for (int attempt = 0; attempt < std::max(max_attempts, 1); ++attempt) {
    if (attempt > 0) {
      // Equal-jitter: uniform in [backoff/2, backoff] keeps the expected
      // wait growing exponentially while decorrelating a thundering herd.
      int64_t sleep_ms = opts_.reconnect_jitter && backoff > 1
                             ? jitter_rng.NextInRange(backoff / 2, backoff)
                             : backoff;
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff = std::min<int64_t>(backoff * 2, backoff_cap);
    }
    Result<Socket> fresh =
        Socket::ConnectTo(host_, port_, opts_.connect_timeout_ms);
    if (!fresh.ok()) {
      last = fresh.status();
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client", "reconnect attempt failed",
                      {{"client", std::to_string(client_.id())},
                       {"attempt", std::to_string(attempt + 1)},
                       {"error", last.ToString()}});
      continue;
    }
    {
      // Exclude stragglers mid-WriteFrame on the dead socket.
      std::lock_guard<std::mutex> lock(write_mu_);
      sock_ = std::move(fresh).value();
      if (faults_) sock_.set_fault_injector(faults_);
    }
    connected_.store(true);
    reader_ = std::thread([this] { ReaderLoop(); });
    last = Hello();
    if (last.ok()) last = resume();
    if (last.ok()) {
      reconnects_.Add();
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client", "reconnected",
                      {{"client", std::to_string(client_.id())},
                       {"attempts", std::to_string(attempt + 1)}});
      return Status::OK();
    }
    // Handshake refused — commonly the server has not torn down the dead
    // session yet and still holds our client id. Drop this socket and
    // retry after backoff.
    connected_.store(false);
    sock_.ShutdownBoth();
    if (reader_.joinable()) reader_.join();
  }
  return last;
}

// ---------------------------------------------------------------------------
// Transport plumbing
// ---------------------------------------------------------------------------

Status TcpChannel::Hello() {
  // Our wire version goes last as a trailing byte; v1 servers ignore it.
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(
      wire::Method::kHello,
      Body(client_.id(), static_cast<uint8_t>(opts_.consistency),
           wire::kWireVersion),
      /*count_rpc=*/false, &reply, &at));
  Decoder dec(reply.data() + at, reply.size() - at);
  // Decode into a fresh catalog and swap: on Reconnect() the snapshot
  // *replaces* the old one (the server's catalog may have grown while we
  // were gone).
  SchemaCatalog snapshot;
  IDBA_RETURN_NOT_OK(SchemaCatalog::DecodeFrom(&dec, &snapshot));
  schema_ = std::move(snapshot);
  // A v2 server appends its version after the schema; absence means v1.
  uint8_t server_version = 1;
  if (dec.remaining() > 0) {
    IDBA_RETURN_NOT_OK(dec.GetU8(&server_version));
  }
  server_version_.store(server_version, std::memory_order_relaxed);
  return Status::OK();
}

Status TcpChannel::Call(wire::Method method, const std::vector<uint8_t>& body,
                        bool count_rpc, std::vector<uint8_t>* reply,
                        size_t* body_at) {
  if (!connected_.load()) return Status::IOError("not connected");

  // Root span for this API call (child span when already inside a trace,
  // e.g. a session-level span). MethodName returns string literals, so
  // .data() is NUL-terminated. Inactive when sampling is off — the span
  // machinery then costs one thread-local load.
  const char* method_name = wire::MethodName(method).data();
  obs::Span rpc = obs::CurrentContext().valid()
                      ? obs::Span::Start(method_name)
                      : obs::Span::StartRoot(method_name);
  const bool send_trace =
      rpc.active() &&
      server_version_.load(std::memory_order_relaxed) >= wire::kWireVersion;

  // Latency decomposition is always recorded (a few steady_clock reads per
  // call), independent of trace sampling.
  obs::RpcPartHistograms& parts =
      obs::GlobalRpcStats().HandleFor(static_cast<int>(method), method_name);
  const int64_t t_start = obs::NowUs();

  std::vector<uint8_t> payload;
  payload.reserve(body.size() + 40);
  Encoder enc(&payload);
  if (send_trace) {
    wire::TraceInfo trace;
    trace.trace_id = rpc.context().trace_id;
    trace.span_id = rpc.context().span_id;
    wire::EncodeTraceInfo(trace, &enc);
  }
  enc.PutU8(static_cast<uint8_t>(method));
  enc.PutI64(client_.clock().Now());
  payload.insert(payload.end(), body.begin(), body.end());
  const int64_t t_serialized = obs::NowUs();

  PendingCall call;
  call.method = method;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(calls_mu_);
    seq = next_seq_++;
    pending_[seq] = &call;
  }
  Status sent = sock_.WriteFrame(write_mu_, wire::FrameType::kRequest, seq,
                                 payload, &bytes_out_, send_trace);
  if (!sent.ok()) {
    std::lock_guard<std::mutex> lock(calls_mu_);
    // The reader may have failed the call (and erased it) concurrently;
    // only report the send error if the call is still ours.
    pending_.erase(seq);
    return sent;
  }
  // Pings answer within the heartbeat interval or the peer is considered
  // half-open; everything else gets the configured RPC deadline.
  int64_t deadline_ms = opts_.rpc_deadline_ms;
  if (method == wire::Method::kPing && opts_.heartbeat_interval_ms > 0) {
    deadline_ms = deadline_ms > 0
                      ? std::min(deadline_ms, opts_.heartbeat_interval_ms)
                      : opts_.heartbeat_interval_ms;
  }
  {
    std::unique_lock<std::mutex> lock(calls_mu_);
    if (deadline_ms > 0) {
      if (!calls_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                              [&] { return call.done; })) {
        // Deadline missed: disown the correlation id so the late response
        // (if it ever arrives) is dropped by the reader.
        pending_.erase(seq);
        return Status::TimedOut(
            "rpc " + std::string(wire::MethodName(method)) + " missed its " +
            std::to_string(deadline_ms) + " ms deadline");
      }
    } else {
      calls_cv_.wait(lock, [&] { return call.done; });
    }
  }
  IDBA_RETURN_NOT_OK(call.transport);
  const int64_t t_response = obs::NowUs();

  Decoder dec(call.payload.data(), call.payload.size());
  // A traced response opens with the server's TraceInfo echo, carrying the
  // queue-wait/execute split of the server's time on this call.
  wire::TraceInfo resp_trace;
  bool have_server_split = false;
  if (call.traced) {
    have_server_split = wire::DecodeTraceInfo(&dec, &resp_trace).ok();
    if (!have_server_split) resp_trace = wire::TraceInfo{};
  }
  Status remote;
  IDBA_RETURN_NOT_OK(wire::DecodeStatus(&dec, &remote));
  VTime completion = 0;
  IDBA_RETURN_NOT_OK(dec.GetI64(&completion));
  client_.clock().Observe(completion);
  if (remote.IsOverloaded()) {
    // Admission-control rejection: the body is a retry-after hint (varint
    // ms). Stash it for retry loops (retry_after_hint_ms()).
    overload_rejections_.Add();
    uint64_t hint_ms = 0;
    Decoder hint_dec(call.payload.data() + dec.position(),
                     call.payload.size() - dec.position());
    if (hint_dec.GetVarint(&hint_ms).ok()) {
      retry_after_hint_ms_.store(static_cast<int64_t>(hint_ms),
                                 std::memory_order_relaxed);
    }
  }
  if (count_rpc) CountRoundTrip();
  if (reply != nullptr) {
    *body_at = dec.position();
    *reply = std::move(call.payload);
  }
  const int64_t t_decoded = obs::NowUs();

  // Decomposition histograms: serialize / network / queue / execute /
  // deserialize / total. Without a v2 server split, network absorbs the
  // server-side time.
  const int64_t wire_us = t_response - t_serialized;
  int64_t network_us = wire_us;
  if (have_server_split) {
    network_us = std::max<int64_t>(
        wire_us - resp_trace.queue_us - resp_trace.exec_us, 0);
    parts.queue_us->Record(static_cast<double>(resp_trace.queue_us));
    parts.execute_us->Record(static_cast<double>(resp_trace.exec_us));
  }
  parts.serialize_us->Record(static_cast<double>(t_serialized - t_start));
  parts.network_us->Record(static_cast<double>(network_us));
  parts.deserialize_us->Record(static_cast<double>(t_decoded - t_response));
  parts.total_us->Record(static_cast<double>(t_decoded - t_start));

  if (rpc.active()) {
    // Child spans of the call, reconstructed now that the times are known.
    const uint64_t trace_id = rpc.context().trace_id;
    const uint64_t rpc_span = rpc.context().span_id;
    EmitSpan(trace_id, rpc_span, "client.serialize", t_start,
             t_serialized - t_start);
    const uint64_t net_span = EmitSpan(trace_id, rpc_span, "client.network",
                                       t_serialized, wire_us);
    if (have_server_split) {
      // Synthesized from the response's TraceInfo so a single client-side
      // trace shows the full decomposition; the server's own recorder holds
      // the authoritative server.queue/server.execute spans (TRACE_DUMP).
      // Centered in the network window — their wall offsets are unknown.
      const int64_t server_us = resp_trace.queue_us + resp_trace.exec_us;
      const int64_t queue_start =
          t_serialized + std::max<int64_t>((wire_us - server_us) / 2, 0);
      EmitSpan(trace_id, net_span, "server.queue", queue_start,
               resp_trace.queue_us);
      EmitSpan(trace_id, net_span, "server.execute",
               queue_start + resp_trace.queue_us, resp_trace.exec_us);
    }
    EmitSpan(trace_id, rpc_span, "client.deserialize", t_response,
             t_decoded - t_response);
  }
  return remote;
}

void TcpChannel::SendOneWay(wire::Method method,
                            const std::vector<uint8_t>& body) {
  if (!connected_.load() || shutting_down_.load()) return;
  std::vector<uint8_t> payload;
  payload.reserve(body.size() + 16);
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(method));
  enc.PutI64(client_.clock().Now());
  payload.insert(payload.end(), body.begin(), body.end());
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(calls_mu_);
    seq = next_seq_++;
  }
  (void)sock_.WriteFrame(write_mu_, wire::FrameType::kOneWay, seq, payload,
                         &bytes_out_);
}

void TcpChannel::FailAllPending(const Status& st) {
  const bool shutdown = shutting_down_.load();
  std::lock_guard<std::mutex> lock(calls_mu_);
  for (auto& [seq, call] : pending_) {
    if (!shutdown && (call->method == wire::Method::kCommit ||
                      call->method == wire::Method::kCommitValidated)) {
      // The commit request may have reached the server and applied before
      // the connection broke — its outcome is genuinely indeterminate.
      // Surface that explicitly so retry layers re-run read-modify-write
      // bodies instead of assuming the commit failed.
      call->transport = Status::Unknown(
          "connection lost with commit in flight; outcome unknown");
    } else {
      call->transport = st.ok() ? Status::IOError("connection closed") : st;
    }
    call->done = true;
  }
  pending_.clear();
  calls_cv_.notify_all();
}

void TcpChannel::HeartbeatLoop() {
  const auto interval =
      std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  std::unique_lock<std::mutex> lock(hb_mu_);
  while (!shutting_down_.load()) {
    hb_cv_.wait_for(lock, interval, [&] { return shutting_down_.load(); });
    if (shutting_down_.load()) return;
    if (!connected_.load()) continue;  // Reconnect() is the user's call
    lock.unlock();
    heartbeats_.Add();
    Status st = Call(wire::Method::kPing, {}, /*count_rpc=*/false);
    if (st.IsTimedOut()) {
      // Half-open connection: the peer stopped answering but TCP has not
      // noticed. Kill the socket so every blocked caller fails fast and
      // connected() reads false.
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client",
                      "heartbeat missed; marking connection dead",
                      {{"client", std::to_string(client_.id())}});
      connected_.store(false);
      sock_.ShutdownBoth();
    }
    lock.lock();
  }
}

void TcpChannel::ReaderLoop() {
  Status st;
  for (;;) {
    wire::FrameHeader header;
    std::vector<uint8_t> payload;
    st = sock_.ReadFrame(&header, &payload, &bytes_in_);
    if (!st.ok()) break;
    switch (header.type) {
      case wire::FrameType::kResponse: {
        std::lock_guard<std::mutex> lock(calls_mu_);
        auto it = pending_.find(header.seq);
        if (it != pending_.end()) {
          it->second->payload = std::move(payload);
          it->second->traced = header.traced;
          it->second->done = true;
          pending_.erase(it);
          calls_cv_.notify_all();
        }
        break;
      }
      case wire::FrameType::kNotify: {
        Decoder dec(payload.data(), payload.size());
        wire::TraceInfo trace;
        if (header.traced && !wire::DecodeTraceInfo(&dec, &trace).ok()) break;
        wire::NotifyFrame frame;
        if (!wire::DecodeNotifyMeta(&dec, &frame).ok()) break;
        Envelope env;
        env.from = frame.from;
        env.to = frame.to;
        env.sent_at = frame.sent_at;
        env.arrives_at = frame.arrives_at;
        env.wire_bytes = frame.virtual_wire_bytes;
        // Carry the committing writer's context so the DLC dispatch and
        // display refresh join the writer's trace.
        env.trace_id = trace.trace_id;
        env.trace_span = trace.span_id;
        if (frame.kind == wire::NotifyKind::kUpdate) {
          auto msg = std::make_shared<UpdateNotifyMessage>();
          if (!UpdateNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          obs::ConsistencyAuditor& auditor = obs::GlobalAuditor();
          if (auditor.enabled() && msg->committed) {
            // Transport-level monotonicity: commit vtimes for one OID must
            // arrive in commit order even before any display pump runs
            // (obligations are only opened at DLC dispatch).
            std::vector<uint64_t> oids;
            oids.reserve(msg->updated.size() + msg->erased.size());
            for (Oid oid : msg->updated) oids.push_back(oid.value);
            for (Oid oid : msg->erased) oids.push_back(oid.value);
            auditor.OnNotifyReceived(client_.id(), oids.data(), oids.size(),
                                     msg->commit_vtime, env.trace_id);
          }
          env.msg = std::move(msg);
        } else if (frame.kind == wire::NotifyKind::kResync) {
          // The server shed our notification stream: cached copies may
          // have missed invalidations (elided callbacks), so drop the
          // whole object cache *before* the DLC pump sees the resync —
          // its display refetches then go to the server.
          auto msg = std::make_shared<ResyncNotifyMessage>();
          if (!ResyncNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          resyncs_received_.Add();
          client_.cache().Clear();
          // Confirm before the pump refetches anything: the ack goes out on
          // this (reader) thread, so any refetch RPC a pump or user thread
          // issues afterwards reaches the server behind it — copies those
          // refetches register are protected by live callbacks again.
          (void)sock_.WriteFrame(write_mu_, wire::FrameType::kResyncAck,
                                 header.seq, {}, &bytes_out_);
          env.msg = std::move(msg);
        } else {
          auto msg = std::make_shared<IntentNotifyMessage>();
          if (!IntentNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          env.msg = std::move(msg);
        }
        notify_frames_.Add();
        client_.inbox().Deliver(std::move(env));
        break;
      }
      case wire::FrameType::kCallback: {
        // Synchronous cache invalidation: the server's committing client is
        // blocked until our ack. Handled here on the reader thread — which
        // never issues RPCs of its own — so the ack flows even while this
        // client's user thread is blocked inside its own Commit().
        Decoder dec(payload.data(), payload.size());
        wire::TraceInfo trace;
        if (header.traced && !wire::DecodeTraceInfo(&dec, &trace).ok()) {
          trace = wire::TraceInfo{};
        }
        uint64_t oid = 0, version = 0;
        if (dec.GetU64(&oid).ok() && dec.GetU64(&version).ok()) {
          obs::Span span = obs::Span::StartChildOf(
              {trace.trace_id, trace.span_id}, "client.invalidate");
          // An invalidation proves `version` committed: raise the
          // auditor's coherence floor (~0 marks an erase — no floor).
          if (version != ~0ULL) {
            obs::GlobalAuditor().OnVersionCommitted(client_.id(), oid, version);
          }
          client_.cache().InvalidateCached(Oid(oid), version);
          callback_frames_.Add();
        }
        (void)sock_.WriteFrame(write_mu_, wire::FrameType::kCallbackAck,
                               header.seq, {}, &bytes_out_);
        break;
      }
      default:
        break;  // server never sends REQUEST/ONEWAY; ignore
    }
  }
  connected_.store(false);
  FailAllPending(shutting_down_.load() ? Status::IOError("client shut down")
                                       : st);
  // Keep the inbox open across a disconnect: a Reconnect()ed session keeps
  // using it, and the DLC pump tolerates an idle one. It closes for good
  // at destruction.
  if (shutting_down_.load()) client_.inbox().Close();
}

// ---------------------------------------------------------------------------
// ServerChannel
// ---------------------------------------------------------------------------


template <typename T, typename Decode>
Result<T> TcpChannel::CallFor(wire::Method method,
                              const std::vector<uint8_t>& body, Decode decode,
                              bool count_rpc) {
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(method, body, count_rpc, &reply, &at));
  Decoder dec(reply.data() + at, reply.size() - at);
  T out{};
  IDBA_RETURN_NOT_OK(decode(&dec, &out));
  return out;
}

Result<ClassId> TcpChannel::DefineClass(const std::string& name,
                                        ClassId base) {
  IDBA_ASSIGN_OR_RETURN(
      ClassId remote_id,
      CallFor<ClassId>(
          wire::Method::kDefineClass, Body(name, base),
          [](Decoder* dec, ClassId* out) { return dec->GetU32(out); },
          /*count_rpc=*/false));
  // Replay into the local catalog so class ids (and object layouts) match
  // the server's exactly.
  IDBA_ASSIGN_OR_RETURN(ClassId local_id, schema_.DefineClass(name, base));
  if (local_id != remote_id) {
    return Status::Internal("schema divergence: server assigned class " +
                            std::to_string(remote_id) + ", local replay " +
                            std::to_string(local_id));
  }
  return remote_id;
}

Status TcpChannel::AddAttribute(ClassId cls, const std::string& name,
                                ValueType type, Value default_value) {
  IDBA_RETURN_NOT_OK(Call(wire::Method::kAddAttribute,
                          Body(cls, name, type, default_value),
                          /*count_rpc=*/false));
  return schema_.AddAttribute(cls, name, type, std::move(default_value));
}

Result<TxnId> TcpChannel::Begin() {
  IDBA_ASSIGN_OR_RETURN(uint64_t txn,
                        CallFor<uint64_t>(wire::Method::kBegin, {}, DecodeU64,
                                          /*count_rpc=*/false));
  if (txn == 0) return Status::Internal("server assigned txn id 0");
  return txn;
}

Result<DatabaseObject> TcpChannel::Fetch(TxnId txn, Oid oid) {
  return CallFor<DatabaseObject>(wire::Method::kFetch, Body(txn, oid),
                                 DatabaseObject::DecodeFrom);
}

Result<DatabaseObject> TcpChannel::FetchCurrent(Oid oid, bool register_copy) {
  return CallFor<DatabaseObject>(wire::Method::kFetchCurrent,
                                 Body(oid, register_copy),
                                 DatabaseObject::DecodeFrom);
}

Status TcpChannel::LockForRead(TxnId txn, Oid oid) {
  return Call(wire::Method::kLockForRead, Body(txn, oid));
}

Status TcpChannel::Put(TxnId txn, DatabaseObject obj) {
  return Call(wire::Method::kPut, Body(txn, obj));
}

Status TcpChannel::Insert(TxnId txn, DatabaseObject obj) {
  return Call(wire::Method::kInsert, Body(txn, obj));
}

Status TcpChannel::Erase(TxnId txn, Oid oid) {
  return Call(wire::Method::kErase, Body(txn, oid));
}

Result<CommitResult> TcpChannel::Commit(TxnId txn) {
  return CallFor<CommitResult>(wire::Method::kCommit, Body(txn),
                               wire::DecodeCommitResult);
}

Result<CommitResult> TcpChannel::CommitValidated(TxnId txn,
                                                 const ReadSet& read_set) {
  return CallFor<CommitResult>(wire::Method::kCommitValidated,
                               Body(txn, read_set), wire::DecodeCommitResult);
}

Status TcpChannel::Abort(TxnId txn) {
  return Call(wire::Method::kAbort, Body(txn));
}

Result<std::vector<DatabaseObject>> TcpChannel::ScanClass(
    ClassId cls, bool include_subclasses) {
  return CallFor<std::vector<DatabaseObject>>(wire::Method::kScanClass,
                                              Body(cls, include_subclasses),
                                              wire::DecodeObjectVector);
}

Result<std::vector<DatabaseObject>> TcpChannel::Query(
    const ObjectQuery& query) {
  return CallFor<std::vector<DatabaseObject>>(
      wire::Method::kQuery, Body(query), wire::DecodeObjectVector);
}

Result<Oid> TcpChannel::AllocateOid() {
  IDBA_ASSIGN_OR_RETURN(uint64_t oid,
                        CallFor<uint64_t>(wire::Method::kAllocateOid, {},
                                          DecodeU64, /*count_rpc=*/false));
  if (oid == 0) return Status::Internal("server allocated the null oid");
  return Oid(oid);
}

Result<uint64_t> TcpChannel::GetVersion(Oid oid) {
  return CallFor<uint64_t>(wire::Method::kGetVersion, Body(oid), DecodeU64,
                           /*count_rpc=*/false);
}

void TcpChannel::NoteEvicted(Oid oid) {
  SendOneWay(wire::Method::kNoteEvicted, Body(oid));
}

// ---------------------------------------------------------------------------
// RemoteDatabaseClient
// ---------------------------------------------------------------------------

RemoteDatabaseClient::RemoteDatabaseClient(ClientId id,
                                           const RemoteClientOptions& opts)
    : ClientApi(id, channel_, opts), channel_(*this, opts) {}

Result<std::unique_ptr<RemoteDatabaseClient>> RemoteDatabaseClient::Connect(
    const std::string& host, uint16_t port, ClientId id,
    RemoteClientOptions opts) {
  std::unique_ptr<RemoteDatabaseClient> client(
      new RemoteDatabaseClient(id, opts));
  IDBA_RETURN_NOT_OK(client->channel_.Open(host, port));
  return client;
}

Status RemoteDatabaseClient::Reconnect(int max_attempts) {
  return channel_.Reconnect(max_attempts,
                            [this] { return ReplayDisplayLocks(); });
}

Status RemoteDatabaseClient::Lock(ClientId holder, Oid oid, VTime sent_at) {
  return Granted(channel_.Call(wire::Method::kDlmLock,
                               Body(sent_at, holder, oid), false),
                 {oid});
}

Status RemoteDatabaseClient::LockBatch(ClientId holder,
                                       const std::vector<Oid>& oids,
                                       VTime sent_at) {
  return Granted(channel_.Call(wire::Method::kDlmLockBatch,
                               Body(sent_at, holder, oids), false),
                 oids);
}

Status RemoteDatabaseClient::Unlock(ClientId holder, Oid oid, VTime sent_at) {
  Released({oid});
  return channel_.Call(wire::Method::kDlmUnlock, Body(sent_at, holder, oid),
                       false);
}

Status RemoteDatabaseClient::UnlockBatch(ClientId holder,
                                         const std::vector<Oid>& oids,
                                         VTime sent_at) {
  Released(oids);
  return channel_.Call(wire::Method::kDlmUnlockBatch,
                       Body(sent_at, holder, oids), false);
}

Status RemoteDatabaseClient::Granted(Status st, const std::vector<Oid>& oids) {
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_display_locks_.insert(oids.begin(), oids.end());
  }
  return st;
}

void RemoteDatabaseClient::Released(const std::vector<Oid>& oids) {
  // Dropped from the held set even if the RPC fails: the caller no longer
  // wants notifications for these objects, so a failed unlock must not be
  // resurrected by a later Reconnect() replay.
  std::lock_guard<std::mutex> lock(held_mu_);
  for (Oid oid : oids) held_display_locks_.erase(oid);
}

size_t RemoteDatabaseClient::held_display_locks() const {
  std::lock_guard<std::mutex> lock(held_mu_);
  return held_display_locks_.size();
}

Status RemoteDatabaseClient::ReplayDisplayLocks() {
  // A reconnected session may face a *restarted* server whose virtual
  // clocks (and re-seeded object versions) start over below our old
  // watermarks. Forget everything audited about this subscriber BEFORE the
  // replayed registrations let new notifications flow — watermarks are
  // reset, not replayed, so post-restart vtimes are not false regressions.
  obs::GlobalAuditor().OnSessionReset(id());
  std::vector<Oid> held;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    held.assign(held_display_locks_.begin(), held_display_locks_.end());
  }
  if (!held.empty()) {
    IDBA_RETURN_NOT_OK(channel_.Call(wire::Method::kDlmReregister,
                                     Body(clock().Now(), id(), held),
                                     /*count_rpc=*/false));
  }
  // Updates committed while we were disconnected produced no notifications
  // for us: force every display through the resync path (full refetch),
  // exactly as if the server had shed our stream.
  auto msg = std::make_shared<ResyncNotifyMessage>();
  msg->resync_vtime = clock().Now();
  Envelope env;
  env.from = 0;
  env.to = id();
  env.sent_at = msg->resync_vtime;
  env.arrives_at = msg->resync_vtime;
  env.wire_bytes = msg->WireBytes();
  env.msg = std::move(msg);
  inbox().Deliver(std::move(env));
  return Status::OK();
}

}  // namespace idba
