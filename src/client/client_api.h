// The caching client, written once over a ServerChannel.
//
// ClientApi is the handle an interactive application programs against: the
// transactional and query operations plus the client-local runtime pieces
// (object cache, notification inbox, virtual clock) that the display layer
// (DLC, ActiveView) needs. It holds the paper's client protocol (§3.3)
// once: avoidance-based callback caching, or detection-based validation of
// optimistic read sets at commit. It reaches the server only through a
// ServerChannel, which has two implementations: InProcessChannel
// (client/database_client.h, direct DatabaseServer calls) and TcpChannel
// (net/remote_client.h, the wire protocol). Application code written
// against ClientApi runs unchanged over either.
//
// DisplayLockService is the corresponding abstraction of the Display Lock
// Manager's request surface: in-process the DLC talks straight to the
// DisplayLockManager; remotely, RemoteDatabaseClient forwards the requests
// as wire frames to the server-hosted DLM.

#pragma once

#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/object_cache.h"
#include "common/cost_model.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/vtime.h"
#include "net/inbox.h"
#include "objectmodel/object.h"
#include "objectmodel/query.h"
#include "objectmodel/schema.h"
#include "server/callback_manager.h"
#include "txn/txn_manager.h"

namespace idba {

/// Client cache consistency family (paper §3.3). Avoidance (the default,
/// and the paper's choice for displays) guarantees cached copies are valid
/// via server callbacks; detection allows stale copies and validates a
/// transaction's optimistic reads at commit, aborting on staleness.
enum class ConsistencyMode { kAvoidance, kDetection };

/// Options every client has, whichever channel it runs over.
struct ClientOptions {
  ObjectCacheOptions cache;
  ConsistencyMode consistency = ConsistencyMode::kAvoidance;
  /// Report cache evictions to the server (keeps the callback registry
  /// tight).
  bool report_evictions = true;
  /// Bounds for the notification inbox (0 = unbounded, the default).
  /// Bounding adds the coalesce/shed/overflow degradation ladder of
  /// net/inbox.h; the DLC pump answers an overflow with a full resync.
  InboxOptions inbox;
};

class ClientApi;

/// The server's per-client request surface, as seen by one client. Fetch
/// through Query are round trips: each advances the client's virtual clock
/// and counts in its rpcs_issued(). The other calls are not counted.
class ServerChannel {
 public:
  explicit ServerChannel(ClientApi& client) : client_(client) {}
  virtual ~ServerChannel() = default;
  ServerChannel(const ServerChannel&) = delete;
  ServerChannel& operator=(const ServerChannel&) = delete;

  virtual const SchemaCatalog& schema() const = 0;
  virtual const CostModel& cost_model() const = 0;
  /// Retry-after hint (ms) from the most recent Status::Overloaded
  /// rejection; 0 when none (an in-process server never sheds).
  virtual int64_t retry_after_hint_ms() const { return 0; }

  virtual Result<ClassId> DefineClass(const std::string& name,
                                      ClassId base) = 0;
  virtual Status AddAttribute(ClassId cls, const std::string& name,
                              ValueType type, Value default_value) = 0;

  // The DatabaseServer methods of the same names, for this client.
  virtual Result<TxnId> Begin() = 0;
  virtual Result<DatabaseObject> Fetch(TxnId txn, Oid oid) = 0;
  virtual Result<DatabaseObject> FetchCurrent(Oid oid, bool register_copy) = 0;
  virtual Status LockForRead(TxnId txn, Oid oid) = 0;
  virtual Status Put(TxnId txn, DatabaseObject obj) = 0;
  virtual Status Insert(TxnId txn, DatabaseObject obj) = 0;
  virtual Status Erase(TxnId txn, Oid oid) = 0;
  virtual Result<CommitResult> Commit(TxnId txn) = 0;
  virtual Result<CommitResult> CommitValidated(TxnId txn,
                                               const ReadSet& read_set) = 0;
  virtual Status Abort(TxnId txn) = 0;
  virtual Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses) = 0;
  virtual Result<std::vector<DatabaseObject>> Query(
      const ObjectQuery& query) = 0;
  virtual Result<Oid> AllocateOid() = 0;
  virtual Result<uint64_t> GetVersion(Oid oid) = 0;
  virtual void NoteEvicted(Oid oid) = 0;

 protected:
  /// Counts one completed round trip against the client's rpcs_issued().
  void CountRoundTrip();
  /// Forgets every cached copy and open read set: the session that
  /// registered them is gone (a reconnect).
  void DropSession();

  ClientApi& client_;
};

/// The application-facing database handle, independent of transport.
/// Thread-compatible: the application drives it from its user thread(s);
/// a notification pump or a transport reader may concurrently touch the
/// cache (which is internally synchronized).
class ClientApi {
 public:
  /// `channel` may still be under construction: it is first used after
  /// this constructor returns.
  ClientApi(ClientId id, ServerChannel& channel, const ClientOptions& opts);
  virtual ~ClientApi() = default;
  ClientApi(const ClientApi&) = delete;
  ClientApi& operator=(const ClientApi&) = delete;

  ClientId id() const { return id_; }
  VirtualClock& clock() { return clock_; }
  Inbox& inbox() { return inbox_; }
  ObjectCache& cache() { return cache_; }
  const SchemaCatalog& schema() const { return channel_.schema(); }
  const CostModel& cost_model() const { return channel_.cost_model(); }
  ConsistencyMode consistency() const { return opts_.consistency; }

  // --- Schema administration (setup phase; DDL travels with the client
  // connection, like any client-server DBMS) ----------------------------
  Result<ClassId> DefineClass(const std::string& name, ClassId base = 0) {
    return channel_.DefineClass(name, base);
  }
  Status AddAttribute(ClassId cls, const std::string& name, ValueType type,
                      Value default_value = Value()) {
    return channel_.AddAttribute(cls, name, type, std::move(default_value));
  }

  // --- Transactions ----------------------------------------------------
  /// Starts a transaction. Fallible: over a remote backend the begin is an
  /// RPC that can time out or lose its connection.
  Result<TxnId> BeginTxn() { return channel_.Begin(); }
  /// Convenience wrapper for call sites that treat begin as infallible
  /// (in-process it is). Returns 0 — never a valid TxnId — on transport
  /// failure; prefer BeginTxn() anywhere the error must propagate.
  TxnId Begin() {
    Result<TxnId> txn = BeginTxn();
    return txn.ok() ? txn.value() : 0;
  }
  /// Transactional read (S lock at the server on a miss; a lock-only round
  /// trip on an avoidance hit; free on a detection hit).
  Result<DatabaseObject> Read(TxnId txn, Oid oid);
  /// Degree-0 read of the latest committed image (display building).
  Result<DatabaseObject> ReadCurrent(Oid oid);
  Status Write(TxnId txn, DatabaseObject obj) {
    return channel_.Put(txn, std::move(obj));
  }
  Status Insert(TxnId txn, DatabaseObject obj) {
    return channel_.Insert(txn, std::move(obj));
  }
  Status EraseObject(TxnId txn, Oid oid) { return channel_.Erase(txn, oid); }
  Result<CommitResult> Commit(TxnId txn);
  Status Abort(TxnId txn);

  // --- Bulk reads (degree-0; results enter the cache) -------------------
  Result<std::vector<DatabaseObject>> ScanClass(ClassId cls,
                                                bool include_subclasses = false);
  Result<std::vector<DatabaseObject>> RunQuery(const ObjectQuery& query);

  /// Reserves a fresh object id. Fallible for the same reason as
  /// BeginTxn().
  Result<Oid> NewOid() { return channel_.AllocateOid(); }
  /// Convenience wrapper; returns the null Oid on transport failure.
  Oid AllocateOid() {
    Result<Oid> oid = NewOid();
    return oid.ok() ? oid.value() : Oid();
  }

  /// Latest committed version of `oid` (introspection used by staleness
  /// accounting; not metered, not transactional).
  Result<uint64_t> LatestVersion(Oid oid) { return channel_.GetVersion(oid); }

  uint64_t rpcs_issued() const { return rpcs_.Get(); }
  /// Validation aborts suffered (detection mode only).
  uint64_t validation_aborts() const { return validation_aborts_.Get(); }
  /// Retry-after hint (ms) from the most recent Status::Overloaded
  /// rejection this client received; 0 when none. Retry loops
  /// (RunTransaction) use it as a backoff floor.
  int64_t retry_after_hint_ms() const {
    return channel_.retry_after_hint_ms();
  }

 private:
  friend class ServerChannel;

  void RecordRead(TxnId txn, const DatabaseObject& obj);
  /// Removes and returns `txn`'s read set.
  ReadSet TakeReadSet(TxnId txn);
  void DropSession();

  const ClientId id_;
  const ClientOptions opts_;
  ServerChannel& channel_;
  ObjectCache cache_;
  Inbox inbox_;
  VirtualClock clock_;
  Counter rpcs_;
  Counter validation_aborts_;
  // Detection mode: optimistic read sets per open transaction.
  std::mutex read_sets_mu_;
  std::unordered_map<TxnId, ReadSet> read_sets_;
};

/// The DLM request surface as seen from a client (paper §4.1: lock/unlock
/// messages; batches are the one-message-per-view optimization).
class DisplayLockService {
 public:
  virtual ~DisplayLockService() = default;
  virtual Status Lock(ClientId holder, Oid oid, VTime sent_at) = 0;
  virtual Status Unlock(ClientId holder, Oid oid, VTime sent_at) = 0;
  virtual Status LockBatch(ClientId holder, const std::vector<Oid>& oids,
                           VTime sent_at) = 0;
  virtual Status UnlockBatch(ClientId holder, const std::vector<Oid>& oids,
                             VTime sent_at) = 0;
};

}  // namespace idba
