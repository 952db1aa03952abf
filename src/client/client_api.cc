#include "client/client_api.h"

namespace idba {

void ServerChannel::CountRoundTrip() { client_.rpcs_.Add(); }

void ServerChannel::DropSession() { client_.DropSession(); }

ClientApi::ClientApi(ClientId id, ServerChannel& channel,
                     const ClientOptions& opts)
    : id_(id), opts_(opts), channel_(channel), cache_(opts.cache),
      inbox_(opts.inbox) {
  if (opts_.report_evictions) {
    cache_.set_eviction_callback([this](Oid oid) { channel_.NoteEvicted(oid); });
  }
}

void ClientApi::RecordRead(TxnId txn, const DatabaseObject& obj) {
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  read_sets_[txn].emplace_back(obj.oid(), obj.version());
}

void ClientApi::DropSession() {
  cache_.Clear();
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  read_sets_.clear();
}

ReadSet ClientApi::TakeReadSet(TxnId txn) {
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  auto node = read_sets_.extract(txn);
  return node ? std::move(node.mapped()) : ReadSet();
}

Result<DatabaseObject> ClientApi::Read(TxnId txn, Oid oid) {
  const bool detection = opts_.consistency == ConsistencyMode::kDetection;
  if (auto cached = cache_.Get(oid)) {
    if (detection) {
      // Detection: optimistic — remember the version we acted on so the
      // commit can validate it.
      RecordRead(txn, *cached);
      return *cached;
    }
    // Avoidance: the copy is valid, but an update transaction acting on it
    // must hold the S lock so no writer can slip a commit between this
    // read and our own commit. (Real callback-locking caches the lock too;
    // without lock caching the grant costs a small lock-only round trip.
    // Display reads use ReadCurrent and stay communication-free.)
    IDBA_RETURN_NOT_OK(channel_.LockForRead(txn, oid));
    // Re-check: the copy may have been invalidated while we waited for the
    // lock; with S now held, a present copy is guaranteed current.
    if (auto still = cache_.Get(oid)) return *still;
    // Fall through to fetch (S lock already held, fetch re-grants cheaply).
  }
  // Detection reads optimistically: no S lock held, copy not tracked by
  // the server.
  IDBA_ASSIGN_OR_RETURN(DatabaseObject obj,
                        detection ? channel_.FetchCurrent(oid, false)
                                  : channel_.Fetch(txn, oid));
  if (detection) RecordRead(txn, obj);
  cache_.Put(obj);
  return obj;
}

Result<DatabaseObject> ClientApi::ReadCurrent(Oid oid) {
  if (auto cached = cache_.Get(oid)) return *cached;
  ObjectCache::FillWindow fill(cache_);
  IDBA_ASSIGN_OR_RETURN(
      DatabaseObject obj,
      channel_.FetchCurrent(
          oid, /*register_copy=*/opts_.consistency == ConsistencyMode::kAvoidance));
  fill.Put(obj);
  return obj;
}

Result<CommitResult> ClientApi::Commit(TxnId txn) {
  Result<CommitResult> result = Status::OK();
  if (opts_.consistency == ConsistencyMode::kDetection) {
    const ReadSet read_set = TakeReadSet(txn);
    result = channel_.CommitValidated(txn, read_set);
    if (!result.ok() && result.status().IsAborted()) {
      validation_aborts_.Add();
      // Our optimistic copies proved stale; drop them so the retry
      // re-fetches current images.
      for (const auto& [oid, version] : read_set) cache_.Drop(oid);
    }
  } else {
    result = channel_.Commit(txn);
  }
  if (result.ok()) {
    // The writer's own cache is refreshed from the commit reply
    // (write-all includes the writer's copy) — unless a later commit has
    // called the copy back meanwhile.
    ObjectCache::FillWindow refresh(cache_);
    for (const DatabaseObject& obj : result.value().updated) {
      if (cache_.Contains(obj.oid())) refresh.Put(obj);
    }
    for (Oid oid : result.value().erased) cache_.Drop(oid);
  }
  return result;
}

Status ClientApi::Abort(TxnId txn) {
  (void)TakeReadSet(txn);
  return channel_.Abort(txn);
}

Result<std::vector<DatabaseObject>> ClientApi::ScanClass(
    ClassId cls, bool include_subclasses) {
  ObjectCache::FillWindow fill(cache_);
  IDBA_ASSIGN_OR_RETURN(std::vector<DatabaseObject> objs,
                        channel_.ScanClass(cls, include_subclasses));
  for (const DatabaseObject& obj : objs) fill.Put(obj);
  return objs;
}

Result<std::vector<DatabaseObject>> ClientApi::RunQuery(
    const ObjectQuery& query) {
  ObjectCache::FillWindow fill(cache_);
  IDBA_ASSIGN_OR_RETURN(std::vector<DatabaseObject> objs,
                        channel_.Query(query));
  for (const DatabaseObject& obj : objs) fill.Put(obj);
  return objs;
}

}  // namespace idba
