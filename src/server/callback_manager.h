// Avoidance-based client cache consistency (read-one/write-all).
//
// The server tracks which clients hold cached copies of which objects.
// Cached copies are treated as read-locked across transaction boundaries
// (Franklin's callback-locking family, which the paper names as the
// appropriate substrate for display consistency): before an update commit
// completes, every remote copy is called back (invalidated), so a client
// cache read never observes stale data and costs no server round trip.
//
// Callbacks execute as direct calls into the registered handler (the
// client's cache); the returned callback count lets the commit path charge
// the corresponding virtual message costs.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "objectmodel/oid.h"

namespace idba {

/// Identifies a client runtime (also used as its lock-owner id for D locks
/// and as its endpoint id for notifications).
using ClientId = uint64_t;

/// Implemented by the client-side object cache.
class CacheCallbackHandler {
 public:
  virtual ~CacheCallbackHandler() = default;
  /// The server committed version `new_version` of `oid`; the client must
  /// drop or invalidate its cached copy before this returns.
  virtual void InvalidateCached(Oid oid, uint64_t new_version) = 0;
};

/// Thread-safe registry of cached-copy locations.
class CallbackManager {
 public:
  void RegisterClient(ClientId client, CacheCallbackHandler* handler);
  void UnregisterClient(ClientId client);

  /// Records that `client` now holds a copy of `oid` (fetch reply).
  /// Returns false when the copy was already registered.
  bool NoteCached(ClientId client, Oid oid);
  /// Records that `client` dropped its copy (eviction notice).
  void NoteDropped(ClientId client, Oid oid);

  /// Invalidates all copies of `oid` except the writer's.
  /// Returns the number of callbacks issued (= messages in a real system;
  /// each implies a callback + ack round trip).
  int OnCommittedUpdate(ClientId writer, Oid oid, uint64_t new_version);

  /// Clients currently holding a copy of `oid`.
  std::vector<ClientId> CopyHolders(Oid oid) const;

  /// Registered-copy count per client (the server's view of each client's
  /// object-cache population), sorted by client id. For the CACHES RPC.
  std::map<ClientId, size_t> CopyCountsByClient() const;

  uint64_t callbacks_issued() const { return callbacks_.Get(); }

 private:
  mutable std::mutex mu_;
  std::unordered_map<ClientId, CacheCallbackHandler*> handlers_;
  std::unordered_map<Oid, std::unordered_set<ClientId>> copies_;
  std::unordered_map<ClientId, std::unordered_set<Oid>> by_client_;
  Counter callbacks_;
};

}  // namespace idba
