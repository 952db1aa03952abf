// Client database cache (the paper's "client database caching", §2.2).
//
// Caches whole DatabaseObjects across transaction boundaries under the
// avoidance-based protocol: entries are guaranteed valid because the server
// calls back (InvalidateCached) before any update commit completes.
// Replacement is LRU over a byte budget — deliberately *not* controllable
// by the GUI, which is exactly the drawback (§2.2) the display cache fixes.

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/metrics.h"
#include "objectmodel/object.h"
#include "server/callback_manager.h"

namespace idba {

struct ObjectCacheOptions {
  size_t capacity_bytes = 4 * 1024 * 1024;
};

/// Eviction observer (the client runtime reports drops to the server so
/// the callback registry stays tight).
using EvictionCallback = std::function<void(Oid)>;

/// Thread-safe LRU object cache implementing the server's callback
/// interface.
class ObjectCache : public CacheCallbackHandler {
 public:
  explicit ObjectCache(ObjectCacheOptions opts = {});

  /// Returns the cached copy if present (valid by protocol).
  std::optional<DatabaseObject> Get(Oid oid);

  /// Inserts/overwrites a copy, evicting LRU entries over budget.
  void Put(const DatabaseObject& obj);

  /// One degree-0 fill in flight: a ReadCurrent fetch, a scan or a query
  /// result. The server registers each copy before reading it, but the
  /// images reach this cache unordered against callbacks. A callback that
  /// arrives while the fill is in flight either carries a newer version
  /// (the image is stale) or has consumed the copy's registration (the
  /// image would go unprotected); which one, the version cannot tell. So
  /// the window's Put drops an image whose oid was invalidated, or the
  /// whole cache cleared, after the window opened. The cache keeps those
  /// marks only while some window is open.
  class FillWindow {
   public:
    explicit FillWindow(ObjectCache& cache);
    ~FillWindow();
    FillWindow(const FillWindow&) = delete;
    FillWindow& operator=(const FillWindow&) = delete;

    /// Put() unless `obj`'s oid was invalidated since the window opened.
    void Put(const DatabaseObject& obj);

   private:
    ObjectCache& cache_;
    uint64_t opened_at_;
  };

  /// Server callback: drop the copy (a newer version committed).
  void InvalidateCached(Oid oid, uint64_t new_version) override;

  /// Drops an entry locally (no server involvement).
  void Drop(Oid oid);
  void Clear();

  void set_eviction_callback(EvictionCallback cb) { on_evict_ = std::move(cb); }

  bool Contains(Oid oid) const;
  size_t entry_count() const;
  size_t bytes_used() const;
  size_t capacity_bytes() const { return opts_.capacity_bytes; }

  uint64_t hits() const { return hits_.Get(); }
  uint64_t misses() const { return misses_.Get(); }
  uint64_t invalidations() const { return invalidations_.Get(); }
  uint64_t evictions() const { return evictions_.Get(); }

 private:
  struct Entry {
    DatabaseObject obj;
    size_t bytes;
    std::list<Oid>::iterator lru_pos;
  };
  /// Installs `obj`; with `fill_opened_at`, only if its oid was not
  /// invalidated after that epoch.
  void Install(const DatabaseObject& obj, const uint64_t* fill_opened_at);
  void EvictIfNeededLocked(std::vector<Oid>* evicted);
  /// Removes `oid`'s entry; false when there is none.
  bool EraseLocked(Oid oid);

  ObjectCacheOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<Oid, Entry> entries_;
  std::list<Oid> lru_;  // front = least recently used
  size_t bytes_used_ = 0;
  EvictionCallback on_evict_;
  // Fill windows: each invalidation (and Clear) while one is open takes
  // the next epoch and stamps it on its oid (on the whole cache).
  int fills_open_ = 0;
  uint64_t epoch_ = 0;
  uint64_t cleared_at_ = 0;
  std::unordered_map<Oid, uint64_t> invalidated_at_;
  MirroredCounter hits_, misses_, invalidations_, evictions_;
  // Declared last so the gauges unregister before the cache state they read.
  ScopedGauge entries_gauge_, bytes_gauge_;
};

}  // namespace idba
