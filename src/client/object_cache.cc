#include "client/object_cache.h"

namespace idba {

ObjectCache::ObjectCache(ObjectCacheOptions opts) : opts_(opts) {
  // Canonical "client database cache" level: the registry sums over every
  // in-process client; per-instance accessors stay exact.
  MetricsRegistry& reg = GlobalMetrics();
  hits_.BindGlobal(reg.GetCounter("cache.object.hits"));
  misses_.BindGlobal(reg.GetCounter("cache.object.misses"));
  invalidations_.BindGlobal(reg.GetCounter("cache.object.invalidations"));
  evictions_.BindGlobal(reg.GetCounter("cache.object.evictions"));
  entries_gauge_ = ScopedGauge(&reg, "cache.object.entries",
                               [this] { return double(entry_count()); });
  bytes_gauge_ = ScopedGauge(&reg, "cache.object.bytes_used",
                             [this] { return double(bytes_used()); });
}

std::optional<DatabaseObject> ObjectCache::Get(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    misses_.Add();
    return std::nullopt;
  }
  hits_.Add();
  lru_.erase(it->second.lru_pos);
  lru_.push_back(oid);
  it->second.lru_pos = std::prev(lru_.end());
  return it->second.obj;
}

void ObjectCache::Put(const DatabaseObject& obj) { Install(obj, nullptr); }

ObjectCache::FillWindow::FillWindow(ObjectCache& cache) : cache_(cache) {
  std::lock_guard<std::mutex> lock(cache_.mu_);
  ++cache_.fills_open_;
  opened_at_ = cache_.epoch_;
}

ObjectCache::FillWindow::~FillWindow() {
  std::lock_guard<std::mutex> lock(cache_.mu_);
  if (--cache_.fills_open_ == 0) {
    cache_.invalidated_at_.clear();
    cache_.cleared_at_ = 0;
  }
}

void ObjectCache::FillWindow::Put(const DatabaseObject& obj) {
  cache_.Install(obj, &opened_at_);
}

void ObjectCache::Install(const DatabaseObject& obj,
                          const uint64_t* fill_opened_at) {
  std::vector<Oid> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fill_opened_at != nullptr) {
      auto inv = invalidated_at_.find(obj.oid());
      if (cleared_at_ > *fill_opened_at ||
          (inv != invalidated_at_.end() && inv->second > *fill_opened_at)) {
        return;
      }
    }
    size_t bytes = obj.MemoryBytes();
    EraseLocked(obj.oid());
    lru_.push_back(obj.oid());
    entries_[obj.oid()] = Entry{obj, bytes, std::prev(lru_.end())};
    bytes_used_ += bytes;
    EvictIfNeededLocked(&evicted);
  }
  if (on_evict_) {
    for (Oid oid : evicted) on_evict_(oid);
  }
}

void ObjectCache::EvictIfNeededLocked(std::vector<Oid>* evicted) {
  while (bytes_used_ > opts_.capacity_bytes && lru_.size() > 1) {
    Oid victim = lru_.front();
    EraseLocked(victim);
    evictions_.Add();
    evicted->push_back(victim);
  }
}

void ObjectCache::InvalidateCached(Oid oid, uint64_t /*new_version*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fills_open_ > 0) invalidated_at_[oid] = ++epoch_;
  if (EraseLocked(oid)) invalidations_.Add();
}

void ObjectCache::Drop(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  EraseLocked(oid);
}

bool ObjectCache::EraseLocked(Oid oid) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return false;
  bytes_used_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  return true;
}

void ObjectCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fills_open_ > 0) cleared_at_ = ++epoch_;
  entries_.clear();
  lru_.clear();
  bytes_used_ = 0;
}

bool ObjectCache::Contains(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(oid) != 0;
}

size_t ObjectCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t ObjectCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

}  // namespace idba
