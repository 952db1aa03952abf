#include "server/callback_manager.h"

#include "obs/trace.h"

namespace idba {

void CallbackManager::RegisterClient(ClientId client, CacheCallbackHandler* handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[client] = handler;
}

void CallbackManager::UnregisterClient(ClientId client) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.erase(client);
  auto it = by_client_.find(client);
  if (it != by_client_.end()) {
    for (const Oid& oid : it->second) {
      auto cit = copies_.find(oid);
      if (cit != copies_.end()) {
        cit->second.erase(client);
        if (cit->second.empty()) copies_.erase(cit);
      }
    }
    by_client_.erase(it);
  }
}

bool CallbackManager::NoteCached(ClientId client, Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  by_client_[client].insert(oid);
  return copies_[oid].insert(client).second;
}

void CallbackManager::NoteDropped(ClientId client, Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto cit = copies_.find(oid);
  if (cit != copies_.end()) {
    cit->second.erase(client);
    if (cit->second.empty()) copies_.erase(cit);
  }
  auto bit = by_client_.find(client);
  if (bit != by_client_.end()) bit->second.erase(oid);
}

int CallbackManager::OnCommittedUpdate(ClientId writer, Oid oid,
                                       uint64_t new_version) {
  // Snapshot targets under the lock, call back outside it: a handler may
  // re-enter (e.g. report a drop).
  std::vector<std::pair<ClientId, CacheCallbackHandler*>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cit = copies_.find(oid);
    if (cit == copies_.end()) return 0;
    for (ClientId c : cit->second) {
      if (c == writer) continue;
      auto hit = handlers_.find(c);
      if (hit != handlers_.end()) targets.emplace_back(c, hit->second);
    }
    // Called-back copies are dropped from the registry: the clients no
    // longer hold valid copies.
    for (const auto& [c, h] : targets) {
      cit->second.erase(c);
      auto bit = by_client_.find(c);
      if (bit != by_client_.end()) bit->second.erase(oid);
    }
    if (cit->second.empty()) copies_.erase(cit);
  }
  if (!targets.empty()) {
    // Blocks until every holder acks (invalidate-before-commit), so this
    // span is the commit's callback-wait time.
    IDBA_TRACE_SPAN("server.callback_fanout");
    for (const auto& [c, h] : targets) {
      h->InvalidateCached(oid, new_version);
      callbacks_.Add();
    }
  }
  return static_cast<int>(targets.size());
}

std::vector<ClientId> CallbackManager::CopyHolders(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientId> out;
  auto it = copies_.find(oid);
  if (it == copies_.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  return out;
}

std::map<ClientId, size_t> CallbackManager::CopyCountsByClient() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<ClientId, size_t> out;
  for (const auto& [client, oids] : by_client_) out[client] = oids.size();
  return out;
}

}  // namespace idba
