// The in-process client: ClientApi over InProcessChannel, which calls the
// DatabaseServer directly and charges each round trip's calibrated virtual
// latency through the shared RpcMeter. DatabaseClient wires the channel and
// registers the client's cache with the server and its inbox with the bus.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "client/client_api.h"
#include "net/notification_bus.h"
#include "net/rpc_meter.h"
#include "server/database_server.h"

namespace idba {

using DatabaseClientOptions = ClientOptions;

class InProcessChannel : public ServerChannel {
 private:
  /// Runs `server_->*call(id, args..., &info)` as one metered round trip:
  /// the request's arrival is pushed into the server clock before the call
  /// (so commit hooks read a causally correct time), and the call's cost is
  /// charged to the client clock after it.
  template <typename Call, typename... Args>
  auto Metered(Call call, Args&&... args) {
    meter_->ObserveRequest(client_.clock().Now(), &server_->cpu_clock());
    ServerCallInfo info;
    auto out = (server_->*call)(client_.id(), std::forward<Args>(args)..., &info);
    Charge(info);
    return out;
  }
  void Charge(const ServerCallInfo& info);

 public:
  InProcessChannel(ClientApi& client, DatabaseServer* server, RpcMeter* meter)
      : ServerChannel(client), server_(server), meter_(meter) {}

  DatabaseServer& server() { return *server_; }

  const SchemaCatalog& schema() const override { return server_->schema(); }
  const CostModel& cost_model() const override { return meter_->cost_model(); }

  // Direct catalog access (setup phase; not metered).
  Result<ClassId> DefineClass(const std::string& name, ClassId base) override {
    return server_->schema().DefineClass(name, base);
  }
  Status AddAttribute(ClassId cls, const std::string& name, ValueType type,
                      Value default_value) override {
    return server_->schema().AddAttribute(cls, name, type,
                                          std::move(default_value));
  }

  /// Begin is piggybacked on the first request in real systems; free here.
  Result<TxnId> Begin() override { return server_->Begin(client_.id()); }
  Result<DatabaseObject> Fetch(TxnId txn, Oid oid) override {
    return Metered(&DatabaseServer::Fetch, txn, oid);
  }
  Result<DatabaseObject> FetchCurrent(Oid oid, bool register_copy) override {
    return Metered(&DatabaseServer::FetchCurrent, oid, register_copy);
  }
  Status LockForRead(TxnId txn, Oid oid) override {
    return Metered(&DatabaseServer::LockForRead, txn, oid);
  }
  Status Put(TxnId txn, DatabaseObject obj) override {
    return Metered(&DatabaseServer::Put, txn, std::move(obj));
  }
  Status Insert(TxnId txn, DatabaseObject obj) override {
    return Metered(&DatabaseServer::Insert, txn, std::move(obj));
  }
  Status Erase(TxnId txn, Oid oid) override {
    return Metered(&DatabaseServer::Erase, txn, oid);
  }
  Result<CommitResult> Commit(TxnId txn) override {
    return Metered(&DatabaseServer::Commit, txn);
  }
  Result<CommitResult> CommitValidated(TxnId txn,
                                       const ReadSet& read_set) override {
    return Metered(&DatabaseServer::CommitValidated, txn, read_set);
  }
  Status Abort(TxnId txn) override {
    return Metered(&DatabaseServer::Abort, txn);
  }
  Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses) override {
    return Metered(&DatabaseServer::ScanClass, cls, include_subclasses);
  }
  Result<std::vector<DatabaseObject>> Query(const ObjectQuery& query) override {
    return Metered(&DatabaseServer::ExecuteQuery, query);
  }
  Result<Oid> AllocateOid() override { return server_->AllocateOid(); }
  Result<uint64_t> GetVersion(Oid oid) override {
    IDBA_ASSIGN_OR_RETURN(DatabaseObject obj, server_->heap().Read(oid));
    return obj.version();
  }
  /// Eviction notices are piggybacked on other traffic in real systems,
  /// so free here.
  void NoteEvicted(Oid oid) override { server_->NoteEvicted(client_.id(), oid); }

 private:
  DatabaseServer* server_;
  RpcMeter* meter_;
};

/// One per application process.
class DatabaseClient : public ClientApi {
 public:
  DatabaseClient(DatabaseServer* server, ClientId id, RpcMeter* meter,
                 NotificationBus* bus, DatabaseClientOptions opts = {});
  ~DatabaseClient() override;

  DatabaseServer& server() { return channel_.server(); }

 private:
  InProcessChannel channel_;
  NotificationBus* bus_;
};

}  // namespace idba
