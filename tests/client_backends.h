// Runs client-logic tests on both channels under ClientApi: in process
// (DatabaseClient) and over loopback TCP (RemoteDatabaseClient).

#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "client/database_client.h"
#include "core/session.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"

namespace idba {

enum class Backend { kInProcess, kTcp };

inline const char* BackendName(Backend backend) {
  return backend == Backend::kInProcess ? "in-process" : "tcp";
}

/// One deployment; for kTcp also a TransportServer on an ephemeral port.
class BackendRig {
 public:
  explicit BackendRig(Backend backend) : backend_(backend) {}
  ~BackendRig() { transport_.reset(); }  // before the deployment

  Deployment& deployment() { return deployment_; }
  DatabaseServer& server() { return deployment_.server(); }

  /// A client over this rig's channel. A remote client snapshots the
  /// schema when it connects: define classes first.
  std::unique_ptr<ClientApi> Connect(ClientId id, ClientOptions opts = {}) {
    if (backend_ == Backend::kInProcess) {
      return std::make_unique<DatabaseClient>(&server(), id,
                                              &deployment_.meter(),
                                              &deployment_.bus(), opts);
    }
    if (transport_ == nullptr) {
      transport_ = std::make_unique<TransportServer>(
          &server(), &deployment_.dlm(), &deployment_.bus(),
          &deployment_.meter());
      EXPECT_TRUE(transport_->Start().ok());
    }
    RemoteClientOptions remote;
    static_cast<ClientOptions&>(remote) = opts;
    auto client = RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(),
                                                id, remote);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) return nullptr;
    return std::move(client).value();
  }

 private:
  Backend backend_;
  Deployment deployment_;
  std::unique_ptr<TransportServer> transport_;
};

/// Runs `body` once per backend, each on a fresh rig.
inline void ForEachBackend(const std::function<void(BackendRig&)>& body) {
  for (Backend backend : {Backend::kInProcess, Backend::kTcp}) {
    SCOPED_TRACE(BackendName(backend));
    BackendRig rig(backend);
    body(rig);
  }
}

}  // namespace idba
