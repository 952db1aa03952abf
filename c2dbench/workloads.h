// The three workloads and the set-up they share. Each drives only the
// library's public entry points and fills a RunResult: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one.

#pragma once

#include <memory>
#include <string>

#include "core/session.h"
#include "harness.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

namespace c2d {

RunResult RunDisplayTcp(const RunOptions& opts);
RunResult RunCommitDurable(const RunOptions& opts);
RunResult RunBrowseTcp(const RunOptions& opts);

/// A managed network of about 1.5 * num_nodes links with the smallest
/// hardware hierarchy PopulateNms builds; topology and initial values come
/// from `seed`.
idba::NmsConfig NetworkConfig(uint64_t seed, int num_nodes);

/// The Utilization a display object shows (NaN when absent).
double Shown(const idba::DisplayObject& dob);

/// Sets a link's Utilization (the benchmark's payload) on a fetched image.
idba::Status SetUtilization(const idba::SchemaCatalog& catalog,
                            idba::DatabaseObject* obj, double value);
/// The Utilization stored in a database object (NaN when absent).
double StoredUtilization(const idba::SchemaCatalog& catalog,
                         const idba::DatabaseObject& obj);

/// One read-modify-write transaction setting `oid`'s Utilization to
/// `value`. In a traced run it records an "update" span (id `span_id`, or a
/// fresh one) under `parent`, with client.begin/read/write/commit children.
idba::Status UpdateLink(idba::ClientApi* client, idba::Oid oid, double value,
                        uint64_t trace, uint64_t parent, uint64_t span_id = 0);

/// One operator over TCP: its RemoteDatabaseClient inside a session.
struct RemoteSession {
  idba::RemoteDatabaseClient* remote = nullptr;  ///< owned by `session`
  std::unique_ptr<idba::InteractiveSession> session;
};

/// In-memory deployment + populated NMS database + display classes + a
/// loopback TransportServer with default pool sizes.
class TcpRig {
 public:
  static idba::Result<std::unique_ptr<TcpRig>> Create(
      const idba::NmsConfig& config);
  ~TcpRig();

  idba::Result<std::unique_ptr<idba::RemoteDatabaseClient>> ConnectClient(
      idba::ClientId id);
  idba::Result<RemoteSession> ConnectSession(idba::ClientId id);

  idba::Deployment& deployment() { return deployment_; }
  idba::TransportServer& transport() { return *transport_; }
  const idba::NmsDatabase& db() const { return db_; }
  const idba::DisplayClassDef* color_links();
  const idba::DisplayClassDef* width_links();

 private:
  TcpRig() = default;
  idba::Deployment deployment_;
  idba::NmsDatabase db_;
  idba::NmsDisplayClasses dcs_;
  std::unique_ptr<idba::TransportServer> transport_;
};

}  // namespace c2d
