#include <limits>

#include "workloads.h"

namespace c2d {

using namespace idba;

NmsConfig NetworkConfig(uint64_t seed, int num_nodes) {
  NmsConfig config;
  config.num_nodes = num_nodes;
  config.avg_degree = 3.0;
  config.sites = 1;
  config.buildings_per_site = 1;
  config.racks_per_building = 1;
  config.devices_per_rack = 1;
  config.cards_per_device = 1;
  config.ports_per_card = 1;
  config.seed = seed;
  return config;
}

double Shown(const DisplayObject& dob) {
  Result<Value> v = dob.Get("Utilization");
  return v.ok() ? v.value().AsNumber()
                : std::numeric_limits<double>::quiet_NaN();
}

Status SetUtilization(const SchemaCatalog& catalog, DatabaseObject* obj,
                      double value) {
  return obj->SetByName(catalog, "Utilization", Value(value));
}

double StoredUtilization(const SchemaCatalog& catalog,
                         const DatabaseObject& obj) {
  Result<Value> v = obj.GetByName(catalog, "Utilization");
  return v.ok() ? v.value().AsNumber()
                : std::numeric_limits<double>::quiet_NaN();
}

Status UpdateLink(ClientApi* client, Oid oid, double value, uint64_t trace,
                  uint64_t parent, uint64_t span_id) {
  SpanRecorder& spans = Spans();
  const bool traced = spans.enabled();
  const uint64_t root = traced ? (span_id != 0 ? span_id : spans.NewId()) : 0;
  const int64_t start = NowNs();
  int64_t t = start;
  auto step = [&](const char* name) {
    if (traced) spans.Close(name, t, root, trace);
    t = NowNs();
  };
  Result<TxnId> txn = client->BeginTxn();
  step("client.begin");
  if (!txn.ok()) return txn.status();
  Result<DatabaseObject> obj = client->Read(txn.value(), oid);
  step("client.read");
  Status st = obj.status();
  if (st.ok()) {
    DatabaseObject image = std::move(obj).value();
    st = SetUtilization(client->schema(), &image, value);
    if (st.ok()) {
      st = client->Write(txn.value(), std::move(image));
      step("client.write");
    }
  }
  if (!st.ok()) {
    (void)client->Abort(txn.value());
    return st;
  }
  Result<CommitResult> commit = client->Commit(txn.value());
  step("client.commit");
  if (traced) spans.Close("update", start, parent, trace, root);
  return commit.status();
}

Result<std::unique_ptr<TcpRig>> TcpRig::Create(const NmsConfig& config) {
  std::unique_ptr<TcpRig> rig(new TcpRig());
  IDBA_ASSIGN_OR_RETURN(rig->db_,
                        PopulateNms(&rig->deployment_.server(), config));
  IDBA_ASSIGN_OR_RETURN(
      rig->dcs_,
      RegisterNmsDisplayClasses(&rig->deployment_.display_schema(),
                                rig->deployment_.server().schema(),
                                rig->db_.schema));
  rig->transport_ = std::make_unique<TransportServer>(
      &rig->deployment_.server(), &rig->deployment_.dlm(),
      &rig->deployment_.bus(), &rig->deployment_.meter());
  IDBA_RETURN_NOT_OK(rig->transport_->Start());
  return rig;
}

TcpRig::~TcpRig() {
  if (transport_ != nullptr) transport_->Stop();
}

Result<std::unique_ptr<RemoteDatabaseClient>> TcpRig::ConnectClient(
    ClientId id) {
  return RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id);
}

Result<RemoteSession> TcpRig::ConnectSession(ClientId id) {
  IDBA_ASSIGN_OR_RETURN(std::unique_ptr<RemoteDatabaseClient> client,
                        ConnectClient(id));
  RemoteSession out;
  out.remote = client.get();
  out.session = std::make_unique<InteractiveSession>(
      std::move(client), out.remote, /*bus=*/nullptr);
  return out;
}

const DisplayClassDef* TcpRig::color_links() {
  return deployment_.display_schema().Find(dcs_.color_coded_link);
}

const DisplayClassDef* TcpRig::width_links() {
  return deployment_.display_schema().Find(dcs_.width_coded_link);
}

}  // namespace c2d
