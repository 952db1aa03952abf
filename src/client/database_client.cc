#include "client/database_client.h"

namespace idba {

void InProcessChannel::Charge(const ServerCallInfo& info) {
  CountRoundTrip();
  VTime done = meter_->ChargeRoundTrip(
      client_.clock().Now(), &server_->cpu_clock(), info.request_bytes,
      info.response_bytes, info.page_misses, info.callbacks);
  client_.clock().Observe(done);
}

DatabaseClient::DatabaseClient(DatabaseServer* server, ClientId id,
                               RpcMeter* meter, NotificationBus* bus,
                               DatabaseClientOptions opts)
    : ClientApi(id, channel_, opts), channel_(*this, server, meter), bus_(bus) {
  server->ConnectClient(id, &cache());
  if (bus_ != nullptr) bus_->Register(static_cast<EndpointId>(id), &inbox());
}

DatabaseClient::~DatabaseClient() {
  if (bus_ != nullptr) bus_->Unregister(static_cast<EndpointId>(id()));
  channel_.server().DisconnectClient(id());
  inbox().Close();
}

}  // namespace idba
