#include "cluster/meta_server.h"

#include <utility>

#include "common/string_util.h"
#include "cluster/wire.h"
#include "serve/wire.h"

namespace freehgc::cluster {

using serve::EncodeResponse;
using serve::MsgType;
using serve::WireReader;
using serve::WireWriter;

MetaServer::MetaServer(MetaServerOptions options)
    : options_(std::move(options)),
      service_(options_.meta),
      listener_(options_.port,
                [this](const serve::Frame& f) {
                  return HandleRequest(f.payload);
                }) {}

MetaServer::~MetaServer() {
  RequestStop();
  Wait();
}

Status MetaServer::Start() { return listener_.Start(); }

void MetaServer::RequestStop() {
  listener_.RequestStop();
  service_.Close();
}

void MetaServer::Wait() { listener_.Wait(); }

std::string MetaServer::HandleRequest(std::string_view payload) {
  WireReader r(payload);
  auto type = r.GetU8();
  if (!type.ok()) return EncodeResponse(type.status(), "");
  switch (static_cast<MsgType>(*type)) {
    case MsgType::kPing: {
      serve::HelloInfo hello;
      hello.protocol_version = serve::kProtocolVersion;
      hello.features = serve::kFeatureClusterOps;
      hello.role = "meta";
      WireWriter w;
      EncodeHelloInfo(w, hello);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kRegisterShard: {
      auto req = DecodeRegisterShardRequest(r);
      if (!req.ok()) return EncodeResponse(req.status(), "");
      const RegisterShardReply reply = service_.RegisterShard(*req);
      WireWriter w;
      EncodeRegisterShardReply(w, reply);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kHeartbeat: {
      auto req = DecodeHeartbeatRequest(r);
      if (!req.ok()) return EncodeResponse(req.status(), "");
      auto version = service_.Heartbeat(*req);
      if (!version.ok()) return EncodeResponse(version.status(), "");
      WireWriter w;
      w.PutU64(*version);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kResolve: {
      auto name = r.GetString();
      if (!name.ok()) return EncodeResponse(name.status(), "");
      auto placement = service_.Resolve(*name);
      if (!placement.ok()) return EncodeResponse(placement.status(), "");
      WireWriter w;
      EncodePlacement(w, *placement);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kPlace: {
      auto req = DecodePlaceRequest(r);
      if (!req.ok()) return EncodeResponse(req.status(), "");
      auto placement = service_.Place(*req);
      if (!placement.ok()) return EncodeResponse(placement.status(), "");
      WireWriter w;
      EncodePlacement(w, *placement);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kWatch: {
      auto req = DecodeWatchRequest(r);
      if (!req.ok()) return EncodeResponse(req.status(), "");
      const WatchResult res =
          service_.Watch(req->since_version, req->timeout_ms);
      WireWriter w;
      EncodeWatchResult(w, res);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kListShards: {
      WireWriter w;
      EncodeShardStatusList(w, service_.ListShards());
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kStats:
      return EncodeResponse(Status::OK(), service_.StatsJson());
    case MsgType::kShutdown:
      RequestStop();
      return EncodeResponse(Status::OK(), "");
    case MsgType::kRegisterGenerator:
    case MsgType::kUploadGraph:
    case MsgType::kListGraphs:
    case MsgType::kCondense:
    case MsgType::kMetrics:
    case MsgType::kHealth:
    case MsgType::kFlightRecorder:
    case MsgType::kFetchGraph:
      return EncodeResponse(
          Status::FailedPrecondition(StrFormat(
              "message type %u is a graph/serve op; this is the cluster "
              "meta service (protocol v%u) — send it to a shard, or route "
              "through cluster::Router",
              static_cast<unsigned>(*type), serve::kProtocolVersion)),
          "");
  }
  return EncodeResponse(
      Status::InvalidArgument(StrFormat("unknown message type %u",
                                        static_cast<unsigned>(*type))),
      "");
}

}  // namespace freehgc::cluster
