#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "graph/serialize.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace freehgc::serve {

WireListener::WireListener(int port, Handler handler)
    : requested_port_(port), handler_(std::move(handler)) {}

WireListener::~WireListener() {
  RequestStop();
  Wait();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status WireListener::Start() {
  if (::pipe(wake_pipe_) != 0) {
    return Status::Internal(
        StrFormat("pipe() failed: %s", std::strerror(errno)));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "cannot bind 127.0.0.1:%d: %s", requested_port_,
        std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Internal(
        StrFormat("listen() failed: %s", std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal(
        StrFormat("getsockname() failed: %s", std::strerror(errno)));
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void WireListener::RequestStop() {
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    // Async-signal-safe: one write, result deliberately ignored (a full
    // pipe still wakes the poll).
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void WireListener::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) {
    if (t.joinable()) t.join();
  }
}

void WireListener::AcceptLoop() {
  obs::SetCurrentThreadNameIfUnset("io-accept");
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        if (stop_.load(std::memory_order_acquire)) break;
        continue;
      }
      FREEHGC_LOG(Warning) << "serve: poll() failed: "
                           << std::strerror(errno);
      break;
    }
    if (stop_.load(std::memory_order_acquire) ||
        (fds[1].revents & POLLIN) != 0) {
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      FREEHGC_LOG(Warning) << "serve: accept() failed: "
                           << std::strerror(errno);
      continue;
    }
    // Without TCP_NODELAY the connection still works, just slower: keep it.
    if (const Status st = SetNoDelay(conn); !st.ok()) {
      FREEHGC_LOG(Warning) << "serve: " << st.ToString();
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { HandleConnection(conn); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Half-close open connections: reads see EOF (handler threads unblock),
  // but in-flight requests can still write their responses.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
}

void WireListener::HandleConnection(int fd) {
  obs::SetCurrentThreadNameIfUnset("io");
  for (;;) {
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) {
      if (frame.status().code() != StatusCode::kUnavailable) {
        FREEHGC_LOG(Warning) << "serve: dropping connection: "
                             << frame.status().ToString();
      }
      break;
    }
    const std::string response = handler_(*frame);
    if (!WriteFrame(fd, response).ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
    if (*it == fd) {
      conn_fds_.erase(it);
      break;
    }
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(std::make_unique<ServeService>(options_.serve)),
      listener_(options_.port,
                [this](const Frame& f) { return HandleRequest(f); }) {}

Server::~Server() {
  RequestStop();
  Wait();
}

Status Server::Start() { return listener_.Start(); }

void Server::Wait() {
  listener_.Wait();
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (!drained_) {
      drained_ = true;
      drain = true;
    }
  }
  if (drain) service_->Shutdown(ShutdownMode::kDrain);
}

std::string Server::HandleRequest(const Frame& frame) {
  WireReader r(frame.payload);
  auto type = r.GetU8();
  if (!type.ok()) return EncodeResponse(type.status(), "");
  switch (static_cast<MsgType>(*type)) {
    case MsgType::kPing: {
      HelloInfo hello;
      hello.protocol_version = kProtocolVersion;
      hello.features = kFeatureAdminOps | kFeatureFetchGraph;
      hello.role = "serve";
      WireWriter w;
      EncodeHelloInfo(w, hello);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kRegisterGenerator: {
      auto name = r.GetString();
      if (!name.ok()) return EncodeResponse(name.status(), "");
      auto preset = r.GetString();
      if (!preset.ok()) return EncodeResponse(preset.status(), "");
      auto seed = r.GetU64();
      if (!seed.ok()) return EncodeResponse(seed.status(), "");
      auto scale = r.GetF64();
      if (!scale.ok()) return EncodeResponse(scale.status(), "");
      auto info = service_->store().RegisterGenerator(*name, *preset, *seed,
                                                      *scale);
      if (!info.ok()) return EncodeResponse(info.status(), "");
      WireWriter w;
      EncodeGraphInfo(w, *info);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kUploadGraph: {
      auto name = r.GetString();
      if (!name.ok()) return EncodeResponse(name.status(), "");
      // The container is the frame's last field, so it lands 8-byte
      // aligned (see Frame) and the graph adopts the frame in place.
      auto container = r.GetStringView();
      if (!container.ok()) return EncodeResponse(container.status(), "");
      auto info = service_->store().RegisterSerialized(*name, *container,
                                                       frame.buffer);
      if (!info.ok()) return EncodeResponse(info.status(), "");
      WireWriter w;
      EncodeGraphInfo(w, *info);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kListGraphs: {
      WireWriter w;
      EncodeGraphInfoList(w, service_->store().List());
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kCondense: {
      auto req = DecodeCondenseRequest(r);
      if (!req.ok()) return EncodeResponse(req.status(), "");
      // Synchronous per connection; concurrency comes from concurrent
      // connections feeding the scheduler's slots.
      auto reply = service_->Condense(std::move(*req));
      if (!reply.ok()) return EncodeResponse(reply.status(), "");
      WireWriter w;
      EncodeCondenseReply(w, *reply);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kFetchGraph: {
      // Serialize a resident graph back — the router's hot-graph
      // replication path (shard-to-shard copy without the client).
      auto name = r.GetString();
      if (!name.ok()) return EncodeResponse(name.status(), "");
      auto graph = service_->store().Get(*name);
      if (!graph.ok()) return EncodeResponse(graph.status(), "");
      auto bytes = SerializeHeteroGraph(**graph);
      if (!bytes.ok()) return EncodeResponse(bytes.status(), "");
      WireWriter w;
      w.PutString(*bytes);
      return EncodeResponse(Status::OK(), w.payload());
    }
    case MsgType::kStats:
      return EncodeResponse(Status::OK(), service_->StatsJson());
    case MsgType::kMetrics:
      // Prometheus text exposition of the process-global registry
      // (kernels, exec.*) followed by this service's own registries:
      // scheduler (serve.*), graph store (serve.store.*, store.*) and
      // artifact cache (pipeline.cache.*). Scrape with `freehgc_client
      // metrics` or watch with freehgc_top.
      return EncodeResponse(
          Status::OK(),
          obs::PrometheusText() + obs::PrometheusText(service_->metrics()) +
              obs::PrometheusText(service_->store().metrics()) +
              obs::PrometheusText(service_->cache().metrics()));
    case MsgType::kHealth:
      return EncodeResponse(Status::OK(), service_->HealthJson());
    case MsgType::kFlightRecorder:
      return EncodeResponse(Status::OK(),
                            obs::FlightRecorder::Global().DumpJson());
    case MsgType::kShutdown:
      RequestStop();
      return EncodeResponse(Status::OK(), "");
    case MsgType::kRegisterShard:
    case MsgType::kHeartbeat:
    case MsgType::kResolve:
    case MsgType::kPlace:
    case MsgType::kWatch:
    case MsgType::kListShards:
      return EncodeResponse(
          Status::FailedPrecondition(StrFormat(
              "message type %u is a cluster metadata op; this is a serve "
              "server (protocol v%u) — connect to freehgc_meta instead",
              static_cast<unsigned>(*type), kProtocolVersion)),
          "");
  }
  return EncodeResponse(
      Status::InvalidArgument(StrFormat("unknown message type %u",
                                        static_cast<unsigned>(*type))),
      "");
}

}  // namespace freehgc::serve
