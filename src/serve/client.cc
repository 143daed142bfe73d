#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "serve/wire.h"

namespace freehgc::serve {

ServeClient::~ServeClient() { Close(); }

Status ServeClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    Close();
    return Status::Unavailable(StrFormat("cannot connect to 127.0.0.1:%d: %s",
                                         port, std::strerror(err)));
  }
  const Status nodelay = SetNoDelay(fd_);
  if (!nodelay.ok()) Close();
  return nodelay;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> ServeClient::Call(std::string payload,
                                      std::string_view tail) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  FREEHGC_RETURN_IF_ERROR(WriteFrame(fd_, payload, tail));
  FREEHGC_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  FREEHGC_ASSIGN_OR_RETURN(WireResponse response,
                           DecodeResponse(frame.payload));
  FREEHGC_RETURN_IF_ERROR(response.status);
  return std::move(response.body);
}

Status ServeClient::Ping() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPing));
  return Call(w.Take()).status();
}

Result<HelloInfo> ServeClient::Hello() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPing));
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take()));
  WireReader r(body);
  return DecodeHelloInfo(r);
}

Result<std::string> ServeClient::FetchGraph(const std::string& name) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFetchGraph));
  w.PutString(name);
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take()));
  WireReader r(body);
  return r.GetString();
}

Result<GraphInfo> ServeClient::RegisterGenerator(const std::string& name,
                                                 const std::string& preset,
                                                 uint64_t seed, double scale) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kRegisterGenerator));
  w.PutString(name);
  w.PutString(preset);
  w.PutU64(seed);
  w.PutF64(scale);
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take()));
  WireReader r(body);
  return DecodeGraphInfo(r);
}

Result<GraphInfo> ServeClient::UploadGraph(const std::string& name,
                                           std::string_view container) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kUploadGraph));
  w.PutString(name);
  // The container's own length prefix goes here; its bytes leave as the
  // frame's tail, straight from the caller's buffer.
  w.PutU32(static_cast<uint32_t>(container.size()));
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take(), container));
  WireReader r(body);
  return DecodeGraphInfo(r);
}

Result<std::vector<GraphInfo>> ServeClient::ListGraphs() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kListGraphs));
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take()));
  WireReader r(body);
  return DecodeGraphInfoList(r);
}

Result<CondenseReply> ServeClient::Condense(const CondenseRequest& request) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kCondense));
  EncodeCondenseRequest(w, request);
  FREEHGC_ASSIGN_OR_RETURN(std::string body, Call(w.Take()));
  WireReader r(body);
  return DecodeCondenseReply(r);
}

Result<std::string> ServeClient::Stats() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kStats));
  return Call(w.Take());
}

Result<std::string> ServeClient::Metrics() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kMetrics));
  return Call(w.Take());
}

Result<std::string> ServeClient::Health() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kHealth));
  return Call(w.Take());
}

Result<std::string> ServeClient::FlightRecorderDump() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFlightRecorder));
  return Call(w.Take());
}

Status ServeClient::Shutdown() {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kShutdown));
  return Call(w.Take()).status();
}

}  // namespace freehgc::serve
