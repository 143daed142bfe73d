#include "serve/wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "common/string_util.h"

namespace freehgc::serve {

void WireWriter::PutU8(uint8_t v) {
  buf_.push_back(static_cast<char>(v));
}

void WireWriter::PutU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void WireWriter::PutU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void WireWriter::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

Status WireReader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument(
        StrFormat("malformed wire payload: need %zu bytes, %zu left", n,
                  data_.size() - pos_));
  }
  return Status::OK();
}

Result<uint8_t> WireReader::GetU8() {
  FREEHGC_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> WireReader::GetU32() {
  FREEHGC_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::GetU64() {
  FREEHGC_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> WireReader::GetI64() {
  FREEHGC_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::GetF64() {
  FREEHGC_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::GetString() {
  FREEHGC_ASSIGN_OR_RETURN(std::string_view s, GetStringView());
  return std::string(s);
}

Result<std::string_view> WireReader::GetStringView() {
  FREEHGC_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("malformed wire payload: string too long");
  }
  FREEHGC_RETURN_IF_ERROR(Need(len));
  const std::string_view out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

namespace {

/// Reads exactly n bytes. eof_ok: a clean EOF before the first byte is
/// kUnavailable (peer closed between frames); EOF mid-read is always an
/// error.
Status ReadAll(int fd, char* data, size_t n, bool eof_ok) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("socket read failed: %s", std::strerror(errno)));
    }
    if (r == 0) {
      if (eof_ok && got == 0) {
        return Status::Unavailable("connection closed");
      }
      return Status::Internal("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload, std::string_view tail) {
  const size_t size = payload.size() + tail.size();
  if (size > kMaxFrameBytes) {
    return Status::InvalidArgument(StrFormat(
        "frame of %zu bytes exceeds the %u-byte cap", size, kMaxFrameBytes));
  }
  WireWriter prefix;
  prefix.PutU32(static_cast<uint32_t>(size));
  // Prefix, payload and tail leave in one gather-write: a separate 4-byte
  // send would let Nagle hold the payload until the peer's delayed ACK
  // (>= 40 ms per frame). Both parts are sent in place, never copied.
  iovec iov[3] = {
      {const_cast<char*>(prefix.payload().data()), prefix.payload().size()},
      {const_cast<char*>(payload.data()), payload.size()},
      {const_cast<char*>(tail.data()), tail.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = tail.empty() ? 2 : 3;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that died mid-exchange (a SIGKILLed shard)
    // must surface as a Status the caller can fail over on, not a
    // process-killing SIGPIPE.
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("socket write failed: %s", std::strerror(errno)));
    }
    // Partial write: drop the fully sent entries, trim the first
    // partially sent one.
    size_t sent = static_cast<size_t>(w);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::Internal(
        StrFormat("setsockopt(TCP_NODELAY) failed: %s", std::strerror(errno)));
  }
  return Status::OK();
}

Result<Frame> ReadFrame(int fd) {
  char prefix[4];
  FREEHGC_RETURN_IF_ERROR(ReadAll(fd, prefix, 4, /*eof_ok=*/true));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("announced frame of %u bytes exceeds the %u-byte cap", len,
                  kMaxFrameBytes));
  }
  // Up to 7 bytes of slack in front let the payload end on an 8-byte
  // boundary (see Frame). Left uninitialized: the socket fills it.
  auto buffer = std::make_shared_for_overwrite<char[]>(len + 7);
  const size_t pad =
      (0 - (reinterpret_cast<uintptr_t>(buffer.get()) + len)) % 8;
  char* payload = buffer.get() + pad;
  if (len > 0) {
    FREEHGC_RETURN_IF_ERROR(ReadAll(fd, payload, len, /*eof_ok=*/false));
  }
  Frame frame;
  frame.payload = std::string_view(payload, len);
  frame.buffer = std::move(buffer);
  return frame;
}

std::string EncodeResponse(const Status& status, std::string_view body) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  w.PutString(body);
  return w.Take();
}

Result<WireResponse> DecodeResponse(std::string_view payload) {
  WireReader r(payload);
  FREEHGC_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  FREEHGC_ASSIGN_OR_RETURN(std::string message, r.GetString());
  FREEHGC_ASSIGN_OR_RETURN(std::string body, r.GetString());
  WireResponse out;
  out.status =
      Status::FromCode(static_cast<StatusCode>(code), std::move(message));
  out.body = std::move(body);
  return out;
}

void EncodeCondenseRequest(WireWriter& w, const CondenseRequest& req) {
  w.PutString(req.graph);
  w.PutString(req.method);
  w.PutF64(req.ratio);
  w.PutU64(req.seed);
  w.PutI64(req.max_hops);
  w.PutI64(req.max_paths);
  w.PutI64(req.max_row_nnz);
  w.PutU8(req.evaluate ? 1 : 0);
  w.PutU8(req.return_graph ? 1 : 0);
  w.PutI64(req.priority);
  w.PutI64(req.deadline_ms);
}

namespace {

/// An i64 field the request holds as an int. A value outside int's range
/// is rejected, not truncated: 2^32 would otherwise arrive as 0.
Result<int> GetIntField(WireReader& r, const char* field) {
  FREEHGC_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(StrFormat(
        "%s out of int range: %lld", field, static_cast<long long>(v)));
  }
  return static_cast<int>(v);
}

}  // namespace

Result<CondenseRequest> DecodeCondenseRequest(WireReader& r) {
  CondenseRequest req;
  FREEHGC_ASSIGN_OR_RETURN(req.graph, r.GetString());
  FREEHGC_ASSIGN_OR_RETURN(req.method, r.GetString());
  FREEHGC_ASSIGN_OR_RETURN(req.ratio, r.GetF64());
  FREEHGC_ASSIGN_OR_RETURN(req.seed, r.GetU64());
  FREEHGC_ASSIGN_OR_RETURN(req.max_hops, GetIntField(r, "max_hops"));
  FREEHGC_ASSIGN_OR_RETURN(req.max_paths, GetIntField(r, "max_paths"));
  FREEHGC_ASSIGN_OR_RETURN(req.max_row_nnz, r.GetI64());
  FREEHGC_ASSIGN_OR_RETURN(uint8_t evaluate, r.GetU8());
  FREEHGC_ASSIGN_OR_RETURN(uint8_t return_graph, r.GetU8());
  req.evaluate = evaluate != 0;
  req.return_graph = return_graph != 0;
  FREEHGC_ASSIGN_OR_RETURN(req.priority, GetIntField(r, "priority"));
  FREEHGC_ASSIGN_OR_RETURN(req.deadline_ms, r.GetI64());
  return req;
}

void EncodeCondenseReply(WireWriter& w, const CondenseReply& reply) {
  w.PutI64(reply.nodes);
  w.PutI64(reply.edges);
  w.PutU64(reply.storage_bytes);
  w.PutF64(reply.condense_seconds);
  w.PutF64(reply.queue_seconds);
  w.PutF64(reply.total_seconds);
  w.PutU8(reply.evaluated ? 1 : 0);
  w.PutF64(reply.accuracy);
  w.PutF64(reply.macro_f1);
  w.PutString(reply.graph_bytes);
  w.PutU64(reply.graph_fingerprint);
  w.PutU64(reply.request_id);
  w.PutU8(reply.evalctx_hit ? 1 : 0);
}

Result<CondenseReply> DecodeCondenseReply(WireReader& r) {
  CondenseReply reply;
  FREEHGC_ASSIGN_OR_RETURN(reply.nodes, r.GetI64());
  FREEHGC_ASSIGN_OR_RETURN(reply.edges, r.GetI64());
  FREEHGC_ASSIGN_OR_RETURN(uint64_t storage, r.GetU64());
  reply.storage_bytes = static_cast<size_t>(storage);
  FREEHGC_ASSIGN_OR_RETURN(reply.condense_seconds, r.GetF64());
  FREEHGC_ASSIGN_OR_RETURN(reply.queue_seconds, r.GetF64());
  FREEHGC_ASSIGN_OR_RETURN(reply.total_seconds, r.GetF64());
  FREEHGC_ASSIGN_OR_RETURN(uint8_t evaluated, r.GetU8());
  reply.evaluated = evaluated != 0;
  FREEHGC_ASSIGN_OR_RETURN(double accuracy, r.GetF64());
  FREEHGC_ASSIGN_OR_RETURN(double macro_f1, r.GetF64());
  reply.accuracy = static_cast<float>(accuracy);
  reply.macro_f1 = static_cast<float>(macro_f1);
  FREEHGC_ASSIGN_OR_RETURN(reply.graph_bytes, r.GetString());
  FREEHGC_ASSIGN_OR_RETURN(reply.graph_fingerprint, r.GetU64());
  FREEHGC_ASSIGN_OR_RETURN(reply.request_id, r.GetU64());
  FREEHGC_ASSIGN_OR_RETURN(uint8_t evalctx_hit, r.GetU8());
  reply.evalctx_hit = evalctx_hit != 0;
  return reply;
}

void EncodeGraphInfo(WireWriter& w, const GraphInfo& info) {
  w.PutString(info.name);
  w.PutU64(info.fingerprint);
  w.PutI64(info.nodes);
  w.PutI64(info.edges);
  w.PutU64(info.memory_bytes);
  w.PutU8(info.mapped ? 1 : 0);
  w.PutString(info.source_path);
}

Result<GraphInfo> DecodeGraphInfo(WireReader& r) {
  GraphInfo info;
  FREEHGC_ASSIGN_OR_RETURN(info.name, r.GetString());
  FREEHGC_ASSIGN_OR_RETURN(info.fingerprint, r.GetU64());
  FREEHGC_ASSIGN_OR_RETURN(info.nodes, r.GetI64());
  FREEHGC_ASSIGN_OR_RETURN(info.edges, r.GetI64());
  FREEHGC_ASSIGN_OR_RETURN(uint64_t bytes, r.GetU64());
  info.memory_bytes = static_cast<size_t>(bytes);
  FREEHGC_ASSIGN_OR_RETURN(uint8_t mapped, r.GetU8());
  info.mapped = mapped != 0;
  FREEHGC_ASSIGN_OR_RETURN(info.source_path, r.GetString());
  return info;
}

void EncodeGraphInfoList(WireWriter& w, const std::vector<GraphInfo>& infos) {
  w.PutU32(static_cast<uint32_t>(infos.size()));
  for (const GraphInfo& info : infos) EncodeGraphInfo(w, info);
}

void EncodeHelloInfo(WireWriter& w, const HelloInfo& info) {
  w.PutU32(info.protocol_version);
  w.PutU64(info.features);
  w.PutString(info.role);
}

Result<HelloInfo> DecodeHelloInfo(WireReader& r) {
  HelloInfo info;
  FREEHGC_ASSIGN_OR_RETURN(info.protocol_version, r.GetU32());
  FREEHGC_ASSIGN_OR_RETURN(info.features, r.GetU64());
  FREEHGC_ASSIGN_OR_RETURN(info.role, r.GetString());
  return info;
}

Result<std::vector<GraphInfo>> DecodeGraphInfoList(WireReader& r) {
  FREEHGC_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  // 41 = the minimum encoded GraphInfo (empty name + empty source path);
  // bounds the reserve against a malformed count.
  if (count > r.remaining() / 41) {
    return Status::InvalidArgument(
        "malformed wire payload: graph list count exceeds payload");
  }
  std::vector<GraphInfo> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FREEHGC_ASSIGN_OR_RETURN(GraphInfo info, DecodeGraphInfo(r));
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace freehgc::serve
