#ifndef FREEHGC_SERVE_WIRE_H_
#define FREEHGC_SERVE_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"

namespace freehgc::serve {

/// Length-prefixed binary protocol spoken by freehgc_server /
/// freehgc_client over local TCP.
///
/// Framing: every message is a u32 little-endian byte length followed by
/// that many payload bytes. A request payload is a u8 message type plus
/// type-specific fields; a response payload is a u8 status code, a
/// length-prefixed error message (empty on OK), and a type-specific body.
/// Integers are little-endian; strings and blobs are u32 length + bytes;
/// doubles are IEEE-754 bit patterns in a u64.
///
/// Versioning: a kPing reply body carries a HelloInfo (protocol version,
/// feature bits, server role). Both ends always ship from this repo, so
/// there is no fallback for peers without it; cluster-aware callers use
/// the role and feature bits to refuse the wrong kind of server.

/// Hard cap on a single frame; larger announcements are rejected before
/// allocation (a graph upload is the only large payload).
constexpr uint32_t kMaxFrameBytes = 1u << 30;

/// Current protocol version, announced in every kPing reply.
constexpr uint32_t kProtocolVersion = 2;

/// Feature bits announced in the kPing reply.
enum ServerFeature : uint64_t {
  /// Read-only admin ops (kMetrics/kHealth/kFlightRecorder).
  kFeatureAdminOps = 1ull << 0,
  /// Cluster metadata ops (kRegisterShard..kListShards) — meta services.
  kFeatureClusterOps = 1ull << 1,
  /// kFetchGraph (serialize a resident graph back) — serve servers.
  kFeatureFetchGraph = 1ull << 2,
};

/// What a server says about itself in the kPing reply body.
struct HelloInfo {
  uint32_t protocol_version = kProtocolVersion;
  uint64_t features = 0;
  /// "serve" (shard / standalone server) or "meta" (cluster metadata
  /// service).
  std::string role;
};

enum class MsgType : uint8_t {
  kPing = 1,
  kRegisterGenerator = 2,
  kUploadGraph = 3,
  kListGraphs = 4,
  kCondense = 5,
  kStats = 6,
  kShutdown = 7,
  /// Admin/observability ops. kMetrics returns the Prometheus text
  /// exposition of the live registry; kHealth a small liveness JSON;
  /// kFlightRecorder the last-N-requests ring + retained outliers as
  /// JSON. All three are read-only and carry no request fields.
  kMetrics = 8,
  kHealth = 9,
  kFlightRecorder = 10,
  /// Cluster metadata ops (protocol v2) — handled by freehgc_meta
  /// (cluster::MetaServer). A shard registers itself and its graphs,
  /// heartbeats with load, and clients resolve/place graphs and long-poll
  /// the metadata event log. A plain serve server rejects these with
  /// kFailedPrecondition (see src/cluster/wire.h for the field codecs).
  kRegisterShard = 11,
  kHeartbeat = 12,
  kResolve = 13,
  kPlace = 14,
  kWatch = 15,
  kListShards = 16,
  /// Serve-server op (protocol v2): serialize a resident graph back to
  /// the caller — the router uses it to replicate hot graphs to a second
  /// shard without re-uploading from the client.
  kFetchGraph = 17,
};

/// Appends little-endian fields to a payload buffer.
class WireWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  void PutString(std::string_view s);

  const std::string& payload() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a received payload. Every getter returns an
/// error (never reads past the end) on a short or malformed payload.
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : data_(payload) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetF64();
  Result<std::string> GetString();
  /// A string field as a view into the payload, without copying it.
  Result<std::string_view> GetStringView();

  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

/// One received frame. The payload sits in a shared heap buffer, placed
/// so that it ends on an 8-byte boundary. A v3 container's size is
/// always a multiple of 8, so a container sent as a frame's last field
/// (an upload) starts 8-byte aligned and can be adopted in place: the
/// graph's arrays view the frame and pin `buffer`.
struct Frame {
  std::shared_ptr<const void> buffer;  ///< owns the bytes `payload` views
  std::string_view payload;
};

/// Blocking frame I/O over a connected socket fd (restarts on EINTR).
/// WriteFrame sends the u32 length prefix, `payload` and then `tail` as
/// one frame in one gather-write (sendmsg, MSG_NOSIGNAL; partial writes
/// resume where they stopped). Neither part is copied, so a large blob
/// can leave as the tail without first being appended to the payload.
/// ReadFrame receives one frame. A clean EOF at a frame boundary is
/// kUnavailable ("connection closed") — the server loop's disconnect
/// signal; EOF mid-frame is kInternal, and an announced length above
/// kMaxFrameBytes is kInvalidArgument.
Status WriteFrame(int fd, std::string_view payload,
                  std::string_view tail = {});
Result<Frame> ReadFrame(int fd);

/// Turns Nagle off (TCP_NODELAY) on a connected TCP socket, so the tail
/// segment of a frame is never held back waiting for the peer's delayed
/// ACK. Every connection end calls it: ServeClient::Connect after
/// connect(), WireListener after accept().
Status SetNoDelay(int fd);

/// Response envelope: status + type-specific body bytes.
struct WireResponse {
  Status status;
  std::string body;
};

/// Encodes/decodes the response envelope (u8 code, message, body).
std::string EncodeResponse(const Status& status, std::string_view body);
Result<WireResponse> DecodeResponse(std::string_view payload);

/// Field codecs shared by client and server. Decoders validate bounds;
/// codecs are exact inverses (tests/serve_test.cc round-trips them).
void EncodeCondenseRequest(WireWriter& w, const CondenseRequest& req);
Result<CondenseRequest> DecodeCondenseRequest(WireReader& r);
void EncodeCondenseReply(WireWriter& w, const CondenseReply& reply);
Result<CondenseReply> DecodeCondenseReply(WireReader& r);
void EncodeGraphInfo(WireWriter& w, const GraphInfo& info);
Result<GraphInfo> DecodeGraphInfo(WireReader& r);
void EncodeGraphInfoList(WireWriter& w, const std::vector<GraphInfo>& infos);
Result<std::vector<GraphInfo>> DecodeGraphInfoList(WireReader& r);
void EncodeHelloInfo(WireWriter& w, const HelloInfo& info);
Result<HelloInfo> DecodeHelloInfo(WireReader& r);

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_WIRE_H_
