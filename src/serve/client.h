#ifndef FREEHGC_SERVE_CLIENT_H_
#define FREEHGC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"
#include "serve/wire.h"

namespace freehgc::serve {

/// Blocking TCP client for a freehgc_server: one connection, one
/// request/response in flight at a time (open several clients for
/// concurrency — the server is thread-per-connection). Methods surface
/// the server's status verbatim, so e.g. a shed request is the same
/// kResourceExhausted the in-process API returns.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects to 127.0.0.1:port.
  Status Connect(int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Round-trip health check.
  Status Ping();

  /// Round-trip handshake: the server's protocol version, feature bits,
  /// and role. A reply without a HelloInfo body is an error. Cluster-aware
  /// callers use the role and features to fail with a clean message when
  /// pointed at the wrong kind of server.
  Result<HelloInfo> Hello();

  /// Serializes a resident graph back (protocol v2; the router's
  /// shard-to-shard replication path).
  Result<std::string> FetchGraph(const std::string& name);

  /// Sends one framed request (`payload`, then `tail` uncopied; see
  /// WriteFrame) and decodes the response envelope; a non-OK server
  /// status comes back as that status. Public so protocol extensions
  /// (src/cluster's meta ops) can reuse the connection plumbing without
  /// reimplementing framing.
  Result<std::string> Call(std::string payload, std::string_view tail = {});

  /// Builds `preset` server-side under (seed, scale) and registers it as
  /// `name`. scale <= 0 uses the preset default.
  Result<GraphInfo> RegisterGenerator(const std::string& name,
                                      const std::string& preset,
                                      uint64_t seed, double scale);

  /// Uploads a v3 container (SerializeHeteroGraph / SaveHeteroGraphV3).
  /// The container is sent from `container` in place, never copied.
  Result<GraphInfo> UploadGraph(const std::string& name,
                                std::string_view container);

  Result<std::vector<GraphInfo>> ListGraphs();

  /// Runs one condensation request to completion (blocking).
  Result<CondenseReply> Condense(const CondenseRequest& request);

  /// The server's StatsJson snapshot.
  Result<std::string> Stats();

  /// Prometheus text exposition of the server's live metrics registry.
  Result<std::string> Metrics();

  /// Liveness JSON (status, uptime, slot/queue occupancy).
  Result<std::string> Health();

  /// Flight-recorder dump: last-N completed requests + retained outliers.
  Result<std::string> FlightRecorderDump();

  /// Asks the server to stop (it drains in-flight work before exiting).
  Status Shutdown();

 private:
  int fd_ = -1;
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_CLIENT_H_
