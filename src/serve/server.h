#ifndef FREEHGC_SERVE_SERVER_H_
#define FREEHGC_SERVE_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace freehgc::serve {

/// Reusable socket front-end for the wire.h protocol: binds 127.0.0.1,
/// accepts connections, one handler thread per connection, and calls a
/// request handler for every decoded frame. serve::Server and
/// cluster::MetaServer both sit on top of it.
///
/// Shutdown is graceful and signal-safe: RequestStop only writes one byte
/// to a self-pipe (async-signal-safe, so SIGINT/SIGTERM handlers may call
/// it), the accept loop's poll() wakes on it, new connections stop, open
/// connections get SHUT_RD (in-flight requests still write their
/// responses), and Wait() joins every connection thread.
class WireListener {
 public:
  /// Maps one request frame to one encoded response payload. Called
  /// concurrently from connection threads. A handler may keep
  /// `frame.buffer` to use the payload's bytes past the call.
  using Handler = std::function<std::string(const Frame& frame)>;

  /// `port` 0 binds an ephemeral port (read it back from port() after
  /// Start). The handler must outlive the listener.
  WireListener(int port, Handler handler);
  ~WireListener();

  WireListener(const WireListener&) = delete;
  WireListener& operator=(const WireListener&) = delete;

  /// Binds, listens, and starts the accept loop. InvalidArgument /
  /// Internal on socket failures (e.g. port in use).
  Status Start();

  /// The bound port (valid after Start).
  int port() const { return port_; }

  /// Async-signal-safe stop request; returns immediately.
  void RequestStop();

  /// Blocks until the accept loop has exited and every connection thread
  /// has been joined.
  void Wait();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  int requested_port_ = 0;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back from
  /// port() after Start — the test and the --port-file flag rely on it).
  int port = 0;
  ServeOptions serve;
};

/// Local TCP front-end for a ServeService: a WireListener whose handler
/// dispatches the serve-side wire ops (the scheduler underneath provides
/// the actual request concurrency and admission control). After
/// RequestStop, Wait() additionally drains every admitted request.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. InvalidArgument /
  /// Internal on socket failures (e.g. port in use).
  Status Start();

  /// The bound port (valid after Start).
  int port() const { return listener_.port(); }

  ServeService& service() { return *service_; }

  /// Async-signal-safe stop request; returns immediately.
  void RequestStop() { listener_.RequestStop(); }

  /// Blocks until the server has stopped (RequestStop or a kShutdown
  /// message), all connections are closed, and the service has drained.
  void Wait();

 private:
  /// Decodes one request frame and produces the encoded response.
  std::string HandleRequest(const Frame& frame);

  ServerOptions options_;
  std::unique_ptr<ServeService> service_;
  WireListener listener_;

  std::mutex drain_mu_;
  bool drained_ = false;
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_SERVER_H_
