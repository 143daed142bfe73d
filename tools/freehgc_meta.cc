// freehgc_meta: the cluster metadata/coordination service.
//
//   freehgc_meta [--port=0] [--port-file=PATH] [--heartbeat-ttl-ms=2000]
//                [--max-events=1024]
//
// Owns the graph-fingerprint → shard placement map for a single-machine
// multi-process freehgc cluster (vineyard's etcd-meta pattern,
// in-process): shards started with `freehgc_server --meta=127.0.0.1:PORT
// --shard-id=N` register here and heartbeat their catalogs and load;
// routers (freehgc_client --meta-port, cluster::Router) resolve graph
// names to shard placements and long-poll Watch for invalidations. A
// shard silent for --heartbeat-ttl-ms is marked dead (routers fail over
// to replicas); a revived shard rejoins on its next heartbeat.
//
// Speaks the same length-prefixed wire protocol as freehgc_server; the
// bound port is printed and optionally written to --port-file. Stops on
// SIGINT/SIGTERM or a client shutdown message. An unknown flag or a
// malformed integer exits 2 with the usage.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/meta_server.h"
#include "common/string_util.h"

namespace {

constexpr char kUsage[] =
    "usage: freehgc_meta [--port=0] [--port-file=PATH] "
    "[--heartbeat-ttl-ms=2000]\n"
    "                    [--max-events=1024]\n";

[[noreturn]] void Usage(const std::string& reason) {
  std::fprintf(stderr, "freehgc_meta: %s\n%s", reason.c_str(), kUsage);
  std::exit(2);
}

freehgc::cluster::MetaServer* g_server = nullptr;

// Async-signal-safe: RequestStop is one atomic store + one pipe write
// (Close on the meta service only flips a flag under a mutex the signal
// path never holds — it runs on the main thread, not here).
void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->RequestStop();
}

bool ParseIntFlag(const std::string& arg, const char* prefix, int* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  if (!freehgc::ParseInt(arg.c_str() + std::string(prefix).size(), out)) {
    Usage("bad integer value: " + arg);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  freehgc::cluster::MetaServerOptions options;
  std::string port_file;
  int ttl_ms = 0;
  int max_events = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseIntFlag(arg, "--port=", &options.port) ||
        ParseIntFlag(arg, "--heartbeat-ttl-ms=", &ttl_ms) ||
        ParseIntFlag(arg, "--max-events=", &max_events)) {
      continue;
    }
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(std::string("--port-file=").size());
      continue;
    }
    Usage("unknown flag: " + arg);
  }
  if (ttl_ms > 0) options.meta.heartbeat_ttl_ms = ttl_ms;
  if (max_events > 0) options.meta.max_events = static_cast<size_t>(max_events);

  freehgc::cluster::MetaServer server(options);
  const freehgc::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "freehgc_meta: %s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("freehgc_meta listening on 127.0.0.1:%d (ttl %lld ms)\n",
              server.port(),
              static_cast<long long>(options.meta.heartbeat_ttl_ms));
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
    }
  }

  server.Wait();
  g_server = nullptr;
  std::printf("freehgc_meta stopped; final state: %s\n",
              server.service().StatsJson().c_str());
  return 0;
}
