// freehgc_server: long-lived condensation service on 127.0.0.1. kUsage
// below lists its flags. A flag it cannot honour exits 2 with that usage:
// an unknown flag, an integer value that is not wholly a number in range,
// or --artifact-budget without --spill-dir.
//
// QoS knobs (see serve::ServeOptions): --max-concurrent caps how many
// slots execute at once (0 = the core budget — surplus slots park
// instead of time-slicing); --aging-quantum-ms bumps a queued request's
// effective priority per quantum waited (0 disables aging);
// --slo-ms sheds a submission at admission when its predicted latency
// exceeds the SLO (0 disables); --no-coalesce turns off duplicate
// in-flight request coalescing. --threads-per-slot is the most threads
// one request uses: its slot's thread plus the helpers every slot shares
// (0 = cores - slots + 1, so the slots plus the helpers are the cores; a
// lone request borrows every idle helper).
//
// Binds the requested port (0 = ephemeral; the bound port is printed and
// optionally written to --port-file so scripts can find it), serves the
// wire.h protocol until SIGINT/SIGTERM or a client shutdown message, then
// drains every admitted request and dumps a final stats summary.
//
// --access-log appends one JSON line per terminal request (see
// obs::AccessLog). SIGQUIT stops the server like SIGTERM but additionally
// dumps the flight recorder (last-N requests + retained outliers) to
// stdout after the drain — the post-mortem path when the server is
// misbehaving.
//
// --spool-dir persists uploads as v3 containers and keeps them resident
// as zero-copy mappings (page-cache-backed, not heap). --map pre-registers
// an existing v3 container the same way — together they let a restarted
// server rehydrate its catalog without re-uploading, and let graphs far
// larger than RAM be served out-of-core.
//
// --spill-dir enables the tiered ArtifactCache: composed adjacencies and
// propagated feature blocks spill to section spool files there when the
// resident tier exceeds --artifact-budget (bytes; accepts K/M/G
// suffixes), and restore as zero-copy mapped views. --resident-budget
// caps the bytes of mapped graphs the GraphStore keeps resident (LRU
// eviction + transparent re-map). At startup, the spool and spill
// directories are swept for orphans: spill/tmp files from dead processes
// and containers whose fingerprint does not match their name.
//
// --meta + --shard-id run the server as one shard of a cluster: it
// registers with the freehgc_meta service at HOST:PORT (loopback only;
// a bare port also works), advertises its GraphStore catalog, and
// heartbeats load so routers can place and fail over requests. The
// shard keeps serving direct connections too.

#include <malloc.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_agent.h"
#include "obs/flight_recorder.h"
#include "serve/server.h"

namespace {

freehgc::serve::Server* g_server = nullptr;
volatile std::sig_atomic_t g_dump_flight_recorder = 0;

// Async-signal-safe: RequestStop is one atomic store + one pipe write.
void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->RequestStop();
}

// SIGQUIT = stop + flight-recorder post-mortem. Only a flag is set here;
// the dump itself runs on the main thread after Wait() returns.
void HandleQuit(int /*sig*/) {
  g_dump_flight_recorder = 1;
  if (g_server != nullptr) g_server->RequestStop();
}

constexpr char kUsage[] =
    "usage: freehgc_server [--port=0] [--port-file=PATH] [--slots=2]\n"
    "         [--queue-capacity=32] [--threads-per-slot=0]\n"
    "         [--max-concurrent=0] [--aging-quantum-ms=250] [--slo-ms=0]\n"
    "         [--no-coalesce] [--spool-dir=PATH] [--map=NAME=PATH]...\n"
    "         [--access-log=PATH] [--resident-budget=BYTES]\n"
    "         [--spill-dir=PATH [--artifact-budget=BYTES]]\n"
    "         [--meta=HOST:PORT --shard-id=N [--heartbeat-ms=500]]\n";

// Rejects the command line: the reason, then the usage, and exit 2.
[[noreturn]] void Usage(const std::string& reason) {
  std::fprintf(stderr, "freehgc_server: %s\n%s", reason.c_str(), kUsage);
  std::exit(2);
}

// Strict integer: the whole of `value` must be a base-10 integer in T's
// range, or the command line is rejected (atoi would read "abc" as 0).
template <typename T>
T ParseIntValue(const std::string& flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max()) {
    Usage("bad integer value: " + flag);
  }
  return static_cast<T>(v);
}

template <typename T>
bool ParseIntFlag(const std::string& arg, const char* prefix, T* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = ParseIntValue<T>(arg, arg.c_str() + std::strlen(prefix));
  return true;
}

// Byte count with an optional K/M/G suffix (binary multiples).
bool ParseBytesFlag(const std::string& arg, const char* prefix,
                    size_t* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* value = arg.c_str() + std::string(prefix).size();
  char* end = nullptr;
  unsigned long long n = std::strtoull(value, &end, 10);
  if (end == value) Usage("bad byte count: " + arg);
  switch (*end) {
    case 'k': case 'K': n <<= 10; ++end; break;
    case 'm': case 'M': n <<= 20; ++end; break;
    case 'g': case 'G': n <<= 30; ++end; break;
    default: break;
  }
  if (*end != '\0') Usage("bad byte count: " + arg);
  *out = static_cast<size_t>(n);
  return true;
}

// Meta endpoint: "PORT" or "HOST:PORT" where HOST must be loopback (the
// cluster is single-machine multi-process).
bool ParseMetaFlag(const std::string& arg, int* port) {
  if (arg.rfind("--meta=", 0) != 0) return false;
  std::string value = arg.substr(std::string("--meta=").size());
  const size_t colon = value.rfind(':');
  if (colon != std::string::npos) {
    const std::string host = value.substr(0, colon);
    if (host != "127.0.0.1" && host != "localhost") {
      Usage("--meta only supports loopback hosts, got: " + host);
    }
    value = value.substr(colon + 1);
  }
  *port = ParseIntValue<int>(arg, value.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds. By default the mmap threshold
  // rises to the largest block freed so far, so whether a request's
  // multi-MB buffers (the trainer's per-epoch matrices) come from the
  // heap or from fresh mmap/munmap pairs, page-faulted on every touch,
  // depends on what earlier requests happened to free. Fixed values keep
  // every buffer up to 8 MiB on the heap, and the trim threshold keeps
  // that heap from being handed back and re-faulted between requests.
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  freehgc::serve::ServerOptions options;
  std::string port_file;
  std::string spool_dir;
  std::vector<std::pair<std::string, std::string>> maps;
  int meta_port = 0;
  int shard_id = -1;
  int heartbeat_ms = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseIntFlag(arg, "--port=", &options.port) ||
        ParseIntFlag(arg, "--slots=", &options.serve.slots) ||
        ParseIntFlag(arg, "--queue-capacity=",
                     &options.serve.queue_capacity) ||
        ParseIntFlag(arg, "--threads-per-slot=",
                     &options.serve.threads_per_slot) ||
        ParseIntFlag(arg, "--max-concurrent=",
                     &options.serve.max_concurrent) ||
        ParseIntFlag(arg, "--aging-quantum-ms=",
                       &options.serve.aging_quantum_ms) ||
        ParseIntFlag(arg, "--slo-ms=", &options.serve.slo_ms)) {
      continue;
    }
    if (arg == "--no-coalesce") {
      options.serve.coalesce_requests = false;
      continue;
    }
    if (ParseMetaFlag(arg, &meta_port) ||
        ParseIntFlag(arg, "--shard-id=", &shard_id) ||
        ParseIntFlag(arg, "--heartbeat-ms=", &heartbeat_ms)) {
      continue;
    }
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(std::string("--port-file=").size());
      continue;
    }
    if (arg.rfind("--spool-dir=", 0) == 0) {
      spool_dir = arg.substr(std::string("--spool-dir=").size());
      continue;
    }
    if (ParseBytesFlag(arg, "--artifact-budget=",
                       &options.serve.artifact_budget_bytes) ||
        ParseBytesFlag(arg, "--resident-budget=",
                       &options.serve.store_resident_budget_bytes)) {
      continue;
    }
    if (arg.rfind("--spill-dir=", 0) == 0) {
      options.serve.spill_dir = arg.substr(std::string("--spill-dir=").size());
      continue;
    }
    if (arg.rfind("--access-log=", 0) == 0) {
      options.serve.access_log_path =
          arg.substr(std::string("--access-log=").size());
      continue;
    }
    if (arg.rfind("--map=", 0) == 0) {
      const std::string spec = arg.substr(std::string("--map=").size());
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        Usage("--map expects NAME=PATH, got: " + spec);
      }
      maps.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    Usage("unknown flag: " + arg);
  }
  if (options.serve.artifact_budget_bytes != SIZE_MAX &&
      options.serve.spill_dir.empty()) {
    // Without a spill tier the cache cannot honour a budget.
    Usage("--artifact-budget needs --spill-dir");
  }

  // Orphan-spool GC: dead processes leave spill/tmp files behind, and a
  // crashed upload can leave a half-named container. Sweep before any
  // registration so stale files never shadow live ones.
  std::vector<std::string> sweep_dirs;
  if (!spool_dir.empty()) sweep_dirs.push_back(spool_dir);
  if (!options.serve.spill_dir.empty() &&
      options.serve.spill_dir != spool_dir) {
    sweep_dirs.push_back(options.serve.spill_dir);
  }
  for (const std::string& dir : sweep_dirs) {
    const freehgc::Result<int> swept = freehgc::serve::SweepSpoolDir(dir);
    if (swept.ok() && *swept > 0) {
      std::printf("swept %d orphan spool file(s) from %s\n", *swept,
                  dir.c_str());
    }
  }

  freehgc::serve::Server server(options);
  if (!spool_dir.empty()) {
    const freehgc::Status st = server.service().store().SetSpoolDir(spool_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "freehgc_server: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [name, path] : maps) {
    const auto info = server.service().store().RegisterMappedFile(name, path);
    if (!info.ok()) {
      std::fprintf(stderr, "freehgc_server: cannot map %s: %s\n", name.c_str(),
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf("mapped %s from %s (%lld nodes, %lld edges)\n", name.c_str(),
                path.c_str(), static_cast<long long>(info->nodes),
                static_cast<long long>(info->edges));
  }
  const freehgc::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "freehgc_server: %s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGQUIT, HandleQuit);

  if ((meta_port > 0) != (shard_id >= 0)) {
    std::fprintf(stderr,
                 "--meta and --shard-id must be given together\n");
    return 2;
  }
  std::unique_ptr<freehgc::cluster::ShardAgent> agent;
  if (meta_port > 0) {
    freehgc::cluster::ShardAgentOptions agent_options;
    agent_options.shard_id = static_cast<uint32_t>(shard_id);
    agent_options.meta_port = meta_port;
    agent_options.serve_port = server.port();
    agent_options.heartbeat_ms = heartbeat_ms;
    agent = std::make_unique<freehgc::cluster::ShardAgent>(agent_options,
                                                           &server.service());
    const freehgc::Status ast = agent->Start();
    if (!ast.ok()) {
      std::fprintf(stderr, "freehgc_server: cannot join cluster: %s\n",
                   ast.ToString().c_str());
      return 1;
    }
    std::printf("shard %d registered with meta service on 127.0.0.1:%d\n",
                shard_id, meta_port);
  }

  std::printf("freehgc_server listening on 127.0.0.1:%d (%d slots, queue %d)\n",
              server.port(), server.service().options().slots,
              server.service().options().queue_capacity);
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
  if (agent) agent->Stop();
  if (g_dump_flight_recorder != 0) {
    std::printf("flight recorder dump:\n%s\n",
                freehgc::obs::FlightRecorder::Global().DumpJson().c_str());
  }
  std::printf("freehgc_server drained; final stats:\n%s",
              server.service().StatsJson().c_str());
  return 0;
}
