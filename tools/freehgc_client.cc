// freehgc_client: command-line front-end for a running freehgc_server.
//
//   freehgc_client --port=P ping
//   freehgc_client --port=P register NAME PRESET [--seed=1] [--scale=1.0]
//   freehgc_client --port=P upload NAME FILE
//   freehgc_client --port=P list
//   freehgc_client --port=P condense GRAPH [--method=freehgc] [--ratio=0.1]
//                  [--seed=1] [--max-hops=2] [--max-paths=12 (>= 1)]
//                  [--evaluate] [--output=FILE] [--deadline-ms=0]
//                  [--priority=0]
//   freehgc_client --port=P loadgen GRAPH [--method=freehgc] [--ratio=0.1]
//                  [--classes=24] [--rate=50] [--ramp-s=1] [--sustain-s=2]
//                  [--overload-s=0] [--overload-x=6] [--threads=8]
//                  [--seed=1] [--report=FILE] [--check]
//   freehgc_client --port=P stats
//   freehgc_client --port=P metrics     # Prometheus text exposition
//   freehgc_client --port=P health      # liveness JSON
//   freehgc_client --port=P flight      # flight-recorder dump (JSON)
//   freehgc_client --port=P shutdown
//
// --port-file=PATH reads the port a server wrote with its own
// --port-file flag. An unknown flag or a malformed number exits 2 with
// the usage.
//
// Cluster mode: pass --meta-port=P (or --meta-port-file=PATH) instead of
// --port to route through a freehgc_meta service. Then:
//
//   upload NAME FILE [--replicas=2]   places on the least-loaded shards
//   condense GRAPH [flags]            routes to a live replica (failover)
//   resolve NAME                      prints the shard placement
//   shards                            one row per shard (liveness + load)
//   stats                             meta-service state JSON
//   shutdown                          stops the meta service

#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "cluster/router.h"
#include "common/string_util.h"
#include "serve/client.h"

namespace {

using freehgc::Status;
using freehgc::serve::CondenseRequest;
using freehgc::serve::GraphInfo;
using freehgc::serve::ServeClient;

int Fail(const Status& st) {
  std::fprintf(stderr, "freehgc_client: %s\n", st.ToString().c_str());
  return 1;
}

constexpr char kUsage[] =
    "usage: freehgc_client --port=P (or --port-file=PATH) "
    "ping|register|upload|list|condense|loadgen|stats|metrics|"
    "health|flight|shutdown ...\n"
    "       freehgc_client --meta-port=P (or --meta-port-file=PATH) "
    "ping|upload|condense|resolve|shards|stats|shutdown ...\n";

[[noreturn]] void Usage(const std::string& reason) {
  std::fprintf(stderr, "freehgc_client: %s\n%s", reason.c_str(), kUsage);
  std::exit(2);
}

bool FlagValue(const std::string& arg, const char* prefix,
               std::string* out) {
  const std::string p = prefix;
  if (arg.rfind(p, 0) != 0) return false;
  *out = arg.substr(p.size());
  return true;
}

/// True when `arg` is `prefix` followed by a value, which is parsed into
/// `*out`; a malformed value exits 2 with the usage.
template <typename T>
bool NumberFlag(const std::string& arg, const char* prefix, T* out) {
  std::string v;
  if (!FlagValue(arg, prefix, &v)) return false;
  bool ok = false;
  if constexpr (std::is_floating_point_v<T>) {
    ok = freehgc::ParseDouble(v.c_str(), out);
  } else {
    ok = freehgc::ParseInt(v.c_str(), out);
  }
  if (!ok) Usage("bad numeric value: " + arg);
  return true;
}

void PrintInfo(const GraphInfo& info) {
  std::printf("%-16s fp=%016llx nodes=%lld edges=%lld bytes=%zu %s%s\n",
              info.name.c_str(),
              static_cast<unsigned long long>(info.fingerprint),
              static_cast<long long>(info.nodes),
              static_cast<long long>(info.edges), info.memory_bytes,
              info.mapped ? "mapped " : "heap",
              info.mapped ? info.source_path.c_str() : "");
}

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(size > 0 ? static_cast<size_t>(size) : 0);
  const bool ok =
      out->empty() || std::fread(out->data(), 1, out->size(), f) ==
                          out->size();
  std::fclose(f);
  return ok;
}

/// Reads the port a server wrote to `path` (digits plus a newline); an
/// unreadable or malformed file exits 2 with the usage.
void ReadPortFile(const std::string& path, int* port) {
  std::string contents;
  if (!ReadFile(path, &contents)) Usage("cannot read port file " + path);
  contents.erase(contents.find_last_not_of(" \t\r\n") + 1);
  if (!freehgc::ParseInt(contents.c_str(), port)) {
    Usage("bad port file " + path);
  }
}

// Open-loop load settings for the `loadgen` command.
struct LoadgenFlags {
  int classes = 24;       // seeds 1..classes, max_paths cycling {4, 6, 8}
  double rate = 50.0;     // sustain arrival rate (requests/second)
  double ramp_s = 1.0;    // ramp 0.25*rate -> rate over this many seconds
  double sustain_s = 2.0;
  double overload_s = 0.0;   // 0 = no overload phase
  double overload_x = 6.0;   // overload rate = overload_x * rate
  int threads = 8;
  uint64_t seed = 1;         // schedule seed (deterministic arrivals)
  std::string report;        // write the phase reports as JSON here
  bool check = false;        // exit nonzero on errors or off-phase sheds
};

/// Replays a deterministic open-loop schedule against a live server. One
/// ServeClient per worker thread (the wire protocol is one request per
/// connection at a time), connected lazily on the thread's first arrival.
int RunLoadgen(int port, const std::string& graph, CondenseRequest base,
               const LoadgenFlags& flags) {
  namespace lg = freehgc::loadgen;
  lg::LoadSpec spec;
  spec.seed = flags.seed;
  const int path_caps[3] = {4, 6, 8};
  for (int c = 0; c < (flags.classes > 0 ? flags.classes : 1); ++c) {
    lg::RequestClass cls;
    CondenseRequest req = base;
    req.graph = graph;
    req.seed = static_cast<uint64_t>(1 + c);
    req.max_paths = path_caps[c % 3];
    cls.name = freehgc::StrFormat("c%d", c);
    cls.request = req;
    spec.classes.push_back(cls);
  }
  if (flags.ramp_s > 0) {
    spec.phases.push_back({"ramp", flags.ramp_s, 0.25 * flags.rate,
                           flags.rate});
  }
  if (flags.sustain_s > 0) {
    spec.phases.push_back({"sustain", flags.sustain_s, flags.rate,
                           flags.rate});
  }
  if (flags.overload_s > 0) {
    const double rate = flags.overload_x * flags.rate;
    spec.phases.push_back({"overload", flags.overload_s, rate, rate});
  }
  if (spec.phases.empty()) {
    std::fprintf(stderr, "loadgen: no phases (all durations are 0)\n");
    return 2;
  }
  const auto schedule = lg::BuildSchedule(spec);
  std::printf("loadgen: %zu arrivals, %zu classes, %zu phase(s), seed %llu, "
              "%d client thread(s)\n",
              schedule.size(), spec.classes.size(), spec.phases.size(),
              static_cast<unsigned long long>(spec.seed), flags.threads);
  std::fflush(stdout);

  const auto report = lg::RunOpenLoop(
      spec, schedule, flags.threads,
      [port](const CondenseRequest& req, uint32_t) -> Status {
        thread_local ServeClient client;
        thread_local bool connected = false;
        if (!connected) {
          if (Status st = client.Connect(port); !st.ok()) return st;
          connected = true;
        }
        return client.Condense(req).status();
      });

  std::string json;
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const lg::PhaseReport& pr = report.phases[i];
    std::printf("%-8s: offered %8.1f rps  achieved %8.1f rps  "
                "p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms  ok %lld  "
                "shed %lld  expired %lld  errors %lld  lag %.1f ms\n",
                pr.name.c_str(), pr.offered_rps, pr.achieved_rps, pr.p50_ms,
                pr.p95_ms, pr.p99_ms, static_cast<long long>(pr.ok),
                static_cast<long long>(pr.shed),
                static_cast<long long>(pr.expired),
                static_cast<long long>(pr.errors), pr.max_lag_ms);
    json += "    " + lg::PhaseReportJson(pr);
    json += i + 1 < report.phases.size() ? ",\n" : "\n";
  }
  if (!flags.report.empty()) {
    FILE* f = std::fopen(flags.report.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.report.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"loadgen\": {\"graph\": \"%s\", \"classes\": %zu, "
                 "\"seed\": %llu, \"threads\": %d},\n  \"phases\": [\n%s  ]\n}\n",
                 graph.c_str(), spec.classes.size(),
                 static_cast<unsigned long long>(spec.seed), flags.threads,
                 json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", flags.report.c_str());
  }

  if (flags.check) {
    if (report.errors > 0) {
      std::fprintf(stderr, "loadgen: %lld protocol error(s)\n",
                   static_cast<long long>(report.errors));
      return 1;
    }
    for (const lg::PhaseReport& pr : report.phases) {
      if (pr.name != "overload" && (pr.shed > 0 || pr.expired > 0)) {
        std::fprintf(stderr,
                     "loadgen: %lld shed / %lld expired outside the "
                     "overload phase (%s)\n",
                     static_cast<long long>(pr.shed),
                     static_cast<long long>(pr.expired), pr.name.c_str());
        return 1;
      }
    }
  }
  return 0;
}

// Commands available when routing through the meta service.
int RunClusterCommand(int meta_port, const std::string& command,
                      const std::vector<std::string>& positional,
                      CondenseRequest req, const std::string& output,
                      int replicas) {
  freehgc::cluster::RouterOptions options;
  options.meta_port = meta_port;
  freehgc::cluster::Router router(options);
  if (Status st = router.Connect(); !st.ok()) return Fail(st);

  if (command == "upload") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "usage: upload NAME FILE [--replicas=N]\n");
      return 2;
    }
    std::string container;
    if (!ReadFile(positional[1], &container)) {
      std::fprintf(stderr, "cannot read %s\n", positional[1].c_str());
      return 1;
    }
    auto info = router.Upload(positional[0], container, replicas);
    if (!info.ok()) return Fail(info.status());
    PrintInfo(*info);
    auto placement = router.Resolve(positional[0]);
    if (placement.ok()) {
      std::printf("placed on %zu shard(s):", placement->shards.size());
      for (const auto& ep : placement->shards) {
        std::printf(" %u(:%d)", ep.shard_id, ep.port);
      }
      std::printf(" [v%llu]\n",
                  static_cast<unsigned long long>(placement->version));
    }
    return 0;
  }
  if (command == "condense") {
    if (positional.size() != 1) {
      std::fprintf(stderr,
                   "usage: condense GRAPH [flags] (--max-paths >= 1)\n");
      return 2;
    }
    req.graph = positional[0];
    req.return_graph = !output.empty();
    auto reply = router.Condense(req);
    if (!reply.ok()) return Fail(reply.status());
    const freehgc::cluster::RouterStats stats = router.stats();
    std::printf(
        "condensed %s with %s: %lld nodes, %lld edges "
        "(total %.3fs) [resolves %lld, failovers %lld]\n",
        req.graph.c_str(), req.method.c_str(),
        static_cast<long long>(reply->nodes),
        static_cast<long long>(reply->edges), reply->total_seconds,
        static_cast<long long>(stats.resolves),
        static_cast<long long>(stats.failovers));
    if (!output.empty()) {
      FILE* f = std::fopen(output.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(reply->graph_bytes.data(), 1, reply->graph_bytes.size(),
                      f) != reply->graph_bytes.size()) {
        if (f != nullptr) std::fclose(f);
        std::fprintf(stderr, "cannot write %s\n", output.c_str());
        return 1;
      }
      std::fclose(f);
      std::printf("wrote condensed graph to %s (%zu bytes)\n", output.c_str(),
                  reply->graph_bytes.size());
    }
    return 0;
  }
  if (command == "resolve") {
    if (positional.size() != 1) {
      std::fprintf(stderr, "usage: resolve NAME\n");
      return 2;
    }
    auto placement = router.Resolve(positional[0]);
    if (!placement.ok()) return Fail(placement.status());
    std::printf("%s fp=%016llx v%llu\n", placement->name.c_str(),
                static_cast<unsigned long long>(placement->fingerprint),
                static_cast<unsigned long long>(placement->version));
    for (const auto& ep : placement->shards) {
      std::printf("  shard %u port %d %s\n", ep.shard_id, ep.port,
                  ep.alive ? "alive" : "dead");
    }
    return 0;
  }
  if (command == "shards") {
    auto shards = router.Shards();
    if (!shards.ok()) return Fail(shards.status());
    std::printf("%6s %6s %6s %8s %10s %6s %8s %9s %7s\n", "shard", "port",
                "state", "hb-age", "resident", "queue", "inflight",
                "completed", "graphs");
    for (const auto& s : *shards) {
      std::printf("%6u %6d %6s %6lldms %9.1fM %6lld %8lld %9lld %7lld\n",
                  s.shard_id, s.port, s.alive ? "alive" : "dead",
                  static_cast<long long>(s.heartbeat_age_ms),
                  static_cast<double>(s.load.resident_bytes) / 1e6,
                  static_cast<long long>(s.load.queue_depth),
                  static_cast<long long>(s.load.inflight),
                  static_cast<long long>(s.load.completed),
                  static_cast<long long>(s.graphs));
    }
    return 0;
  }
  // The remaining meta-side commands talk to the service directly.
  freehgc::cluster::MetaClient meta;
  if (Status st = meta.Connect(meta_port); !st.ok()) return Fail(st);
  if (command == "ping") {
    std::printf("ok\n");
    return 0;
  }
  if (command == "stats") {
    auto stats = meta.Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("%s\n", stats->c_str());
    return 0;
  }
  if (command == "shutdown") {
    if (Status st = meta.Shutdown(); !st.ok()) return Fail(st);
    std::printf("shutdown requested\n");
    return 0;
  }
  std::fprintf(stderr, "unknown cluster command: %s\n", command.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int meta_port = 0;
  int replicas = 1;
  std::string command;
  std::vector<std::string> positional;
  CondenseRequest req;
  std::string output;
  uint64_t seed = 1;
  double scale = 0.0;
  LoadgenFlags lg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (NumberFlag(arg, "--port=", &port) ||
        NumberFlag(arg, "--meta-port=", &meta_port) ||
        NumberFlag(arg, "--replicas=", &replicas) ||
        NumberFlag(arg, "--ratio=", &req.ratio) ||
        NumberFlag(arg, "--seed=", &seed) ||
        NumberFlag(arg, "--scale=", &scale) ||
        NumberFlag(arg, "--max-hops=", &req.max_hops) ||
        NumberFlag(arg, "--max-paths=", &req.max_paths) ||
        NumberFlag(arg, "--deadline-ms=", &req.deadline_ms) ||
        NumberFlag(arg, "--priority=", &req.priority) ||
        NumberFlag(arg, "--classes=", &lg.classes) ||
        NumberFlag(arg, "--rate=", &lg.rate) ||
        NumberFlag(arg, "--ramp-s=", &lg.ramp_s) ||
        NumberFlag(arg, "--sustain-s=", &lg.sustain_s) ||
        NumberFlag(arg, "--overload-s=", &lg.overload_s) ||
        NumberFlag(arg, "--overload-x=", &lg.overload_x) ||
        NumberFlag(arg, "--threads=", &lg.threads)) {
      continue;
    }
    std::string v;
    if (FlagValue(arg, "--port-file=", &v)) {
      ReadPortFile(v, &port);
    } else if (FlagValue(arg, "--meta-port-file=", &v)) {
      ReadPortFile(v, &meta_port);
    } else if (FlagValue(arg, "--method=", &v)) {
      req.method = v;
    } else if (FlagValue(arg, "--output=", &v)) {
      output = v;
    } else if (FlagValue(arg, "--report=", &v)) {
      lg.report = v;
    } else if (arg == "--check") {
      lg.check = true;
    } else if (arg == "--evaluate") {
      req.evaluate = true;
    } else if (arg.rfind("--", 0) == 0) {
      Usage("unknown flag: " + arg);
    } else if (command.empty()) {
      command = arg;
    } else {
      positional.push_back(arg);
    }
  }
  if ((port <= 0 && meta_port <= 0) || command.empty()) {
    Usage("a port and a command are required");
  }
  if (meta_port > 0) {
    req.seed = seed;
    return RunClusterCommand(meta_port, command, positional, req, output,
                             replicas);
  }

  ServeClient client;
  if (Status st = client.Connect(port); !st.ok()) return Fail(st);

  if (command == "ping") {
    if (Status st = client.Ping(); !st.ok()) return Fail(st);
    std::printf("ok\n");
    return 0;
  }
  if (command == "register") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "usage: register NAME PRESET\n");
      return 2;
    }
    auto info =
        client.RegisterGenerator(positional[0], positional[1], seed, scale);
    if (!info.ok()) return Fail(info.status());
    PrintInfo(*info);
    return 0;
  }
  if (command == "upload") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "usage: upload NAME FILE\n");
      return 2;
    }
    std::string container;
    if (!ReadFile(positional[1], &container)) {
      std::fprintf(stderr, "cannot read %s\n", positional[1].c_str());
      return 1;
    }
    auto info = client.UploadGraph(positional[0], container);
    if (!info.ok()) return Fail(info.status());
    PrintInfo(*info);
    return 0;
  }
  if (command == "list") {
    auto infos = client.ListGraphs();
    if (!infos.ok()) return Fail(infos.status());
    for (const GraphInfo& info : *infos) PrintInfo(info);
    return 0;
  }
  if (command == "condense") {
    if (positional.size() != 1) {
      std::fprintf(stderr,
                   "usage: condense GRAPH [flags] (--max-paths >= 1)\n");
      return 2;
    }
    req.graph = positional[0];
    req.seed = seed;
    req.return_graph = !output.empty();
    auto reply = client.Condense(req);
    if (!reply.ok()) return Fail(reply.status());
    std::printf(
        "condensed %s with %s: %lld nodes, %lld edges, %zu bytes "
        "(condense %.3fs, queue %.3fs, total %.3fs) "
        "[req %llu, evalctx %s]\n",
        req.graph.c_str(), req.method.c_str(),
        static_cast<long long>(reply->nodes),
        static_cast<long long>(reply->edges), reply->storage_bytes,
        reply->condense_seconds, reply->queue_seconds, reply->total_seconds,
        static_cast<unsigned long long>(reply->request_id),
        reply->evalctx_hit ? "hit" : "built");
    if (reply->evaluated) {
      std::printf("accuracy %.2f%%, macro-F1 %.2f%%\n",
                  static_cast<double>(reply->accuracy),
                  static_cast<double>(reply->macro_f1));
    }
    if (!output.empty()) {
      FILE* f = std::fopen(output.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(reply->graph_bytes.data(), 1,
                      reply->graph_bytes.size(),
                      f) != reply->graph_bytes.size()) {
        if (f != nullptr) std::fclose(f);
        std::fprintf(stderr, "cannot write %s\n", output.c_str());
        return 1;
      }
      std::fclose(f);
      std::printf("wrote condensed graph to %s (%zu bytes)\n",
                  output.c_str(), reply->graph_bytes.size());
    }
    return 0;
  }
  if (command == "loadgen") {
    if (positional.size() != 1) {
      std::fprintf(stderr, "usage: loadgen GRAPH [flags]\n");
      return 2;
    }
    lg.seed = seed;
    return RunLoadgen(port, positional[0], req, lg);
  }
  if (command == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("%s", stats->c_str());
    return 0;
  }
  if (command == "metrics") {
    auto metrics = client.Metrics();
    if (!metrics.ok()) return Fail(metrics.status());
    std::printf("%s", metrics->c_str());
    return 0;
  }
  if (command == "health") {
    auto health = client.Health();
    if (!health.ok()) return Fail(health.status());
    std::printf("%s\n", health->c_str());
    return 0;
  }
  if (command == "flight") {
    auto dump = client.FlightRecorderDump();
    if (!dump.ok()) return Fail(dump.status());
    std::printf("%s\n", dump->c_str());
    return 0;
  }
  if (command == "shutdown") {
    if (Status st = client.Shutdown(); !st.ok()) return Fail(st);
    std::printf("shutdown requested\n");
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
