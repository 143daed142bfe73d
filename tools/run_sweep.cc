// Ad-hoc sweep CLI over the pipeline layer: pick datasets, ratios,
// methods and seeds; every cell of the grid runs through one shared
// execution context and artifact cache.
//
//   run_sweep --datasets=toy --ratios=0.1 --methods=freehgc,herding
//             --seeds=1,2 --repeat=2 --json-prefix=/tmp/sweep
//
// --repeat=N runs the identical grid N times in-process against the same
// cache, writing <prefix>_runN.json per run. Cell values are bit-identical
// across runs (the cache's determinism invariant); only timing and the
// cache hit counts differ — which is exactly what the CI cold/warm step
// asserts.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "pipeline/sweep.h"

using namespace freehgc;

namespace {

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

[[noreturn]] void Usage(const std::string& reason = "") {
  if (!reason.empty()) std::fprintf(stderr, "run_sweep: %s\n", reason.c_str());
  std::fprintf(
      stderr,
      "usage: run_sweep [--datasets=a,b] [--ratios=0.012,0.024]\n"
      "                 [--methods=key,key] [--seeds=1,2,3] [--threads=N]\n"
      "                 [--whole-baseline] [--repeat=N]\n"
      "                 [--json-prefix=PATH] [--quiet]\n"
      "ratios lie in (0, 1); seeds, threads and repeat are integers\n"
      "registered methods:");
  for (const auto& key : pipeline::MethodRegistry::Global().Keys()) {
    std::fprintf(stderr, " %s", key.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> datasets = {"toy"};
  std::vector<double> ratios = {0.1};
  pipeline::SweepSpec spec;
  spec.methods = {"freehgc"};
  spec.seeds = {1, 2};
  int threads = 0;
  int repeat = 1;
  std::string json_prefix;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size());
    };
    if (arg.rfind("--datasets=", 0) == 0) {
      datasets = SplitList(value("--datasets="));
    } else if (arg.rfind("--ratios=", 0) == 0) {
      ratios.clear();
      for (const auto& r : SplitList(value("--ratios="))) {
        double ratio;
        if (!ParseDouble(r.c_str(), &ratio) || ratio <= 0.0 || ratio >= 1.0) {
          Usage("bad ratio: " + r);
        }
        ratios.push_back(ratio);
      }
    } else if (arg.rfind("--methods=", 0) == 0) {
      spec.methods = SplitList(value("--methods="));
    } else if (arg.rfind("--seeds=", 0) == 0) {
      spec.seeds.clear();
      for (const auto& s : SplitList(value("--seeds="))) {
        uint64_t seed;
        if (!ParseInt(s.c_str(), &seed)) Usage("bad seed: " + s);
        spec.seeds.push_back(seed);
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseInt(value("--threads=").c_str(), &threads) || threads < 0) {
        Usage("bad integer value: " + arg);
      }
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!ParseInt(value("--repeat=").c_str(), &repeat)) {
        Usage("bad integer value: " + arg);
      }
    } else if (arg.rfind("--json-prefix=", 0) == 0) {
      json_prefix = value("--json-prefix=");
    } else if (arg == "--whole-baseline") {
      spec.whole_graph_baseline = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      Usage();
    }
  }
  if (datasets.empty() || ratios.empty() || spec.methods.empty() ||
      spec.seeds.empty() || repeat < 1) {
    Usage();
  }
  for (const auto& name : datasets) {
    spec.datasets.push_back({.name = name, .ratios = ratios});
  }
  for (const auto& key : spec.methods) {
    if (pipeline::MethodRegistry::Global().Find(key) == nullptr) {
      std::fprintf(stderr, "unknown method '%s'\n", key.c_str());
      Usage();
    }
  }

  exec::ExecContext ex(threads);
  pipeline::SweepRunner runner(std::move(spec), &ex);

  for (int run = 1; run <= repeat; ++run) {
    auto result = runner.Run();
    if (!result.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("--- run %d/%d (%.2fs, cache: %lld hits / %lld misses, "
                  "%zu bytes) ---\n",
                  run, repeat, result->total_seconds,
                  static_cast<long long>(result->cache_stats.hits),
                  static_cast<long long>(result->cache_stats.misses),
                  result->cache_stats.bytes);
      pipeline::PrintRatioTables(*result, runner.spec());
    }
    if (!json_prefix.empty()) {
      const std::string path =
          json_prefix + StrFormat("_run%d.json", run);
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out << result->ToJson();
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}
