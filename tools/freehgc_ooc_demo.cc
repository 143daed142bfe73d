// freehgc_ooc_demo: out-of-core generate -> condense -> serve driver.
//
//   freehgc_ooc_demo --phase=generate --preset=aminer --scale=44
//                    --seed=1 --path=/tmp/aminer.fhgc
//   freehgc_ooc_demo --phase=condense --path=/tmp/aminer.fhgc
//                    [--out=/tmp/aminer_small.fhgc] [--ratio=0.01]
//                    [--max-hops=1] [--max-paths=2] [--max-row-nnz=512]
//                    [--try-heap]
//   freehgc_ooc_demo --phase=serve --path=/tmp/aminer.fhgc
//                    [--method=herding] [--ratio=0.01] [--max-hops=1]
//                    [--max-paths=2] [--max-row-nnz=512] [--evaluate]
//                    [--try-heap] [--spill-dir=DIR]
//                    [--artifact-budget=BYTES] [--resident-budget=BYTES]
//                    [--fingerprint]
//
// A malformed numeric flag exits 2 with the usage.
//
// The generate phase streams a preset schema straight into a v3
// container (datasets::GenerateToV3) without ever materializing the heap
// graph, then maps the result to report its logical in-heap footprint.
// The condense phase maps the container and runs the paper's
// training-free selection (core::Condense, on a local artifact cache)
// directly against the mapped arrays; its heap working set is the
// composed meta-path adjacencies and score vectors, a fraction of the
// graph itself, so it fits under a cap the full graph does not. The
// serve phase registers the container as a
// zero-copy mapped graph in a ServeService and runs one condense request
// against it (this path pre-propagates dense feature blocks, so its
// working set is larger — run it uncapped or at a smaller scale).
//
// The point of the split: run the condense/serve phases under a heap cap
// smaller than the graph's in-heap size (`ulimit -d`, which limits
// brk/anonymous mappings but not file-backed ones) to prove the graph is
// read from the page cache, not the heap. --try-heap additionally
// attempts the old-style load (slurp the whole file into memory) and
// reports that it is refused under the cap. Machine-readable
// `OOC key=value` lines feed the CI assertions.
//
// With --spill-dir (plus --artifact-budget), the serve phase runs the
// full request path — EvalContext build included — against the tiered
// ArtifactCache: propagated feature blocks stream through spool files
// instead of materializing on the heap, so the request now fits under a
// cap that refuses the unbudgeted run. --fingerprint fetches the
// condensed graph back and prints its content fingerprint, the value the
// spill bench compares across budgeted and unbudgeted runs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>

#include "common/string_util.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "graph/serialize.h"
#include "pipeline/artifact_cache.h"
#include "serve/service.h"

namespace {

constexpr char kUsage[] =
    "usage: freehgc_ooc_demo --phase=generate|condense|serve "
    "[--preset=NAME] [--scale=X]\n"
    "         [--seed=N] [--path=FILE] [--out=FILE] [--method=KEY] "
    "[--ratio=X]\n"
    "         [--max-hops=N] [--max-paths=N] [--max-row-nnz=N] "
    "[--evaluate]\n"
    "         [--try-heap] [--spill-dir=DIR] [--artifact-budget=BYTES]\n"
    "         [--resident-budget=BYTES] [--fingerprint]\n";

[[noreturn]] void Usage(const std::string& reason) {
  std::fprintf(stderr, "freehgc_ooc_demo: %s\n%s", reason.c_str(), kUsage);
  std::exit(2);
}

bool FlagValue(const std::string& arg, const char* prefix, std::string* out) {
  const std::string p(prefix);
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

/// VmHWM / VmData / ... from /proc/self/status, in bytes (-1 if absent).
long long ProcStatusBytes(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long long out = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      out = std::atoll(line + key_len + 1) * 1024;  // reported in kB
      break;
    }
  }
  std::fclose(f);
  return out;
}

int Fail(const freehgc::Status& st) {
  std::fprintf(stderr, "freehgc_ooc_demo: %s\n", st.ToString().c_str());
  return 1;
}

int RunGenerate(const std::string& preset, double scale, uint64_t seed,
                const std::string& path) {
  auto config = freehgc::datasets::PresetConfig(preset, scale);
  if (!config.ok()) return Fail(config.status());
  auto summary = freehgc::datasets::GenerateToV3(*config, seed, path);
  if (!summary.ok()) return Fail(summary.status());

  // Map the result (zero-copy, no heap growth) to report the footprint a
  // heap deserialize would pay — the number the serve-phase cap must
  // undercut.
  auto mapped = freehgc::MapHeteroGraphDetailed(path);
  if (!mapped.ok()) return Fail(mapped.status());
  std::printf("OOC phase=generate preset=%s scale=%g seed=%llu\n",
              preset.c_str(), scale, static_cast<unsigned long long>(seed));
  std::printf("OOC nodes=%lld edges=%lld\n",
              static_cast<long long>(summary->nodes),
              static_cast<long long>(summary->edges));
  std::printf("OOC file_bytes=%llu heap_bytes=%zu fingerprint=%016llx\n",
              static_cast<unsigned long long>(summary->file_bytes),
              mapped->graph.MemoryBytes(),
              static_cast<unsigned long long>(summary->fingerprint));
  std::printf("OOC generate_data_bytes=%lld peak_rss_bytes=%lld\n",
              ProcStatusBytes("VmData"), ProcStatusBytes("VmHWM"));
  return 0;
}

/// The pre-mmap load path: slurp the whole container into memory before
/// parsing. Under the demo's heap cap this allocation must fail — which
/// is exactly why the mapped path exists. Prints an `OOC heap_slurp=`
/// line; returns false only when the file cannot be opened at all.
bool TryHeapSlurp(const std::string& path) {
  bool heap_ok = true;
  size_t slurped = 0;
  try {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::string buf(static_cast<size_t>(n > 0 ? n : 0), '\0');
    slurped = std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
  } catch (const std::bad_alloc&) {
    heap_ok = false;
  }
  std::printf("OOC heap_slurp=%s bytes=%zu\n",
              heap_ok ? "ok" : "refused", slurped);
  return true;
}

int RunCondense(const std::string& path, const std::string& out, double ratio,
                const freehgc::MetaPathOptions& mp, uint64_t seed,
                bool try_heap) {
  if (try_heap && !TryHeapSlurp(path)) {
    return Fail(freehgc::Status::NotFound("cannot open " + path));
  }
  auto mapped = freehgc::MapHeteroGraph(path);
  if (!mapped.ok()) return Fail(mapped.status());
  std::printf("OOC phase=condense mapped=%d nodes=%lld edges=%lld\n",
              mapped->IsMapped() ? 1 : 0,
              static_cast<long long>(mapped->TotalNodes()),
              static_cast<long long>(mapped->TotalEdges()));
  std::printf("OOC logical_bytes=%zu resident_bytes=%zu\n",
              mapped->MemoryBytes(), mapped->ResidentHeapBytes());

  freehgc::core::FreeHgcOptions opts;
  opts.ratio = ratio;
  static_cast<freehgc::MetaPathOptions&>(opts) = mp;
  opts.seed = seed;
  freehgc::pipeline::ArtifactCache cache;
  auto res = freehgc::core::Condense(*mapped, opts, nullptr, &cache);
  if (!res.ok()) return Fail(res.status());
  std::printf("OOC condensed_nodes=%lld condensed_edges=%lld "
              "condensed_bytes=%zu condense_seconds=%.3f\n",
              static_cast<long long>(res->graph.TotalNodes()),
              static_cast<long long>(res->graph.TotalEdges()),
              res->graph.MemoryBytes(), res->seconds);
  if (!out.empty()) {
    auto saved = freehgc::SaveHeteroGraphV3(res->graph, out);
    if (!saved.ok()) return Fail(saved.status());
    std::printf("OOC out=%s out_bytes=%llu\n", out.c_str(),
                static_cast<unsigned long long>(saved->file_bytes));
  }
  std::printf("OOC condense_data_bytes=%lld peak_rss_bytes=%lld\n",
              ProcStatusBytes("VmData"), ProcStatusBytes("VmHWM"));
  return 0;
}

struct ServeBudget {
  std::string spill_dir;
  size_t artifact_budget = SIZE_MAX;
  size_t resident_budget = SIZE_MAX;
  bool fingerprint = false;
};

int RunServe(const std::string& path, const std::string& method, double ratio,
             const freehgc::MetaPathOptions& mp, bool evaluate, bool try_heap,
             const ServeBudget& budget) {
  if (try_heap && !TryHeapSlurp(path)) {
    return Fail(freehgc::Status::NotFound("cannot open " + path));
  }

  freehgc::serve::ServeOptions options;
  options.slots = 1;
  options.spill_dir = budget.spill_dir;
  options.artifact_budget_bytes = budget.artifact_budget;
  options.store_resident_budget_bytes = budget.resident_budget;
  freehgc::serve::ServeService service(options);
  std::printf("OOC spill_enabled=%d artifact_budget_bytes=%lld\n",
              service.cache().spill_enabled() ? 1 : 0,
              budget.artifact_budget == SIZE_MAX
                  ? -1LL
                  : static_cast<long long>(budget.artifact_budget));
  auto info = service.store().RegisterMappedFile("g", path);
  if (!info.ok()) return Fail(info.status());
  std::printf("OOC phase=serve mapped=%d nodes=%lld edges=%lld\n",
              info->mapped ? 1 : 0, static_cast<long long>(info->nodes),
              static_cast<long long>(info->edges));
  std::printf("OOC logical_bytes=%zu resident_bytes=%zu\n",
              info->memory_bytes, service.store().ResidentBytes());

  // --ratio=0 skips the condense request: the phase then measures pure
  // serving residency (registration + catalog). With --ratio>0 the full
  // request path runs, EvalContext build included; unbudgeted, its
  // pre-propagated feature blocks rival the graph itself, but with
  // --spill-dir + --artifact-budget the blocks stream through spool
  // files and the request fits under a cap the unbudgeted run does not.
  if (ratio > 0) {
    freehgc::serve::CondenseRequest request;
    request.graph = "g";
    request.method = method;
    request.ratio = ratio;
    request.max_hops = mp.max_hops;
    request.max_paths = mp.max_paths;
    request.max_row_nnz = mp.max_row_nnz;
    request.evaluate = evaluate;
    request.return_graph = budget.fingerprint;
    auto reply = service.Condense(request);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("OOC condensed_nodes=%lld condensed_edges=%lld "
                "condense_seconds=%.3f\n",
                static_cast<long long>(reply->nodes),
                static_cast<long long>(reply->edges),
                reply->condense_seconds);
    if (reply->evaluated) {
      std::printf("OOC accuracy=%.2f macro_f1=%.2f\n",
                  static_cast<double>(reply->accuracy),
                  static_cast<double>(reply->macro_f1));
    }
    if (budget.fingerprint) {
      auto condensed = freehgc::DeserializeHeteroGraph(reply->graph_bytes);
      if (!condensed.ok()) return Fail(condensed.status());
      std::printf("OOC condensed_fingerprint=%016llx\n",
                  static_cast<unsigned long long>(
                      condensed->ContentFingerprint()));
    }
  }
  const auto cache = service.cache().stats();
  std::printf("OOC cache_spills=%lld cache_restores=%lld "
              "cache_spill_bytes=%zu\n",
              static_cast<long long>(cache.spills),
              static_cast<long long>(cache.restores), cache.spill_bytes);
  std::printf("OOC cache_resident_bytes=%zu cache_peak_resident_bytes=%zu\n",
              cache.resident_bytes, cache.peak_resident_bytes);
  std::printf("OOC store_evictions=%lld store_mapped_resident_bytes=%zu\n",
              static_cast<long long>(service.store().Evictions()),
              service.store().MappedResidentBytes());
  std::printf("OOC serve_data_bytes=%lld peak_rss_bytes=%lld\n",
              ProcStatusBytes("VmData"), ProcStatusBytes("VmHWM"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string phase = "generate";
  std::string preset = "aminer";
  std::string path = "/tmp/freehgc_ooc.fhgc";
  std::string out;
  std::string method = "herding";
  double scale = 1.0;
  double ratio = 0.01;
  uint64_t seed = 1;
  freehgc::MetaPathOptions mp;
  mp.max_hops = 1;
  mp.max_paths = 2;
  bool evaluate = false;
  bool try_heap = false;
  ServeBudget budget;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (NumberFlag(arg, "--scale=", &scale) ||
        NumberFlag(arg, "--ratio=", &ratio) ||
        NumberFlag(arg, "--seed=", &seed) ||
        NumberFlag(arg, "--max-hops=", &mp.max_hops) ||
        NumberFlag(arg, "--max-paths=", &mp.max_paths) ||
        NumberFlag(arg, "--max-row-nnz=", &mp.max_row_nnz) ||
        NumberFlag(arg, "--artifact-budget=", &budget.artifact_budget) ||
        NumberFlag(arg, "--resident-budget=", &budget.resident_budget)) {
      continue;
    }
    std::string v;
    if (FlagValue(arg, "--phase=", &v)) {
      phase = v;
    } else if (FlagValue(arg, "--preset=", &v)) {
      preset = v;
    } else if (FlagValue(arg, "--path=", &v)) {
      path = v;
    } else if (FlagValue(arg, "--out=", &v)) {
      out = v;
    } else if (FlagValue(arg, "--method=", &v)) {
      method = v;
    } else if (FlagValue(arg, "--spill-dir=", &v)) {
      budget.spill_dir = v;
    } else if (arg == "--fingerprint") {
      budget.fingerprint = true;
    } else if (arg == "--evaluate") {
      evaluate = true;
    } else if (arg == "--try-heap") {
      try_heap = true;
    } else {
      Usage("unknown flag: " + arg);
    }
  }

  if (phase == "generate") {
    return RunGenerate(preset, scale, seed, path);
  }
  if (phase == "condense") {
    return RunCondense(path, out, ratio, mp, seed, try_heap);
  }
  if (phase == "serve") {
    return RunServe(path, method, ratio, mp, evaluate, try_heap, budget);
  }
  std::fprintf(stderr, "unknown --phase=%s (generate|condense|serve)\n",
               phase.c_str());
  return 2;
}
