// Container load-path benchmark. Three ways to turn the same v3 file into a
// registered graph:
//   - reference: the heap load the upload path paid before adoption and
//     the multi-lane hash: read the file, DeserializeHeteroGraph into an
//     owned copy (CRC + Validate), then the frozen byte-serial FNV pass
//     over the content (tests/frozen_fnv.h) for the graph's identity;
//   - upload: production upload registration, GraphStore::
//     RegisterSerialized over the read bytes, which it adopts in place
//     (CRC + Validate + ContentHash recompute, no copy);
//   - mapped: zero-copy map (CRC verify -> FromView spans, fingerprint
//     read from the header).
// Gates (FREEHGC_CHECK, the acceptance properties): mapped registration
// at least 10x faster than the reference, and upload registration at
// least 2x faster than it. The reference is frozen on purpose: timing it
// with the production hash would make the mapped gate divide by the very
// path the upload work speeds up. Writes BENCH_container.json.
//
// Every path runs against a page-cache-warm file (each container is
// written immediately before timing), so the gap measured is the work
// the load path itself does — not disk speed.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tests/frozen_fnv.h"
#include "common/timer.h"
#include "graph/serialize.h"
#include "serve/graph_store.h"

namespace freehgc::bench {
namespace {

constexpr int kReps = 5;

double MinSeconds(const std::vector<double>& xs) {
  double best = xs.empty() ? 0.0 : xs[0];
  for (double x : xs) best = x < best ? x : best;
  return best;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FREEHGC_CHECK(in.good()) << path;
  std::string bytes(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FREEHGC_CHECK(in.good()) << path;
  return bytes;
}

int Run() {
  PrintHeader("container: reference heap load vs upload vs zero-copy map");
  const double scale = 2.0;
  const HeteroGraph g = datasets::MakeAminer(1, scale, &exec::DefaultExec());
  const uint64_t want_fp = g.ContentFingerprint();
  const std::string v3_path = "/tmp/freehgc_bench_container_v3.fhgc";
  auto v3 = SaveHeteroGraphV3(g, v3_path);
  FREEHGC_CHECK(v3.ok());
  std::printf("graph: aminer scale %.1f, %lld nodes, %lld edges, "
              "%zu logical bytes (v3 file %llu bytes)\n",
              scale, static_cast<long long>(g.TotalNodes()),
              static_cast<long long>(g.TotalEdges()), g.MemoryBytes(),
              static_cast<unsigned long long>(v3->file_bytes));

  // Reference path: read, verify and copy, then the frozen byte-serial
  // FNV pass for the identity the scheduler and ArtifactCache key on.
  const uint64_t want_frozen = testing_util::FrozenGraphFnv(g);
  std::vector<double> heap_s;
  size_t heap_resident = 0;
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    auto loaded = DeserializeHeteroGraph(ReadFileBytes(v3_path));
    FREEHGC_CHECK(loaded.ok());
    const uint64_t fp = testing_util::FrozenGraphFnv(*loaded);
    heap_s.push_back(t.ElapsedSeconds());
    FREEHGC_CHECK(fp == want_frozen);
    heap_resident = loaded->ResidentHeapBytes();
  }

  // Upload path: what the server pays per upload once the frame is in
  // memory, plus the same file read the reference pays.
  std::vector<double> upload_s;
  for (int r = 0; r < kReps; ++r) {
    serve::GraphStore fresh;
    Timer t;
    auto bytes = std::make_shared<const std::string>(ReadFileBytes(v3_path));
    auto info = fresh.RegisterSerialized("aminer", *bytes, bytes);
    upload_s.push_back(t.ElapsedSeconds());
    FREEHGC_CHECK(info.ok()) << info.status().ToString();
    FREEHGC_CHECK(info->fingerprint == want_fp);
  }

  // Mapped path: verify every section CRC, build FromView spans over the
  // mapping, trust the header fingerprint.
  std::vector<double> mapped_s;
  size_t mapped_resident = 0;
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    auto mg = MapHeteroGraphDetailed(v3_path);
    FREEHGC_CHECK(mg.ok());
    mapped_s.push_back(t.ElapsedSeconds());
    FREEHGC_CHECK(mg->fingerprint == want_fp);
    mapped_resident = mg->graph.ResidentHeapBytes();
  }

  // End-to-end store registration, mapped flavor (adds Validate + the
  // catalog insert) — the latency a --map flag or spooled upload pays.
  serve::GraphStore store;
  Timer reg_timer;
  auto reg = store.RegisterMappedFile("aminer", v3_path);
  const double register_s = reg_timer.ElapsedSeconds();
  FREEHGC_CHECK(reg.ok());
  FREEHGC_CHECK(reg->mapped);

  const double heap_best = MinSeconds(heap_s);
  const double upload_best = MinSeconds(upload_s);
  const double mapped_best = MinSeconds(mapped_s);
  const double ratio = mapped_best > 0 ? heap_best / mapped_best : 0.0;
  const double upload_ratio =
      upload_best > 0 ? heap_best / upload_best : 0.0;
  std::printf("reference: copy + frozen FNV:   %8.3f ms  (resident %zu)\n",
              heap_best * 1e3, heap_resident);
  std::printf("upload RegisterSerialized:      %8.3f ms\n",
              upload_best * 1e3);
  std::printf("zero-copy map + CRC verify:     %8.3f ms  (resident %zu)\n",
              mapped_best * 1e3, mapped_resident);
  std::printf("store RegisterMappedFile:       %8.3f ms\n", register_s * 1e3);
  std::printf("mapped speedup: %.1fx (gate: >= 10x)\n", ratio);
  std::printf("upload speedup: %.1fx (gate: >= 2x)\n", upload_ratio);

  // The acceptance properties.
  FREEHGC_CHECK(ratio >= 10.0)
      << "mapped registration only " << ratio
      << "x faster than the reference heap load (gate: 10x)";
  FREEHGC_CHECK(upload_ratio >= 2.0)
      << "upload registration only " << upload_ratio
      << "x faster than the reference heap load (gate: 2x)";
  FREEHGC_CHECK(mapped_resident * 10 < heap_resident)
      << "mapped graph owns " << mapped_resident
      << " heap bytes vs heap load's " << heap_resident;

  std::string json = "{\n  \"bench\": \"container\",\n";
  json += StrFormat(
      "  \"graph\": {\"preset\": \"aminer\", \"scale\": %.1f, "
      "\"nodes\": %lld, \"edges\": %lld, \"logical_bytes\": %zu, "
      "\"v3_file_bytes\": %llu},\n",
      scale, static_cast<long long>(g.TotalNodes()),
      static_cast<long long>(g.TotalEdges()), g.MemoryBytes(),
      static_cast<unsigned long long>(v3->file_bytes));
  json += StrFormat("  \"reps\": %d,\n", kReps);
  json += StrFormat(
      "  \"heap\": {\"best_seconds\": %.6f, \"resident_bytes\": %zu},\n",
      heap_best, heap_resident);
  json += StrFormat("  \"upload\": {\"best_seconds\": %.6f},\n",
                    upload_best);
  json += StrFormat(
      "  \"mapped\": {\"best_seconds\": %.6f, \"resident_bytes\": %zu, "
      "\"register_seconds\": %.6f},\n",
      mapped_best, mapped_resident, register_s);
  json += StrFormat("  \"speedup\": %.2f,\n", ratio);
  json += StrFormat("  \"upload_speedup\": %.2f,\n", upload_ratio);
  json += "  \"gate\": {\"min_speedup\": 10.0, \"min_upload_speedup\": 2.0, "
          "\"passed\": true}\n}\n";
  WriteTextFile("BENCH_container.json", json);
  std::printf("wrote BENCH_container.json\n");

  std::remove(v3_path.c_str());
  return 0;
}

}  // namespace
}  // namespace freehgc::bench

int main() { return freehgc::bench::Run(); }
