// Tiered artifact storage: spill-file round trips, budgeted cache
// determinism, eviction-vs-pinned-read races, GraphStore residency, and
// orphan-spool GC. Test names carry "Spill"/"Mapped" so the sanitizer CI
// leg picks them up (they exercise the concurrent eviction paths).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "graph/section_io.h"
#include "graph/serialize.h"
#include "hgnn/feature_spill.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"
#include "serve/graph_store.h"
#include "serve/service.h"

namespace freehgc {
namespace {

/// Fresh scratch directory under /tmp (recreated per call).
std::string ScratchDir(const std::string& leaf) {
  const std::string dir = "/tmp/freehgc_spill_test_" + leaf;
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::system(("rm -rf " + dir).c_str());
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// ---------------------------------------------------------------------------
// Section-IO spill round trips

TEST(SpillCsrTest, MappedRoundTripIsBitIdentical) {
  const HeteroGraph g = datasets::MakeToy(5);
  exec::ExecContext ex(2);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 4;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_FALSE(paths.empty());
  const std::shared_ptr<const CsrMatrix> m =
      ComposedAdjacency(nullptr, g, paths[0], 0, &ex);
  ASSERT_NE(m, nullptr);
  ASSERT_GT(m->nnz(), 0);

  const std::string dir = ScratchDir("csr");
  const std::string path = dir + "/adj.spill";
  auto written = section_io::WriteCsrSpill(*m, path, 0xabcdef0123456789ull);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(*written, 0u);

  // The header fingerprint is readable without payload IO (what the
  // orphan GC and the cache's restore matching rely on).
  auto fp = section_io::PeekFingerprint(path, section_io::SpillFormat());
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();
  EXPECT_EQ(*fp, 0xabcdef0123456789ull);

  auto restored = section_io::MapCsrSpill(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->is_mapped());
  EXPECT_EQ(restored->rows(), m->rows());
  EXPECT_EQ(restored->cols(), m->cols());
  ASSERT_EQ(restored->nnz(), m->nnz());
  EXPECT_TRUE(std::equal(m->indptr().begin(), m->indptr().end(),
                         restored->indptr().begin()));
  EXPECT_TRUE(std::equal(m->indices().begin(), m->indices().end(),
                         restored->indices().begin()));
  // Bit-identity, not approximate equality: spilled artifacts must not
  // perturb downstream fingerprints.
  ASSERT_EQ(restored->values().size(), m->values().size());
  EXPECT_EQ(std::memcmp(restored->values().data(), m->values().data(),
                        m->values().size() * sizeof(float)),
            0);

  // The mapping outlives the file name: views stay valid after unlink.
  const CsrMatrix held = *restored;
  std::remove(path.c_str());
  EXPECT_EQ(held.indptr()[held.rows()], m->indptr()[m->rows()]);
  RemoveTree(dir);
}

TEST(SpillPropagatedTest, MappedRoundTripIsBitIdentical) {
  const HeteroGraph g = datasets::MakeToy(7);
  exec::ExecContext ex(2);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 4;
  const hgnn::PropagatedFeatures f =
      hgnn::BuildEvalContext(g, mp, &ex).full_features;
  ASSERT_GT(f.blocks.size(), 1u);

  const std::string dir = ScratchDir("prop");
  const std::string path = dir + "/prop.spill";
  auto written = hgnn::WritePropagatedSpill(f, path, 42);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  auto restored = hgnn::MapPropagatedSpill(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ((*restored)->blocks.size(), f.blocks.size());
  EXPECT_EQ((*restored)->names, f.names);
  EXPECT_EQ((*restored)->end_types, f.end_types);
  for (size_t b = 0; b < f.blocks.size(); ++b) {
    const Matrix& want = f.blocks[b];
    const Matrix& got = (*restored)->blocks[b];
    EXPECT_TRUE(got.is_mapped());
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.rows()) *
                              static_cast<size_t>(want.cols()) *
                              sizeof(float)),
              0)
        << "block " << b << " (" << f.names[b] << ") diverged";
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Budgeted cache determinism: the served condensation result must not
// depend on the residency budget or the worker count.

TEST(SpillServeTest, MappedCondensationIgnoresBudgetAndThreads) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string dir = ScratchDir("budget");
  const std::string graph_path = dir + "/g.fhgc";
  ASSERT_TRUE(SaveHeteroGraphV3(g, graph_path).ok());

  serve::CondenseRequest request;
  request.graph = "g";
  request.method = "herding";
  request.ratio = 0.3;
  request.max_paths = 4;
  request.return_graph = true;

  // One serve-path run: returns the serialized condensed graph and the
  // cache's resident peak.
  size_t unbudgeted_peak = 0;
  auto run = [&](size_t budget, int threads, bool spill,
                 const std::string& spill_dir) {
    serve::ServeOptions opts;
    opts.slots = 1;
    opts.queue_capacity = 8;
    opts.threads_per_slot = threads;
    if (spill) {
      opts.spill_dir = spill_dir;
      opts.artifact_budget_bytes = budget;
    }
    serve::ServeService service(opts);
    EXPECT_TRUE(service.store().RegisterMappedFile("g", graph_path).ok());
    auto reply = service.Condense(request);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    const auto stats = service.cache().stats();
    if (!spill) unbudgeted_peak = stats.peak_resident_bytes;
    if (spill && budget == 0) {
      EXPECT_GT(stats.spills, 0) << "budget 0 never spilled";
    }
    std::string bytes = reply.ok() ? reply->graph_bytes : std::string();
    service.Shutdown();
    return bytes;
  };

  const std::string want = run(0, 1, /*spill=*/false, "");
  ASSERT_FALSE(want.empty());
  ASSERT_GT(unbudgeted_peak, 0u);

  int variant = 0;
  for (const int threads : {1, 2, 4}) {
    for (const size_t budget :
         {size_t{0}, unbudgeted_peak / 2, size_t{SIZE_MAX}}) {
      const std::string sdir =
          ScratchDir("budget_v" + std::to_string(variant++));
      EXPECT_EQ(run(budget, threads, /*spill=*/true, sdir), want)
          << "budget=" << budget << " threads=" << threads
          << " diverged from the unbudgeted single-thread result";
      RemoveTree(sdir);
    }
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Eviction racing pinned readers: readers hold pins and verify payloads
// while another thread applies eviction pressure. No sleeps — the
// interleaving comes from the loop density. Run under the sanitizer leg.

TEST(SpillCacheTest, MappedEvictionVsPinnedReadStress) {
  const HeteroGraph g = datasets::MakeToy(9);
  exec::ExecContext ex(2);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 4;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_GE(paths.size(), 2u);

  // Reference payloads, computed uncached.
  std::vector<int64_t> want_nnz;
  std::vector<double> want_sum;
  for (const auto& p : paths) {
    const auto m = ComposedAdjacency(nullptr, g, p, 0, &ex);
    want_nnz.push_back(m->nnz());
    double s = 0.0;
    for (const float v : m->values()) s += v;
    want_sum.push_back(s);
  }

  const std::string dir = ScratchDir("stress");
  pipeline::ArtifactCache cache;
  // Budget 0: every unpinned entry is evicted as soon as possible, so
  // every lookup is a spill-or-restore and pins are what keep payloads
  // alive under the readers.
  ASSERT_TRUE(cache.ConfigureSpill({0, dir}).ok());

  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  auto reader = [&](size_t offset) {
    exec::ExecContext rex(1);
    for (int i = 0; i < kIters; ++i) {
      const size_t pi = (offset + static_cast<size_t>(i)) % paths.size();
      const auto pin = cache.Composed(g, paths[pi], 0, &rex);
      if (pin == nullptr || pin->nnz() != want_nnz[pi]) {
        failures.fetch_add(1);
        continue;
      }
      double s = 0.0;
      for (const float v : pin->values()) s += v;
      if (s != want_sum[pi]) failures.fetch_add(1);
    }
  };
  auto trimmer = [&] {
    exec::ExecContext tex(1);
    for (int i = 0; i < kIters; ++i) {
      cache.Composed(g, paths[static_cast<size_t>(i) % paths.size()], 0,
                     &tex);
      cache.TrimToBudget();
    }
  };
  std::thread t1(reader, 0), t2(reader, 1), t3(trimmer);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = cache.stats();
  EXPECT_GT(stats.spills, 0) << "stress never exercised the spill tier";
  EXPECT_GT(stats.restores, 0) << "stress never exercised restores";
  cache.Clear();
  RemoveTree(dir);
}

TEST(SpillCacheTest, SpilledDiversityRestoresTheSameCondensedGraph) {
  // A path group's diversity entry is charged to the resident tier: under
  // a zero budget it spills through the adjacency spool format once
  // unpinned, and a warm condensation restores it (with every adjacency)
  // as a mapped view, computing nothing and giving the uncached graph.
  const HeteroGraph g = datasets::MakeAcm(3, /*scale=*/0.1);
  core::FreeHgcOptions opts;
  opts.ratio = 0.05;
  opts.max_paths = 8;
  exec::ExecContext ex(2);
  auto condensed_bytes = [&](AdjacencyCache* cache) {
    auto res = core::Condense(g, opts, &ex, cache);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) return std::string();
    auto bytes = SerializeHeteroGraph(res->graph);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  };
  const std::string want = condensed_bytes(nullptr);
  ASSERT_FALSE(want.empty());

  // The largest group of Condense's paths sharing an end type, and its
  // diversity computed uncached.
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  std::vector<MetaPath> group;
  for (const MetaPath& p : paths) {
    auto same_end = FilterByEndType(paths, p.end_type());
    if (same_end.size() > group.size()) group = std::move(same_end);
  }
  ASSERT_GE(group.size(), 2u);
  std::vector<std::shared_ptr<const CsrMatrix>> pins;
  std::vector<const CsrMatrix*> composed;
  for (const MetaPath& p : group) {
    pins.push_back(ComposedAdjacency(nullptr, g, p, opts.max_row_nnz, &ex,
                                     RowSet::kTrain));
    composed.push_back(pins.back().get());
  }
  const CsrMatrix want_div = PathDiversity(g, composed, &ex);

  const std::string dir = ScratchDir("diversity");
  pipeline::ArtifactCache cache;
  ASSERT_TRUE(cache.ConfigureSpill({0, dir}).ok());
  EXPECT_EQ(condensed_bytes(&cache), want);
  cache.TrimToBudget();
  const auto cold = cache.stats();
  EXPECT_EQ(cold.resident_bytes, 0u) << "an entry stayed on the heap";
  EXPECT_GT(cold.spills, 0);

  EXPECT_EQ(condensed_bytes(&cache), want);
  const auto warm = cache.stats();
  EXPECT_EQ(warm.misses, cold.misses) << "the warm run recomputed an entry";
  EXPECT_GT(warm.restores, cold.restores);

  // The restored diversity entry is the uncached one, byte for byte.
  const auto div =
      cache.Diversity(g, group, opts.max_row_nnz, &ex, RowSet::kTrain);
  EXPECT_EQ(cache.stats().misses, cold.misses);
  EXPECT_EQ(*div, want_div);
  ASSERT_EQ(div->values().size(), want_div.values().size());
  EXPECT_EQ(std::memcmp(div->values().data(), want_div.values().data(),
                        want_div.values().size() * sizeof(float)),
            0);
  cache.Clear();
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// GraphStore residency budget

TEST(GraphStoreMappedTest, ResidentBudgetEvictsAndRemapsTransparently) {
  const std::string dir = ScratchDir("store");
  std::vector<HeteroGraph> graphs;
  std::vector<std::string> names;
  serve::GraphStore store;
  for (const uint64_t seed : {5u, 6u, 7u}) {
    graphs.push_back(datasets::MakeToy(seed));
    const std::string name = "g" + std::to_string(seed);
    const std::string path = dir + "/" + name + ".fhgc";
    ASSERT_TRUE(SaveHeteroGraphV3(graphs.back(), path).ok());
    auto info = store.RegisterMappedFile(name, path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    names.push_back(name);
  }
  EXPECT_EQ(store.Evictions(), 0);
  EXPECT_GT(store.MappedResidentBytes(), 0u);

  // A 1-byte budget evicts every unpinned mapped graph.
  store.SetResidentBudget(1);
  EXPECT_EQ(store.Evictions(), 3);
  EXPECT_EQ(store.MappedResidentBytes(), 0u);
  for (const auto& info : store.List()) {
    EXPECT_FALSE(info.resident) << info.name;
  }

  // Get re-maps transparently; the graph is bit-identical by fingerprint.
  auto ref = store.Get(names[0]);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ((*ref)->ContentFingerprint(), graphs[0].ContentFingerprint());

  // A held reference pins the entry: eviction pressure skips it.
  store.SetResidentBudget(1);
  auto again = store.Get(names[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), ref->get()) << "re-map raced a live entry";

  // Eviction with the spool file gone: Get reports the failure instead
  // of serving a stale or partial graph.
  store.SetResidentBudget(SIZE_MAX);
  const std::string victim_path = dir + "/" + names[1] + ".fhgc";
  std::remove(victim_path.c_str());
  store.SetResidentBudget(1);
  auto gone = store.Get(names[1]);
  EXPECT_FALSE(gone.ok());
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Orphan-spool GC

TEST(SpillSweepTest, MappedSpoolSweepRemovesOrphansKeepsValid) {
  const std::string dir = ScratchDir("sweep");
  const HeteroGraph g = datasets::MakeToy(11);
  const std::string valid =
      dir + "/" + StrFormat("%016llx", static_cast<unsigned long long>(
                                           g.ContentFingerprint())) +
      ".fhgc";
  ASSERT_TRUE(SaveHeteroGraphV3(g, valid).ok());
  // Valid container under a name that is not its fingerprint: orphaned
  // (the store only rehydrates fingerprint-named spools).
  const std::string misnamed = dir + "/00000000deadbeef.fhgc";
  ASSERT_TRUE(SaveHeteroGraphV3(g, misnamed).ok());
  const std::string spill = dir + "/a1b2.spill";
  const std::string tmp = dir + "/upload.fhgc.tmp";
  const std::string other = dir + "/README.txt";
  for (const auto& p : {spill, tmp, other}) {
    std::ofstream(p) << "leftover";
  }

  auto swept = serve::SweepSpoolDir(dir);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(*swept, 3);
  EXPECT_TRUE(FileExists(valid));
  EXPECT_FALSE(FileExists(misnamed));
  EXPECT_FALSE(FileExists(spill));
  EXPECT_FALSE(FileExists(tmp));
  EXPECT_TRUE(FileExists(other)) << "sweep must not touch foreign files";

  EXPECT_EQ(serve::SweepSpoolDir(dir + "/nope").status().code(),
            StatusCode::kNotFound);
  RemoveTree(dir);
}

}  // namespace
}  // namespace freehgc
