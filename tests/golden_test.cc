// Golden output corpus. tests/golden/evalctx.txt holds one line of FNV-64
// fingerprints per dataset: the enumerated meta-path list, every
// propagated feature block of the evaluation context, FreeHGC's
// serialized condensed graph, and that graph's canonical content. The
// hash is the test's own frozen byte-serial FNV (frozen_fnv.h), so the
// corpus does not move when the library's content hash does; a container
// format change may move only `freehgc=`, never `graph=`. Every line must
// match at 1 and 4 threads on a fresh cache, again on that warm cache,
// and on a zero-budget spilling cache (streamed propagation, every entry
// spilled) before and after it restores its entries, so an accidental
// output change anywhere on the data path (generator, compose,
// propagate, selection, serialization, spill) fails here. A change that
// moves outputs on purpose replaces the lines this test prints on a
// mismatch.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "frozen_fnv.h"
#include "graph/serialize.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "pipeline/sweep.h"

namespace freehgc::pipeline {
namespace {

using testing_util::FrozenFnv;
using testing_util::FrozenGraphFnv;

constexpr double kScale = 0.2;
constexpr double kRatio = 0.05;
constexpr uint64_t kSeed = 1;

std::string Hex(uint64_t h) { return StrFormat("%016" PRIx64, h); }

/// One corpus line:
/// "<dataset> paths=<fp> blocks=<fp>,... freehgc=<fp> graph=<fp>".
std::string CorpusLine(const std::string& dataset, ArtifactCache& cache,
                       exec::ExecContext& ex) {
  const PipelineEnv env(&ex, &cache);
  DatasetSpec ds;
  ds.name = dataset;
  ds.scale = kScale;
  auto data = PrepareDataset(ds, env);
  if (!data.ok()) return "error: " + data.status().ToString();
  const hgnn::EvalContext& ctx = (*data)->ctx;

  FrozenFnv paths;
  for (const MetaPath& p : ctx.paths) {
    paths.Vec(p.relations);
    paths.Vec(p.types);
  }
  std::string line = dataset + " paths=" + Hex(paths.h) + " blocks=";
  for (size_t i = 0; i < ctx.full_features.blocks.size(); ++i) {
    const Matrix& b = ctx.full_features.blocks[i];
    FrozenFnv f;
    f.Pod(b.rows());
    f.Pod(b.cols());
    f.Bytes(b.data(), static_cast<size_t>(b.size()) * sizeof(float));
    line += (i == 0 ? "" : ",") + Hex(f.h);
  }

  RunSpec run;
  run.ratio = kRatio;
  run.seed = kSeed;
  auto condensed =
      MethodRegistry::Global().Find("freehgc")->Condense(ctx, run, env);
  if (!condensed.ok()) return "error: " + condensed.status().ToString();
  auto bytes = SerializeHeteroGraph(condensed->graph);
  if (!bytes.ok()) return "error: " + bytes.status().ToString();
  FrozenFnv graph;
  graph.Bytes(bytes->data(), bytes->size());
  return line + " freehgc=" + Hex(graph.h) +
         " graph=" + Hex(FrozenGraphFnv(condensed->graph));
}

/// Corpus lines keyed by dataset; '#' lines are comments.
std::map<std::string, std::string> ReadCorpus() {
  std::map<std::string, std::string> out;
  std::ifstream in(FREEHGC_GOLDEN_DIR "/evalctx.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))] = line;
  }
  return out;
}

class GoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTest, EvalContextAndFreeHgcMatchCorpus) {
  const std::string& dataset = GetParam();
  const std::string expected = ReadCorpus()[dataset];
  std::string replacement;
  for (int threads : {1, 4}) {
    exec::ExecContext ex(threads);
    const std::string dir = ::testing::TempDir() + "/golden_spill_" +
                            dataset + "_" + std::to_string(threads);
    std::filesystem::remove_all(dir);
    ArtifactCache cache, spilling;
    ASSERT_TRUE(spilling.ConfigureSpill({0, dir}).ok());
    const std::pair<const char*, ArtifactCache*> legs[] = {
        {"fresh", &cache},
        {"warm", &cache},
        {"spilled", &spilling},
        {"restored", &spilling}};
    for (const auto& [leg, leg_cache] : legs) {
      const std::string got = CorpusLine(dataset, *leg_cache, ex);
      if (replacement.empty()) replacement = got;
      EXPECT_EQ(got, expected) << leg << " cache, " << threads << " threads";
    }
    EXPECT_GT(spilling.stats().restores, 0) << threads;
    spilling.Clear();
    std::filesystem::remove_all(dir);
  }
  if (HasFailure()) {
    std::printf("replacement line for tests/golden/evalctx.txt:\n%s\n",
                replacement.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, GoldenTest,
                         ::testing::Values("acm", "dblp", "imdb", "freebase",
                                           "aminer"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace freehgc::pipeline
