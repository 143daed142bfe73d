#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/generator.h"

namespace freehgc {
namespace {

using datasets::Generate;
using datasets::MakeByName;
using datasets::SchemaConfig;

TEST(GeneratorTest, RespectsSchemaCounts) {
  SchemaConfig c;
  c.name = "test";
  c.types = {{"x", 100, 8}, {"y", 50, 4}};
  c.relations = {{"xy", "x", "y", 2.0, 0.8}};
  c.target = "x";
  c.num_classes = 3;
  auto g = Generate(c, 1);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->NodeCount(g->TypeByName("x").value()), 100);
  EXPECT_EQ(g->NodeCount(g->TypeByName("y").value()), 50);
  EXPECT_EQ(g->Features(0).cols(), 8);
  EXPECT_EQ(g->Features(1).cols(), 4);
  EXPECT_EQ(g->num_classes(), 3);
  EXPECT_TRUE(g->Validate().ok());
  // Reverse relation added automatically.
  EXPECT_EQ(g->NumRelations(), 2);
}

TEST(GeneratorTest, DeterministicUnderSeed) {
  const HeteroGraph a = datasets::MakeToy(7);
  const HeteroGraph b = datasets::MakeToy(7);
  const HeteroGraph c = datasets::MakeToy(8);
  EXPECT_EQ(a.TotalEdges(), b.TotalEdges());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.Features(0), b.Features(0));
  EXPECT_EQ(a.relation(0).adj, b.relation(0).adj);
  // Different seed changes at least something.
  EXPECT_TRUE(a.labels() != c.labels() || a.TotalEdges() != c.TotalEdges());
}

TEST(GeneratorTest, SplitFractions) {
  SchemaConfig c;
  c.name = "test";
  c.types = {{"x", 1000, 4}};
  c.relations = {{"xx", "x", "x", 2.0, 0.8}};
  c.target = "x";
  c.num_classes = 2;
  c.train_fraction = 0.24;
  c.val_fraction = 0.06;
  auto g = Generate(c, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->train_index().size(), 240u);
  EXPECT_EQ(g->val_index().size(), 60u);
  EXPECT_EQ(g->test_index().size(), 700u);
}

TEST(GeneratorTest, RejectsBadConfigs) {
  SchemaConfig c;
  c.name = "bad";
  c.target = "x";
  c.num_classes = 2;
  EXPECT_FALSE(Generate(c, 1).ok());  // no types
  c.types = {{"x", 10, 4}};
  c.num_classes = 1;
  EXPECT_FALSE(Generate(c, 1).ok());  // too few classes
  c.num_classes = 2;
  c.target = "zzz";
  EXPECT_FALSE(Generate(c, 1).ok());  // missing target
  c.target = "x";
  c.relations = {{"xy", "x", "nope", 1.0, 0.5}};
  EXPECT_FALSE(Generate(c, 1).ok());  // relation endpoint missing
}

TEST(GeneratorTest, PowerLawDegreesAreSkewed) {
  SchemaConfig c;
  c.name = "pl";
  c.types = {{"x", 2000, 4}, {"y", 2000, 4}};
  c.relations = {{"xy", "x", "y", 3.0, 0.0}};
  c.target = "x";
  c.num_classes = 2;
  auto g = Generate(c, 11);
  ASSERT_TRUE(g.ok());
  auto deg = g->relation(0).adj.RowDegrees();
  std::sort(deg.begin(), deg.end());
  const int64_t median = deg[deg.size() / 2];
  const int64_t p99 = deg[deg.size() * 99 / 100];
  // Heavy tail: the 99th percentile is much larger than the median.
  EXPECT_GE(p99, 3 * median);
}

TEST(GeneratorTest, AffinityPlantsClassSignal) {
  // With high affinity, edges connect same-community nodes far more often
  // than chance.
  SchemaConfig c;
  c.name = "aff";
  c.types = {{"x", 500, 4}, {"y", 500, 4}};
  c.relations = {{"xy", "x", "y", 4.0, 0.9}};
  c.target = "x";
  c.num_classes = 2;
  auto g = Generate(c, 13);
  ASSERT_TRUE(g.ok());
  // Features of same-class target nodes are closer than cross-class.
  const auto& labels = g->labels();
  const Matrix& f = g->Features(0);
  const auto m0 = dense::ColumnMean(
      f, [&] {
        std::vector<int32_t> v;
        for (int32_t i = 0; i < 500; ++i) {
          if (labels[static_cast<size_t>(i)] == 0) v.push_back(i);
        }
        return v;
      }());
  const auto m1 = dense::ColumnMean(
      f, [&] {
        std::vector<int32_t> v;
        for (int32_t i = 0; i < 500; ++i) {
          if (labels[static_cast<size_t>(i)] == 1) v.push_back(i);
        }
        return v;
      }());
  float centroid_dist = 0.0f;
  for (size_t i = 0; i < m0.size(); ++i) {
    centroid_dist += (m0[i] - m1[i]) * (m0[i] - m1[i]);
  }
  EXPECT_GT(centroid_dist, 0.1f);
}

TEST(PresetTest, AllPresetsValidateAtSmallScale) {
  for (const char* name :
       {"acm", "dblp", "imdb", "freebase", "mutag", "am"}) {
    auto g = MakeByName(name, 1, /*scale=*/0.05);
    ASSERT_TRUE(g.ok()) << name;
    EXPECT_TRUE(g->Validate().ok()) << name;
    EXPECT_GE(g->num_classes(), 2) << name;
    EXPECT_GT(g->TotalEdges(), 0) << name;
    EXPECT_GE(g->target_type(), 0) << name;
  }
}

TEST(PresetTest, AminerSchemaMatchesPaper) {
  const HeteroGraph g = datasets::MakeAminer(1, /*scale=*/0.01);
  EXPECT_EQ(g.NumNodeTypes(), 3);  // author, paper, venue
  EXPECT_EQ(g.TypeName(g.target_type()), "author");
  EXPECT_EQ(g.num_classes(), 8);
}

TEST(PresetTest, FreebaseHasManyRelations) {
  const HeteroGraph g = datasets::MakeFreebase(1, /*scale=*/0.02);
  EXPECT_EQ(g.NumNodeTypes(), 8);
  EXPECT_GE(g.NumRelations(), 30);  // paper: 36 edge types
  EXPECT_EQ(g.num_classes(), 7);
}

TEST(PresetTest, MutagRelationCountMatchesPaper) {
  const HeteroGraph g = datasets::MakeMutag(1, /*scale=*/0.05);
  EXPECT_EQ(g.NumNodeTypes(), 7);
  EXPECT_GE(g.NumRelations(), 40);  // paper: 46 edge types
  EXPECT_EQ(g.num_classes(), 2);
}

TEST(PresetTest, MakeByNameRejectsUnknown) {
  EXPECT_FALSE(MakeByName("no_such_dataset", 1).ok());
}

TEST(PresetTest, RecommendedHopsMatchPaperTable) {
  EXPECT_EQ(datasets::RecommendedHops("acm"), 3);
  EXPECT_EQ(datasets::RecommendedHops("dblp"), 4);
  EXPECT_EQ(datasets::RecommendedHops("freebase"), 2);
  EXPECT_EQ(datasets::RecommendedHops("mutag"), 1);
  EXPECT_EQ(datasets::RecommendedHops("am"), 1);
  EXPECT_EQ(datasets::RecommendedHops("aminer"), 2);
}

TEST(PresetTest, ClassDistributionCoversAllClasses) {
  const HeteroGraph g = datasets::MakeImdb(5, /*scale=*/0.2);
  std::vector<int32_t> counts(static_cast<size_t>(g.num_classes()), 0);
  for (int32_t y : g.labels()) ++counts[static_cast<size_t>(y)];
  for (int32_t c : counts) EXPECT_GT(c, 0);
}

TEST(PresetTest, PresetConfigMatchesMakeByName) {
  for (const char* name : {"acm", "dblp", "toy"}) {
    auto c = datasets::PresetConfig(name, 0.05);
    ASSERT_TRUE(c.ok()) << name;
    auto direct = MakeByName(name, 3, 0.05);
    ASSERT_TRUE(direct.ok());
    auto via_config = Generate(*c, 3);
    ASSERT_TRUE(via_config.ok());
    EXPECT_EQ(direct->ContentFingerprint(), via_config->ContentFingerprint())
        << name;
  }
  EXPECT_FALSE(datasets::PresetConfig("nope").ok());
}

TEST(GeneratorV3Test, StreamedContainerIsBitIdenticalToHeapGraph) {
  // The tentpole equivalence: GenerateToV3 shares Generate's draw
  // sequence and its incremental fingerprint must equal the heap graph's
  // ContentFingerprint — proving the streamed container holds the exact
  // same bytes (types, CSR arrays, features, labels, splits).
  auto config = datasets::PresetConfig("dblp", 0.05);
  ASSERT_TRUE(config.ok());
  const std::string path = "/tmp/freehgc_test_gen_v3.fhgc";
  auto summary = datasets::GenerateToV3(*config, 11, path);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  auto heap = Generate(*config, 11);
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ(summary->fingerprint, heap->ContentFingerprint());
  EXPECT_EQ(summary->nodes, heap->TotalNodes());
  EXPECT_EQ(summary->edges, heap->TotalEdges());

  auto mapped = MapHeteroGraphDetailed(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->fingerprint, heap->ContentFingerprint());
  EXPECT_EQ(mapped->graph.ContentFingerprint(), heap->ContentFingerprint());
  std::remove(path.c_str());
}

TEST(GeneratorV3Test, StreamedAminerPresetRoundTrips) {
  auto config = datasets::PresetConfig("aminer", 0.01);
  ASSERT_TRUE(config.ok());
  const std::string path = "/tmp/freehgc_test_gen_v3_aminer.fhgc";
  auto summary = datasets::GenerateToV3(*config, 7, path);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  auto heap = datasets::MakeAminer(7, 0.01);
  EXPECT_EQ(summary->fingerprint, heap.ContentFingerprint());
  std::remove(path.c_str());
}

TEST(GeneratorV3Test, HeaderFingerprintEqualsHeapFingerprintForEveryPreset) {
  // The streaming sink feeds the content hash in chunks (features leave
  // in row chunks); the heap graph feeds whole arrays. The multi-lane
  // hash must not care.
  for (const char* preset : {"acm", "dblp", "imdb", "freebase", "aminer"}) {
    const double scale = std::string(preset) == "aminer" ? 0.01 : 0.05;
    auto config = datasets::PresetConfig(preset, scale);
    ASSERT_TRUE(config.ok()) << preset;
    const std::string path =
        std::string("/tmp/freehgc_test_gen_v3_fp_") + preset + ".fhgc";
    auto summary = datasets::GenerateToV3(*config, 3, path);
    ASSERT_TRUE(summary.ok()) << preset << ": " << summary.status().ToString();
    auto heap = Generate(*config, 3);
    ASSERT_TRUE(heap.ok()) << preset;
    EXPECT_EQ(summary->fingerprint, heap->ContentFingerprint()) << preset;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace freehgc
