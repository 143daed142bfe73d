// Micro-benchmarks of the substrate operations (google-benchmark): sparse
// composition (SpGEMM), personalized PageRank, lazy-greedy coverage
// selection, pre-propagation, and one HGNN training epoch. These are the
// kernels whose costs Figs. 2(b) and 8 aggregate.
//
// Parallel kernels additionally sweep the worker count (the trailing
// /N in the benchmark name); every result is bit-identical across the
// sweep, only wall-clock moves. Besides the console table the harness
// writes BENCH_substrate.json: one {op, size, threads, ns_per_op} record
// per benchmark run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/target_selection.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"
#include "nn/nn.h"
#include "sparse/ops.h"

namespace freehgc {
namespace {

const HeteroGraph& ToyGraph() {
  static const HeteroGraph* g =
      new HeteroGraph(datasets::MakeAcm(1, /*scale=*/0.3));
  return *g;
}

void BM_SpGemmComposition(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  MetaPathOptions opts;
  opts.max_hops = static_cast<int>(state.range(0));
  opts.max_paths = 4;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  const int threads = static_cast<int>(state.range(1));
  exec::ExecContext ex(threads);
  for (auto _ : state) {
    for (const auto& p : paths) {
      benchmark::DoNotOptimize(ComposeAdjacency(g, p, 512, &ex));
    }
  }
  state.counters["threads"] = threads;
  state.SetLabel(std::to_string(paths.size()) + " paths");
}
BENCHMARK(BM_SpGemmComposition)
    ->ArgsProduct({{1, 2, 3}, {1, 2, 4}});

// Satellite datapoint for the SpGemm scratch fix: the kernel used to
// allocate its accumulator + touched list per call; both now live in the
// per-worker Workspace. Reuse (one long-lived context) vs Cold (a fresh
// context, hence fresh arenas, every iteration) isolates exactly the
// alloc churn the workspace removes.
void BM_SpGemmWorkspaceReuse(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  const CsrMatrix a = sparse::RowNormalize(g.relation(0).adj);
  const CsrMatrix b = sparse::Transpose(a);
  exec::ExecContext ex(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::SpGemm(a, b, 512, &ex));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_SpGemmWorkspaceReuse);

void BM_SpGemmColdWorkspace(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  const CsrMatrix a = sparse::RowNormalize(g.relation(0).adj);
  const CsrMatrix b = sparse::Transpose(a);
  for (auto _ : state) {
    exec::ExecContext ex(1);
    benchmark::DoNotOptimize(sparse::SpGemm(a, b, 512, &ex));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_SpGemmColdWorkspace);

void BM_PersonalizedPageRank(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  // NIM's operand: the sym-normalized bipartite block of a relation, with
  // teleport mass on its first 10 source rows.
  const CsrMatrix& cites = g.relation(0).adj;
  const CsrMatrix block =
      sparse::SymNormalize(sparse::BipartiteBlock(cites));
  std::vector<float> teleport(static_cast<size_t>(block.rows()), 0.0f);
  for (int i = 0; i < 10; ++i) teleport[static_cast<size_t>(i)] = 0.1f;
  const int threads = static_cast<int>(state.range(1));
  exec::ExecContext ex(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::PprScores(block, cites.rows(), teleport, 0.15f,
                          static_cast<int>(state.range(0)), &ex));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_PersonalizedPageRank)
    ->ArgsProduct({{10, 30, 50}, {1, 2, 4}});

void BM_GreedyCoverage(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  MetaPathOptions opts;
  opts.max_hops = 2;
  opts.max_paths = 1;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  const CsrMatrix adj = ComposeAdjacency(g, paths[0], 512);
  std::vector<int32_t> pool;
  for (int32_t v = 0; v < adj.rows(); ++v) pool.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GreedyCoverageSelect(
        adj, pool, static_cast<int32_t>(state.range(0)), nullptr, true));
  }
  state.counters["threads"] = 1;
}
BENCHMARK(BM_GreedyCoverage)->Arg(16)->Arg(64)->Arg(256);

void BM_Propagate(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  MetaPathOptions opts;
  opts.max_hops = 2;
  opts.max_paths = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  exec::ExecContext ex(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hgnn::BuildEvalContext(g, opts, &ex));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_Propagate)->ArgsProduct({{4, 8, 12}, {1, 2, 4}});

void BM_TrainEpoch(benchmark::State& state) {
  const HeteroGraph& g = ToyGraph();
  MetaPathOptions opts;
  opts.max_hops = 2;
  opts.max_paths = 8;
  const hgnn::PropagatedFeatures feats =
      hgnn::BuildEvalContext(g, opts).full_features;
  std::vector<int64_t> dims;
  for (const auto& b : feats.blocks) dims.push_back(b.cols());
  hgnn::HgnnConfig cfg;
  cfg.kind = static_cast<hgnn::HgnnKind>(state.range(0));
  cfg.hidden = 32;
  hgnn::HgnnModel model(cfg, dims, feats.end_types, g.num_classes());
  nn::Adam opt(1e-3f);
  auto params = model.Params();
  for (auto _ : state) {
    model.ZeroGrad();
    Matrix logits = model.Forward(feats.blocks, true);
    Matrix dlogits;
    nn::SoftmaxCrossEntropy(logits, g.labels(), g.train_index(), &dlogits);
    model.Backward(dlogits);
    opt.Step(params);
  }
  state.counters["threads"] = 1;
  state.SetLabel(hgnn::HgnnKindName(cfg.kind));
}
BENCHMARK(BM_TrainEpoch)
    ->Arg(static_cast<int>(hgnn::HgnnKind::kHeteroSGC))
    ->Arg(static_cast<int>(hgnn::HgnnKind::kSeHGNN))
    ->Arg(static_cast<int>(hgnn::HgnnKind::kHAN));

}  // namespace

/// Console output plus a flat JSON record per run, written to
/// BENCH_substrate.json when the harness exits.
class SubstrateReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      Entry e;
      const std::string name = r.benchmark_name();
      const size_t slash = name.find('/');
      e.op = name.substr(0, slash);
      // First arg = problem size (hops / iters / budget); absent for
      // benches with no args.
      e.size = 0;
      if (slash != std::string::npos) {
        e.size = std::atoll(name.c_str() + slash + 1);
      }
      auto it = r.counters.find("threads");
      e.threads = it != r.counters.end()
                      ? static_cast<int>(it->second.value)
                      : 1;
      const double iters =
          static_cast<double>(std::max<int64_t>(1, r.iterations));
      e.ns_per_op = r.real_accumulated_time / iters * 1e9;
      entries_.push_back(e);
    }
  }

  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "  {\"op\": \"%s\", \"size\": %lld, \"threads\": %d, "
                    "\"ns_per_op\": %.1f}%s\n",
                    e.op.c_str(), static_cast<long long>(e.size), e.threads,
                    e.ns_per_op, i + 1 < entries_.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
  }

 private:
  struct Entry {
    std::string op;
    long long size;
    int threads;
    double ns_per_op;
  };
  std::vector<Entry> entries_;
};

}  // namespace freehgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  freehgc::SubstrateReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson("BENCH_substrate.json");
  benchmark::Shutdown();
  return 0;
}
