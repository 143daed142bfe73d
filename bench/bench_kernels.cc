// Kernel microbenchmark. Sparse part: times every hot kernel in
// sparse/ops.h against its single-threaded reference
// (sparse/reference.h), and the cold meta-path composition workload
// (every >= 2-hop path composed from scratch, as an EvalContext build
// does). The selection kernels run on what FreeHGC feeds them: the
// bipartite_block and ppr rows on a composed target-to-other-type path
// (ppr on its bit-exactly symmetric SymNormalize'd block, as NIM calls
// it), the jaccard row on the largest group of composed paths sharing
// an end type. Dense part: times MatMul, MatMulTA and MatMulTB against
// their scalar references (dense/reference.h) at 1 and 4 threads, on
// the shapes the served HGNN trainer runs. Writes BENCH_kernels.json;
// every row carries "dense" and "threads". `--smoke` runs a scaled-down
// sparse workload; the dense rows and the spgemm_truncating row (the
// author-paper-author product of AMiner at scale 0.25, reporting how
// many rows the budget truncates) are the same in both modes. CI
// asserts that the spgemm, spgemm_truncating, bipartite_block, jaccard
// and ppr rows and every dense row are >= 1.0x.
//
// Four stages that have no reference to race are recorded time-only,
// beside "compose": one lazy-greedy coverage selection over the train
// pool of a composed path, one NIM block build (BipartiteBlock then
// SymNormalize, the work an ArtifactCache::NimBlock miss adds to its
// compose) on AMiner's author-paper product at scale 0.25, one
// propagated feature block, and one SeHGNN training epoch on the whole
// graph's blocks.
//
// All timed paths are bit-identical to their references (enforced by
// tests/sparse_reference_test.cc and tests/dense_reference_test.cc;
// spot-checked here on both spgemm rows, the bipartite_block, jaccard
// and ppr rows and every dense row), so the comparison is pure speed.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/target_selection.h"
#include "dense/reference.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "metapath/metapath.h"
#include "nn/nn.h"
#include "obs/trace.h"
#include "sparse/ops.h"
#include "sparse/reference.h"

namespace freehgc::bench {
namespace {

template <typename Fn>
int64_t BestOfNs(int reps, Fn&& fn) {
  int64_t best = INT64_MAX;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = obs::NowNs();
    fn();
    const int64_t dt = obs::NowNs() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

struct KernelRow {
  std::string name;
  bool dense = false;
  int threads = 0;
  int64_t reference_ns = 0;
  int64_t optimized_ns = 0;
};

/// A dense product row: `op` names the kernel, the output is (m, n) and
/// k is the contracted dimension. `relu_a` draws `a` through a ReLU, as
/// the trainer's products on ReLU outputs see it: about half its entries
/// are zero, which the reference's skip and the kernels' mask meet.
struct DenseShape {
  const char* op;
  int64_t m, k, n;
  bool relu_a;
};

/// The served trainer's shapes (SeHGNN, hidden 32): a ~108-row training
/// step and a ~3150-row eval forward (AMiner's sizes in train_eval),
/// 128-wide layer inputs (block features, or the head's concatenated
/// ReLU'd block outputs), 8 classes.
constexpr DenseShape kDenseShapes[] = {
    {"matmul", 108, 128, 32, false},     // step: projection x W
    {"matmul", 108, 128, 32, true},      // step: head hidden layer
    {"matmul", 108, 32, 8, true},        // step: logits
    {"matmul_ta", 128, 108, 32, false},  // step: projection dW = x^T dout
    {"matmul_ta", 32, 108, 8, true},     // step: logit layer dW
    {"matmul_tb", 108, 32, 128, false},  // step: head dx = dout W^T
    {"matmul_tb", 108, 8, 32, false},    // step: logit layer dx
    {"matmul", 3150, 128, 32, false},    // eval forward: projection x W
    {"matmul", 3150, 128, 32, true},     // eval forward: head hidden layer
    {"matmul", 3150, 32, 8, true},       // eval forward: logits
};

/// Each timed sample repeats a dense product until it has done at least
/// this many multiply-adds, so every reference sample takes >= 1 ms.
constexpr int64_t kDenseSampleMacs = int64_t{4} << 20;

/// Shortest reference sample of the selection-kernel rows.
constexpr int64_t kMinSampleNs = 1'000'000;

Matrix RandomDense(int64_t rows, int64_t cols, bool relu, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const float v = rng.NextUniform(-1.0f, 1.0f);
    m.data()[i] = relu ? std::max(0.0f, v) : v;
  }
  return m;
}

double Speedup(int64_t reference_ns, int64_t optimized_ns) {
  return optimized_ns > 0 ? static_cast<double>(reference_ns) /
                                static_cast<double>(optimized_ns)
                          : 0.0;
}

/// Keeps results observable so the timed calls cannot be elided.
int64_t g_sink = 0;
void Consume(const CsrMatrix& m) { g_sink += m.nnz(); }
void Consume(const Matrix& m) {
  g_sink += static_cast<int64_t>(m.size() > 0 ? m.data()[0] : 0);
}
void Consume(const std::vector<float>& v) {
  g_sink += static_cast<int64_t>(v.size());
}
void Consume(const std::vector<std::vector<float>>& v) {
  g_sink += static_cast<int64_t>(v.size());
}

/// How many calls one timed sample repeats so that a sample of
/// `reference` takes at least kMinSampleNs.
template <typename Fn>
int64_t ItersForMinSample(Fn&& reference) {
  const int64_t t0 = obs::NowNs();
  Consume(reference());
  const int64_t once = std::max<int64_t>(1, obs::NowNs() - t0);
  return (kMinSampleNs + once - 1) / once;
}

int Run(bool smoke) {
  const int reps = smoke ? 2 : 5;
  const double scale = smoke ? 0.25 : 1.0;
  const int threads = BenchThreads();
  exec::ExecContext& ex = exec::DefaultExec();
  PrintHeader(smoke ? "Sparse kernels (smoke)" : "Sparse kernels");
  std::printf("threads=%d scale=%.2f reps(best-of)=%d\n", threads, scale,
              reps);

  auto graph_res = datasets::MakeByName("acm", 1, scale, &ex);
  FREEHGC_CHECK(graph_res.ok());
  const HeteroGraph g = std::move(graph_res).value();

  // --- Meta-path composition workload ----------------------------------
  // Every >= 2-hop path composed cold, exactly as an EvalContext build
  // chains its SpGEMMs (row-normalized relation adjacencies).
  MetaPathOptions mp;
  mp.max_hops = smoke ? 2 : 3;
  mp.max_paths = 0;  // every path: 59 on ACM at K = 3
  const auto all_paths = EnumerateMetaPaths(g, g.target_type(), mp);
  std::vector<MetaPath> paths;
  for (const auto& p : all_paths) {
    if (p.hops() >= 2) paths.push_back(p);
  }
  FREEHGC_CHECK(!paths.empty()) << "workload needs multi-hop paths";
  const int64_t budget = 512;  // pipeline-default row budget

  const int64_t compose_ns = BestOfNs(reps, [&] {
    for (const auto& p : paths) {
      Consume(ComposeAdjacency(g, p, budget, &ex));
    }
  });
  std::printf("compose %zu paths: %.3f ms\n", paths.size(),
              static_cast<double>(compose_ns) * 1e-6);

  // --- Per-kernel reference vs optimized --------------------------------
  // Operands: the largest relation adjacency (rectangular) and one
  // composed square adjacency (power-law-ish after composition).
  const CsrMatrix* rect = &g.relation(0).adj;
  for (RelationId r = 1; r < g.NumRelations(); ++r) {
    if (g.relation(r).adj.nnz() > rect->nnz()) rect = &g.relation(r).adj;
  }
  const MetaPath* round_trip = nullptr;
  for (const auto& p : paths) {
    if (p.start_type() == p.end_type()) {
      round_trip = &p;
      break;
    }
  }
  FREEHGC_CHECK(round_trip != nullptr) << "no round-trip meta-path";
  const CsrMatrix square =
      ComposeAdjacency(g, *round_trip, /*max_row_nnz=*/0, &ex);
  FREEHGC_CHECK(square.rows() == square.cols());
  const CsrMatrix square_t = sparse::Transpose(square, &ex);
  const CsrMatrix sym = sparse::SymNormalize(
      sparse::reference::SpGemmRef(square, square_t, budget), &ex);

  Rng rng(7);
  Matrix feats(rect->cols(), 64);
  for (int64_t i = 0; i < feats.size(); ++i) {
    feats.data()[i] = rng.NextUniform(-1.0f, 1.0f);
  }
  std::vector<float> vec(static_cast<size_t>(rect->cols()));
  for (auto& v : vec) v = rng.NextUniform(-1.0f, 1.0f);
  // NIM's operands: the largest composed path from the target type to
  // another type (row budget as served), its bipartite block, and the
  // Jaccard term's largest group of paths sharing an end type.
  std::vector<CsrMatrix> composed;
  for (const auto& p : all_paths) {
    composed.push_back(ComposeAdjacency(g, p, budget, &ex));
  }
  const CsrMatrix* nim_path = nullptr;
  std::map<TypeId, std::vector<const CsrMatrix*>> groups;
  for (size_t i = 0; i < all_paths.size(); ++i) {
    groups[all_paths[i].end_type()].push_back(&composed[i]);
    if (all_paths[i].end_type() != g.target_type() &&
        (nim_path == nullptr || composed[i].nnz() > nim_path->nnz())) {
      nim_path = &composed[i];
    }
  }
  FREEHGC_CHECK(nim_path != nullptr) << "no target-to-other-type path";
  const std::vector<const CsrMatrix*>* jaccard_group = nullptr;
  for (const auto& [end, group] : groups) {
    if (jaccard_group == nullptr || group.size() > jaccard_group->size()) {
      jaccard_group = &group;
    }
  }
  FREEHGC_CHECK(jaccard_group->size() >= 2) << "no Jaccard group";
  const CsrMatrix nim_block =
      sparse::SymNormalize(sparse::BipartiteBlock(*nim_path, &ex), &ex);
  // Teleport mass on every 16th target node, as NIM spreads it over the
  // selected targets.
  std::vector<float> teleport(static_cast<size_t>(nim_block.rows()), 0.0f);
  const int32_t seeds = (nim_path->rows() + 15) / 16;
  for (int32_t t = 0; t < nim_path->rows(); t += 16) {
    teleport[static_cast<size_t>(t)] = 1.0f / static_cast<float>(seeds);
  }
  // NimOptions::max_iters: NIM's PPR always runs all of them.
  const int ppr_iters = 30;

  std::vector<KernelRow> rows;
  auto add_row = [&](const std::string& name, bool dense, int row_threads,
                     int64_t ref_ns, int64_t opt_ns) {
    rows.push_back({name, dense, row_threads, ref_ns, opt_ns});
    std::printf("%-24s t=%d reference %10.3f ms  optimized %10.3f ms  "
                "%6.2fx\n",
                name.c_str(), row_threads, static_cast<double>(ref_ns) * 1e-6,
                static_cast<double>(opt_ns) * 1e-6, Speedup(ref_ns, opt_ns));
  };
  auto add = [&](const std::string& name, int64_t ref_ns, int64_t opt_ns) {
    add_row(name, /*dense=*/false, threads, ref_ns, opt_ns);
  };
  // A row whose samples repeat both sides until the reference's takes
  // kMinSampleNs.
  auto add_repeated = [&](const std::string& name, auto&& reference,
                          auto&& optimized) {
    const int64_t iters = ItersForMinSample(reference);
    add(name, BestOfNs(reps, [&] {
          for (int64_t it = 0; it < iters; ++it) Consume(reference());
        }),
        BestOfNs(reps, [&] {
          for (int64_t it = 0; it < iters; ++it) Consume(optimized());
        }));
  };

  add("transpose",
      BestOfNs(reps, [&] { Consume(sparse::reference::TransposeRef(*rect)); }),
      BestOfNs(reps, [&] { Consume(sparse::Transpose(*rect, &ex)); }));
  add("row_normalize",
      BestOfNs(reps,
               [&] { Consume(sparse::reference::RowNormalizeRef(*rect)); }),
      BestOfNs(reps, [&] { Consume(sparse::RowNormalize(*rect, &ex)); }));
  add("sym_normalize",
      BestOfNs(reps,
               [&] { Consume(sparse::reference::SymNormalizeRef(sym)); }),
      BestOfNs(reps, [&] { Consume(sparse::SymNormalize(sym, &ex)); }));
  FREEHGC_CHECK(sparse::SpGemm(square, square_t, budget, &ex) ==
                sparse::reference::SpGemmRef(square, square_t, budget))
      << "spgemm differs";
  add("spgemm",
      BestOfNs(reps, [&] {
        Consume(sparse::reference::SpGemmRef(square, square_t, budget));
      }),
      BestOfNs(reps, [&] {
        Consume(sparse::SpGemm(square, square_t, budget, &ex));
      }));
  // The truncating shape: AMiner's author-paper-author product at the
  // scale cold_job serves, where most rows exceed the row budget and
  // the finalize (threshold select + column-order emit) dominates.
  auto aminer_res = datasets::MakeByName("aminer", 1, 0.25, &ex);
  FREEHGC_CHECK(aminer_res.ok());
  const HeteroGraph aminer = std::move(aminer_res).value();
  MetaPathOptions apa_opts;
  apa_opts.max_hops = 2;
  const MetaPath* apa = nullptr;
  const auto aminer_paths =
      EnumerateMetaPaths(aminer, aminer.target_type(), apa_opts);
  for (const auto& p : aminer_paths) {
    if (p.hops() == 2 && p.end_type() == aminer.target_type()) apa = &p;
  }
  FREEHGC_CHECK(apa != nullptr) << "no author-paper-author path";
  const CsrMatrix ap =
      sparse::RowNormalize(aminer.relation(apa->relations[0]).adj, &ex);
  const CsrMatrix pa =
      sparse::RowNormalize(aminer.relation(apa->relations[1]).adj, &ex);
  obs::Counter& truncated_ctr =
      obs::MetricsRegistry::Global().GetCounter("spgemm.rows_truncated");
  const int64_t truncated_before = truncated_ctr.Value();
  const CsrMatrix apa_product = sparse::SpGemm(ap, pa, budget, &ex);
  const int64_t apa_rows_truncated = truncated_ctr.Value() - truncated_before;
  FREEHGC_CHECK(apa_product == sparse::reference::SpGemmRef(ap, pa, budget))
      << "spgemm_truncating differs";
  std::printf("spgemm_truncating: %s, %d rows, %lld truncated, nnz %lld\n",
              apa->Name(aminer).c_str(), apa_product.rows(),
              static_cast<long long>(apa_rows_truncated),
              static_cast<long long>(apa_product.nnz()));
  add("spgemm_truncating",
      BestOfNs(reps, [&] {
        Consume(sparse::reference::SpGemmRef(ap, pa, budget));
      }),
      BestOfNs(reps, [&] { Consume(sparse::SpGemm(ap, pa, budget, &ex)); }));
  // Time-only: the miss cost of NIM's cached block (ArtifactCache::
  // NimBlock minus the compose) on AMiner's author-paper product.
  const MetaPath* author_paper = nullptr;
  for (const auto& p : aminer_paths) {
    if (p.hops() == 1 && p.relations[0] == apa->relations[0]) {
      author_paper = &p;
    }
  }
  FREEHGC_CHECK(author_paper != nullptr) << "no author-paper path";
  const CsrMatrix ap_product =
      ComposeAdjacency(aminer, *author_paper, budget, &ex);
  const int64_t nim_block_ns = BestOfNs(reps, [&] {
    Consume(sparse::SymNormalize(sparse::BipartiteBlock(ap_product, &ex),
                                 &ex));
  });
  add("spmm_dense",
      BestOfNs(reps,
               [&] { Consume(sparse::reference::SpMmDenseRef(*rect, feats)); }),
      BestOfNs(reps, [&] { Consume(sparse::SpMmDense(*rect, feats, &ex)); }));
  add("spmv",
      BestOfNs(reps, [&] { Consume(sparse::reference::SpMvRef(*rect, vec)); }),
      BestOfNs(reps, [&] { Consume(sparse::SpMv(*rect, vec, &ex)); }));
  auto bipartite_ref = [&] {
    return sparse::reference::BipartiteBlockRef(*nim_path);
  };
  auto bipartite_opt = [&] { return sparse::BipartiteBlock(*nim_path, &ex); };
  FREEHGC_CHECK(bipartite_ref() == bipartite_opt()) << "bipartite differs";
  add_repeated("bipartite_block", bipartite_ref, bipartite_opt);
  auto jaccard_ref = [&] {
    return reference::PerPathJaccardRef(*jaccard_group);
  };
  auto jaccard_opt = [&] { return PerPathJaccard(*jaccard_group, &ex); };
  FREEHGC_CHECK(jaccard_ref() == jaccard_opt()) << "jaccard differs";
  add_repeated("jaccard", jaccard_ref, jaccard_opt);
  // tol = 0 runs all ppr_iters reference iterations, as PprScores does;
  // PprScores returns the reference's father half.
  const int32_t ppr_split = nim_path->rows();
  auto ppr_ref = [&] {
    return sparse::reference::PprScoresRef(nim_block, teleport, 0.15f,
                                           ppr_iters, 0.0f);
  };
  auto ppr_opt = [&] {
    return sparse::PprScores(nim_block, ppr_split, teleport, 0.15f,
                             ppr_iters, &ex);
  };
  {
    const std::vector<float> full = ppr_ref();
    FREEHGC_CHECK(std::vector<float>(full.begin() + ppr_split, full.end()) ==
                  ppr_opt())
        << "ppr differs";
  }
  add_repeated("ppr", ppr_ref, ppr_opt);

  // --- Time-only stages ---------------------------------------------------
  // Lazy-greedy coverage over the train pool, on the train-pool rows of
  // the round-trip path as target selection composes them.
  const CsrMatrix coverage_adj =
      ComposeAdjacency(g, *round_trip, budget, &ex, &g.train_index());
  const int32_t greedy_budget = 64;
  const int64_t greedy_ns = BestOfNs(reps, [&] {
    g_sink += static_cast<int64_t>(
        core::GreedyCoverageSelect(coverage_adj, g.train_index(),
                                   greedy_budget, nullptr, true)
            .size());
  });
  const int64_t block_ns = BestOfNs(
      reps, [&] { Consume(hgnn::PropagateOneBlock(g, *round_trip, &ex)); });
  // One SeHGNN epoch (forward, backward, Adam step) over the whole
  // graph's blocks along the first 8 paths of at most 2 hops.
  MetaPathOptions train_mp;
  train_mp.max_hops = 2;
  train_mp.max_paths = 8;
  const hgnn::PropagatedFeatures train_feats = hgnn::PropagateAlongPaths(
      g, EnumerateMetaPaths(g, g.target_type(), train_mp), budget, &ex);
  std::vector<int64_t> dims;
  for (const Matrix& b : train_feats.blocks) dims.push_back(b.cols());
  hgnn::HgnnConfig train_cfg;
  train_cfg.hidden = 32;
  hgnn::HgnnModel model(train_cfg, dims, train_feats.end_types,
                        g.num_classes());
  nn::Adam adam(1e-3f);
  std::vector<nn::Parameter*> params = model.Params();
  const int64_t epoch_ns = BestOfNs(reps, [&] {
    model.ZeroGrad();
    Matrix dlogits;
    nn::SoftmaxCrossEntropy(model.Forward(train_feats.blocks, true, &ex),
                            g.labels(), g.train_index(), &dlogits);
    model.Backward(dlogits, &ex);
    adam.Step(params);
  });
  std::printf("greedy_coverage budget %d of %zu: %.3f ms\n", greedy_budget,
              g.train_index().size(), static_cast<double>(greedy_ns) * 1e-6);
  std::printf("nim_block %s, nnz %lld: %.3f ms\n",
              author_paper->Name(aminer).c_str(),
              static_cast<long long>(ap_product.nnz()),
              static_cast<double>(nim_block_ns) * 1e-6);
  std::printf("propagate_block %s: %.3f ms\n", round_trip->Name(g).c_str(),
              static_cast<double>(block_ns) * 1e-6);
  std::printf("train_epoch %s, %zu blocks: %.3f ms\n",
              hgnn::HgnnKindName(train_cfg.kind), train_feats.blocks.size(),
              static_cast<double>(epoch_ns) * 1e-6);

  // --- Dense products vs their scalar references ------------------------
  for (int dense_threads : {1, 4}) {
    exec::ExecContext dex(dense_threads);
    for (const DenseShape& shape : kDenseShapes) {
      const std::string op = shape.op;
      const bool ta = op == "matmul_ta", tb = op == "matmul_tb";
      // MatMul: a (m,k) b (k,n). MatMulTA: a (k,m) b (k,n). MatMulTB:
      // a (m,k) b (n,k).
      const Matrix a = ta ? RandomDense(shape.k, shape.m, shape.relu_a, rng)
                          : RandomDense(shape.m, shape.k, shape.relu_a, rng);
      const Matrix b = tb ? RandomDense(shape.n, shape.k, false, rng)
                          : RandomDense(shape.k, shape.n, false, rng);
      auto reference = [&] {
        return ta   ? dense::reference::MatMulTARef(a, b)
               : tb ? dense::reference::MatMulTBRef(a, b)
                    : dense::reference::MatMulRef(a, b);
      };
      auto optimized = [&] {
        return ta   ? dense::MatMulTA(a, b, &dex)
               : tb ? dense::MatMulTB(a, b, &dex)
                    : dense::MatMul(a, b, &dex);
      };
      FREEHGC_CHECK(reference() == optimized()) << op << " differs";
      const int64_t macs = shape.m * shape.k * shape.n;
      const int64_t iters = (kDenseSampleMacs + macs - 1) / macs;
      const int64_t ref_ns = BestOfNs(reps, [&] {
        for (int64_t it = 0; it < iters; ++it) Consume(reference());
      });
      const int64_t opt_ns = BestOfNs(reps, [&] {
        for (int64_t it = 0; it < iters; ++it) Consume(optimized());
      });
      add_row(StrFormat("%s_%lldx%lldx%lld%s", shape.op,
                        static_cast<long long>(shape.m),
                        static_cast<long long>(shape.k),
                        static_cast<long long>(shape.n),
                        shape.relu_a ? "_relu" : ""),
              /*dense=*/true, dense_threads, ref_ns, opt_ns);
    }
  }

  // --- JSON -------------------------------------------------------------
  std::string json = "{\n";
  json += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += StrFormat("  \"dataset\": \"acm\",\n  \"scale\": %.2f,\n", scale);
  json += StrFormat("  \"threads\": %d,\n  \"reps\": %d,\n", threads, reps);
  json += StrFormat(
      "  \"compose\": {\"paths\": %zu, \"row_budget\": %lld, "
      "\"ns\": %lld},\n",
      paths.size(), static_cast<long long>(budget),
      static_cast<long long>(compose_ns));
  json += StrFormat(
      "  \"greedy_coverage\": {\"pool\": %zu, \"budget\": %d, "
      "\"ns\": %lld},\n",
      g.train_index().size(), greedy_budget,
      static_cast<long long>(greedy_ns));
  json += StrFormat(
      "  \"nim_block\": {\"dataset\": \"aminer\", \"scale\": 0.25, "
      "\"path\": \"%s\", \"nnz\": %lld, \"ns\": %lld},\n",
      author_paper->Name(aminer).c_str(),
      static_cast<long long>(ap_product.nnz()),
      static_cast<long long>(nim_block_ns));
  json += StrFormat(
      "  \"propagate_block\": {\"path\": \"%s\", \"ns\": %lld},\n",
      round_trip->Name(g).c_str(), static_cast<long long>(block_ns));
  json += StrFormat(
      "  \"train_epoch\": {\"model\": \"%s\", \"blocks\": %zu, "
      "\"ns\": %lld},\n",
      hgnn::HgnnKindName(train_cfg.kind), train_feats.blocks.size(),
      static_cast<long long>(epoch_ns));
  json += StrFormat(
      "  \"spgemm_truncating\": {\"dataset\": \"aminer\", \"scale\": 0.25, "
      "\"rows\": %d, \"rows_truncated\": %lld, \"output_nnz\": %lld},\n",
      apa_product.rows(), static_cast<long long>(apa_rows_truncated),
      static_cast<long long>(apa_product.nnz()));
  json += "  \"kernels\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += StrFormat(
        "    {\"name\": \"%s\", \"dense\": %s, \"threads\": %d, "
        "\"reference_ns\": %lld, \"optimized_ns\": %lld, "
        "\"speedup\": %.4f}%s\n",
        rows[i].name.c_str(), rows[i].dense ? "true" : "false",
        rows[i].threads, static_cast<long long>(rows[i].reference_ns),
        static_cast<long long>(rows[i].optimized_ns),
        Speedup(rows[i].reference_ns, rows[i].optimized_ns),
        i + 1 < rows.size() ? "," : "");
  }
  json += "  ],\n";
  json += StrFormat("  \"sink\": %lld,\n", static_cast<long long>(g_sink));
  json += "  \"metrics\": " + MetricsSnapshotJson() + "\n";
  json += "}\n";
  WriteTextFile("BENCH_kernels.json", json);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}

}  // namespace
}  // namespace freehgc::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return freehgc::bench::Run(smoke);
}
