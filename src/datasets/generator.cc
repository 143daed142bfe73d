#include "datasets/generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/content_hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "sparse/ops.h"

namespace freehgc::datasets {

namespace {

/// Draws a Pareto-distributed degree with the given mean and shape.
int32_t ParetoDegree(Rng& rng, double mean, double alpha, int32_t cap) {
  // Pareto with shape alpha has mean xm * alpha / (alpha - 1); choose xm so
  // that the distribution mean matches `mean`.
  const double xm = mean * (alpha - 1.0) / alpha;
  double u = rng.NextDouble();
  while (u <= 1e-12) u = rng.NextDouble();
  const double x = xm / std::pow(u, 1.0 / alpha);
  int32_t deg = static_cast<int32_t>(std::lround(x));
  if (deg < 1) deg = 1;
  if (deg > cap) deg = cap;
  return deg;
}

/// Where generated pieces go. GenerateCore drives one random draw
/// sequence and hands every finished artifact to a sink: the heap sink
/// assembles a HeteroGraph (the historical Generate), the v3 sink streams
/// sections straight to disk. The reverse-relation logic lives in the
/// core, so both outputs get identical relation order by construction.
class GenSink {
 public:
  virtual ~GenSink() = default;
  virtual Status AddNodeType(const std::string& name, int32_t count) = 0;
  /// Relations arrive in final order: all forwards, then reverses.
  virtual Status AddRelation(const std::string& name, TypeId src, TypeId dst,
                             CsrMatrix adj) = 0;
  /// Read-back of relation `i`'s adjacency for transposing. Valid until
  /// EndRelations.
  virtual const CsrMatrix& RelationAdj(size_t i) const = 0;
  /// No more relations; the sink may free any CSR staging.
  virtual Status EndRelations() = 0;
  virtual Status BeginFeatures(TypeId type, int64_t rows, int64_t cols) = 0;
  virtual Status AppendFeatureRows(const float* data, int64_t num_rows) = 0;
  virtual Status EndFeatures() = 0;
  virtual Status SetTarget(TypeId type, const std::vector<int32_t>& labels,
                           int32_t num_classes) = 0;
  virtual Status SetSplit(const std::vector<int32_t>& train,
                          const std::vector<int32_t>& val,
                          const std::vector<int32_t>& test) = 0;
};

/// Assembles a heap HeteroGraph; byte-identical to the pre-sink
/// generator output.
class HeapSink : public GenSink {
 public:
  Status AddNodeType(const std::string& name, int32_t count) override {
    return g.AddNodeType(name, count).status();
  }
  Status AddRelation(const std::string& name, TypeId src, TypeId dst,
                     CsrMatrix adj) override {
    return g.AddRelation(name, src, dst, std::move(adj)).status();
  }
  const CsrMatrix& RelationAdj(size_t i) const override {
    return g.relation(static_cast<RelationId>(i)).adj;
  }
  Status EndRelations() override { return Status::OK(); }
  Status BeginFeatures(TypeId type, int64_t rows, int64_t cols) override {
    feat_type_ = type;
    feat_ = Matrix(rows, cols);
    feat_row_ = 0;
    return Status::OK();
  }
  Status AppendFeatureRows(const float* data, int64_t num_rows) override {
    std::memcpy(feat_.Row(feat_row_), data,
                static_cast<size_t>(num_rows) *
                    static_cast<size_t>(feat_.cols()) * sizeof(float));
    feat_row_ += num_rows;
    return Status::OK();
  }
  Status EndFeatures() override {
    return g.SetFeatures(feat_type_, std::move(feat_));
  }
  Status SetTarget(TypeId type, const std::vector<int32_t>& labels,
                   int32_t num_classes) override {
    return g.SetTarget(type, labels, num_classes);
  }
  Status SetSplit(const std::vector<int32_t>& train,
                  const std::vector<int32_t>& val,
                  const std::vector<int32_t>& test) override {
    return g.SetSplit(train, val, test);
  }

  HeteroGraph g;

 private:
  TypeId feat_type_ = -1;
  Matrix feat_;
  int64_t feat_row_ = 0;
};

/// Streams into a HeteroGraphV3Writer while folding every artifact into
/// a ContentHash with HeteroGraph::ContentFingerprint's exact canonical
/// byte sequence — generation order matches fingerprint order, which is
/// what makes the incremental hash possible.
class V3Sink : public GenSink {
 public:
  explicit V3Sink(HeteroGraphV3Writer writer) : w_(std::move(writer)) {
    hash_.Tag(0x01);
  }
  Status AddNodeType(const std::string& name, int32_t count) override {
    hash_.Str(name);
    hash_.Pod(count);
    return w_.AddNodeType(name, count);
  }
  Status AddRelation(const std::string& name, TypeId src, TypeId dst,
                     CsrMatrix adj) override {
    if (staged_.empty()) hash_.Tag(0x02);
    hash_.Str(name);
    hash_.Pod(src);
    hash_.Pod(dst);
    hash_.Span(adj.indptr());
    hash_.Span(adj.indices());
    hash_.Span(adj.values());
    FREEHGC_RETURN_IF_ERROR(w_.AddRelation(name, src, dst, adj));
    staged_.push_back(std::move(adj));
    return Status::OK();
  }
  const CsrMatrix& RelationAdj(size_t i) const override {
    return staged_[i];
  }
  Status EndRelations() override {
    if (staged_.empty()) hash_.Tag(0x02);  // zero-relation schema
    staged_.clear();
    staged_.shrink_to_fit();
    hash_.Tag(0x03);
    return Status::OK();
  }
  Status BeginFeatures(TypeId type, int64_t rows, int64_t cols) override {
    hash_.Pod(rows);
    hash_.Pod(cols);
    row_bytes_ = static_cast<size_t>(cols) * sizeof(float);
    return w_.BeginFeatures(type, rows, cols);
  }
  Status AppendFeatureRows(const float* data, int64_t num_rows) override {
    FREEHGC_RETURN_IF_ERROR(w_.AppendFeatureRows(data, num_rows));
    hash_.Bytes(data, static_cast<size_t>(num_rows) * row_bytes_);
    return Status::OK();
  }
  Status EndFeatures() override { return w_.EndFeatures(); }
  Status SetTarget(TypeId type, const std::vector<int32_t>& labels,
                   int32_t num_classes) override {
    hash_.Tag(0x04);
    hash_.Pod(type);
    hash_.Pod(num_classes);
    hash_.Vec(labels);
    return w_.SetTarget(type, labels, num_classes);
  }
  Status SetSplit(const std::vector<int32_t>& train,
                  const std::vector<int32_t>& val,
                  const std::vector<int32_t>& test) override {
    hash_.Tag(0x05);
    hash_.Vec(train);
    hash_.Vec(val);
    hash_.Vec(test);
    FREEHGC_RETURN_IF_ERROR(w_.SetSplit(train, val, test));
    return Status::OK();
  }
  Result<V3WriteSummary> Finish() {
    FREEHGC_RETURN_IF_ERROR(w_.SetContentFingerprint(hash_.Digest()));
    return w_.Finish();
  }

 private:
  HeteroGraphV3Writer w_;
  ContentHash hash_;
  std::vector<CsrMatrix> staged_;
  size_t row_bytes_ = 0;
};

Status GenerateCore(const SchemaConfig& config, uint64_t seed,
                    exec::ExecContext* ctx, GenSink& sink) {
  if (config.types.empty()) {
    return Status::InvalidArgument("schema has no node types");
  }
  if (config.num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  Rng rng(seed);
  std::unordered_map<std::string, TypeId> type_ids;
  std::vector<int32_t> counts;
  for (const auto& t : config.types) {
    if (t.count < 0) {
      return Status::InvalidArgument("negative node count: " + t.name);
    }
    if (!type_ids.emplace(t.name, static_cast<TypeId>(counts.size()))
             .second) {
      return Status::InvalidArgument("duplicate node type: " + t.name);
    }
    counts.push_back(t.count);
    FREEHGC_RETURN_IF_ERROR(
        sink.AddNodeType(t.name, t.count));
  }
  auto target_it = type_ids.find(config.target);
  if (target_it == type_ids.end()) {
    return Status::InvalidArgument("target type not in schema: " +
                                   config.target);
  }
  const TypeId target = target_it->second;
  const auto node_count = [&](TypeId t) {
    return counts[static_cast<size_t>(t)];
  };

  // Latent community per node of every type; target communities double as
  // labels. Community sizes are mildly skewed (like real class
  // distributions).
  std::vector<double> class_weights(static_cast<size_t>(config.num_classes));
  for (int32_t c = 0; c < config.num_classes; ++c) {
    class_weights[static_cast<size_t>(c)] = 1.0 + 0.5 * (c % 3);
  }
  std::vector<std::vector<int32_t>> community(config.types.size());
  for (size_t ti = 0; ti < config.types.size(); ++ti) {
    community[ti].resize(static_cast<size_t>(config.types[ti].count));
    for (auto& c : community[ti]) {
      c = static_cast<int32_t>(rng.NextWeighted(class_weights));
    }
  }

  // Class-level confusion (see SchemaConfig::class_confusion): sister
  // class of c is c^1 within pairs (0,1), (2,3), ...; an odd trailing
  // class stays pure.
  auto sister = [&](int32_t c) -> int32_t {
    const int32_t s = c ^ 1;
    return s < config.num_classes ? s : c;
  };

  // Mixed-membership target nodes: a secondary community blended into
  // edges and features (see SchemaConfig::ambiguous_fraction).
  std::vector<int32_t> second_com(
      static_cast<size_t>(node_count(target)), -1);
  std::vector<float> blend(static_cast<size_t>(node_count(target)), 0.0f);
  if (config.ambiguous_fraction > 0.0 && config.num_classes > 1) {
    for (int32_t v = 0; v < node_count(target); ++v) {
      if (rng.NextDouble() < config.ambiguous_fraction) {
        const int32_t c1 =
            community[static_cast<size_t>(target)][static_cast<size_t>(v)];
        const int32_t offset = 1 + static_cast<int32_t>(rng.NextBounded(
                                       static_cast<uint64_t>(
                                           config.num_classes - 1)));
        second_com[static_cast<size_t>(v)] =
            (c1 + offset) % config.num_classes;
        blend[static_cast<size_t>(v)] = rng.NextUniform(0.2f, 0.4f);
      }
    }
  }

  // Per-community member lists per type (for affinity-based endpoint
  // sampling).
  std::vector<std::vector<std::vector<int32_t>>> members(config.types.size());
  for (size_t ti = 0; ti < config.types.size(); ++ti) {
    members[ti].resize(static_cast<size_t>(config.num_classes));
    for (int32_t v = 0; v < config.types[ti].count; ++v) {
      members[ti][static_cast<size_t>(community[ti][static_cast<size_t>(v)])]
          .push_back(v);
    }
  }

  // Edges. Forward relations stream to the sink as they finish; the
  // reverse transposes follow once all forwards exist (mirroring
  // HeteroGraph::EnsureReverseRelations exactly, so both sinks see the
  // same relation order a heap graph would have).
  struct RelMeta {
    std::string name;
    TypeId src;
    TypeId dst;
  };
  std::vector<RelMeta> rels;
  for (const auto& r : config.relations) {
    auto src_it = type_ids.find(r.src);
    auto dst_it = type_ids.find(r.dst);
    if (src_it == type_ids.end() || dst_it == type_ids.end()) {
      return Status::InvalidArgument("relation endpoint type missing: " +
                                     r.name);
    }
    const TypeId src = src_it->second;
    const TypeId dst = dst_it->second;
    const int32_t ns = node_count(src);
    const int32_t nd = node_count(dst);
    if (ns == 0 || nd == 0) {
      return Status::InvalidArgument("relation over empty type: " + r.name);
    }
    std::vector<CooEntry> entries;
    entries.reserve(static_cast<size_t>(ns * r.avg_degree * 1.2));
    // Preferential attachment on the destination side: endpoints are
    // re-drawn from past picks with probability kPreferential, producing
    // the heavy-tailed *in*-degrees (hub authors, hub venues) real
    // heterogeneous graphs have. Hubs are what make small condensed
    // graphs viable: a few kept hubs cover most kept targets.
    constexpr double kPreferential = 0.8;
    std::vector<std::vector<int32_t>> past_same(
        static_cast<size_t>(config.num_classes));
    std::vector<int32_t> past_any;
    for (int32_t v = 0; v < ns; ++v) {
      const int32_t deg =
          ParetoDegree(rng, r.avg_degree, config.powerlaw_alpha,
                       std::max<int32_t>(1, nd / 2));
      const int32_t primary = community[static_cast<size_t>(src)]
                                       [static_cast<size_t>(v)];
      for (int32_t k = 0; k < deg; ++k) {
        // Ambiguous target nodes route part of their edges through their
        // secondary community.
        int32_t com = primary;
        if (src == target && second_com[static_cast<size_t>(v)] >= 0 &&
            rng.NextDouble() < blend[static_cast<size_t>(v)]) {
          com = second_com[static_cast<size_t>(v)];
        }
        if (config.class_confusion > 0.0 &&
            rng.NextDouble() < config.class_confusion) {
          com = sister(com);
        }
        const auto& same = members[static_cast<size_t>(dst)]
                                  [static_cast<size_t>(com)];
        auto& past_com = past_same[static_cast<size_t>(com)];
        int32_t u;
        if (!same.empty() && rng.NextDouble() < r.affinity) {
          if (!past_com.empty() && rng.NextDouble() < kPreferential) {
            u = past_com[static_cast<size_t>(
                rng.NextBounded(past_com.size()))];
          } else {
            u = same[static_cast<size_t>(rng.NextBounded(same.size()))];
          }
          past_com.push_back(u);
        } else {
          if (!past_any.empty() && rng.NextDouble() < kPreferential) {
            u = past_any[static_cast<size_t>(
                rng.NextBounded(past_any.size()))];
          } else {
            u = static_cast<int32_t>(
                rng.NextBounded(static_cast<uint64_t>(nd)));
          }
          past_any.push_back(u);
        }
        if (src == dst && u == v) continue;  // no self loops
        entries.push_back({v, u, 1.0f});
      }
    }
    FREEHGC_ASSIGN_OR_RETURN(CsrMatrix adj,
                             CsrMatrix::FromCoo(ns, nd, std::move(entries)));
    // Duplicate endpoint picks collapse to a single weighted entry; reset
    // weights to 1 (unweighted graphs, as in the paper's datasets).
    for (auto& v : adj.mutable_values()) v = 1.0f;
    FREEHGC_RETURN_IF_ERROR(
        sink.AddRelation(r.name, src, dst, std::move(adj)));
    rels.push_back({r.name, src, dst});
  }
  // Reverse relations, with EnsureReverseRelations' candidate logic:
  // relations lacking a schema-level reverse get "rev_<name>"; symmetric
  // self-relations are their own reverse and are skipped.
  {
    const size_t original = rels.size();
    std::vector<size_t> candidates;
    for (size_t i = 0; i < original; ++i) {
      bool has_reverse = false;
      if (rels[i].src != rels[i].dst) {
        for (size_t j = 0; j < original; ++j) {
          if (j != i && rels[j].src == rels[i].dst &&
              rels[j].dst == rels[i].src) {
            has_reverse = true;
            break;
          }
        }
      }
      if (!has_reverse) candidates.push_back(i);
    }
    std::vector<CsrMatrix> transposed(candidates.size());
    exec::Resolve(ctx).ParallelFor(
        static_cast<int64_t>(candidates.size()), 1,
        [&](int64_t begin, int64_t end, exec::Workspace&) {
          for (int64_t k = begin; k < end; ++k) {
            transposed[static_cast<size_t>(k)] = sparse::Transpose(
                sink.RelationAdj(candidates[static_cast<size_t>(k)]));
          }
        });
    for (size_t k = 0; k < candidates.size(); ++k) {
      const size_t i = candidates[k];
      if (rels[i].src == rels[i].dst &&
          transposed[k] == sink.RelationAdj(i)) {
        continue;
      }
      FREEHGC_RETURN_IF_ERROR(sink.AddRelation(
          "rev_" + rels[i].name, rels[i].dst, rels[i].src,
          std::move(transposed[k])));
    }
  }
  FREEHGC_RETURN_IF_ERROR(sink.EndRelations());

  // Features: community centroid + Gaussian noise (target type gets
  // `feature_noise`, other types `feature_noise_other`). Rows leave in
  // fixed-size chunks so the streaming sink never holds a full matrix;
  // the draw sequence is row-major either way.
  constexpr int32_t kFeatureChunkRows = 65536;
  for (size_t ti = 0; ti < config.types.size(); ++ti) {
    const auto& t = config.types[ti];
    const double other = config.feature_noise_other >= 0.0
                             ? config.feature_noise_other
                             : config.feature_noise;
    const float noise = static_cast<float>(
        static_cast<TypeId>(ti) == target ? config.feature_noise : other);
    Matrix centroids(config.num_classes, t.feat_dim);
    centroids.FillGaussian(rng, 1.0f);
    if (config.class_confusion > 0.0) {
      // Pull sister-class centroids toward each other by the confusion
      // weight so features blur the same boundary the structure does.
      const float w = static_cast<float>(config.class_confusion);
      Matrix mixed = centroids;
      for (int32_t c = 0; c < config.num_classes; ++c) {
        const int32_t sc = sister(c);
        if (sc == c) continue;
        for (int32_t d = 0; d < t.feat_dim; ++d) {
          mixed.At(c, d) =
              (1.0f - w) * centroids.At(c, d) + w * centroids.At(sc, d);
        }
      }
      centroids = std::move(mixed);
    }
    FREEHGC_RETURN_IF_ERROR(
        sink.BeginFeatures(static_cast<TypeId>(ti), t.count, t.feat_dim));
    std::vector<float> chunk(
        static_cast<size_t>(std::min(t.count, kFeatureChunkRows)) *
        static_cast<size_t>(t.feat_dim));
    int32_t chunk_rows = 0;
    for (int32_t v = 0; v < t.count; ++v) {
      const int32_t c = community[ti][static_cast<size_t>(v)];
      const float* mu = centroids.Row(c);
      // Ambiguous target nodes: centroid blend of the two communities.
      const bool ambiguous = static_cast<TypeId>(ti) == target &&
                             second_com[static_cast<size_t>(v)] >= 0;
      const float* mu2 =
          ambiguous ? centroids.Row(second_com[static_cast<size_t>(v)])
                    : nullptr;
      const float a = ambiguous ? blend[static_cast<size_t>(v)] : 0.0f;
      float* row = chunk.data() + static_cast<size_t>(chunk_rows) *
                                      static_cast<size_t>(t.feat_dim);
      for (int32_t d = 0; d < t.feat_dim; ++d) {
        const float base = ambiguous ? (1.0f - a) * mu[d] + a * mu2[d]
                                     : mu[d];
        row[d] = base + rng.NextGaussian(0.0f, noise);
      }
      if (++chunk_rows == kFeatureChunkRows) {
        FREEHGC_RETURN_IF_ERROR(
            sink.AppendFeatureRows(chunk.data(), chunk_rows));
        chunk_rows = 0;
      }
    }
    if (chunk_rows > 0) {
      FREEHGC_RETURN_IF_ERROR(
          sink.AppendFeatureRows(chunk.data(), chunk_rows));
    }
    FREEHGC_RETURN_IF_ERROR(sink.EndFeatures());
  }

  // Labels and split. A fraction of labels is flipped to plant an
  // irreducible error ceiling (see SchemaConfig::label_flip_fraction).
  std::vector<int32_t> labels = community[static_cast<size_t>(target)];
  if (config.label_flip_fraction > 0.0 && config.num_classes > 1) {
    for (auto& y : labels) {
      if (rng.NextDouble() < config.label_flip_fraction) {
        const int32_t offset = 1 + static_cast<int32_t>(rng.NextBounded(
                                       static_cast<uint64_t>(
                                           config.num_classes - 1)));
        y = (y + offset) % config.num_classes;
      }
    }
  }
  FREEHGC_RETURN_IF_ERROR(
      sink.SetTarget(target, labels, config.num_classes));
  const int32_t n = node_count(target);
  std::vector<int32_t> perm(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(perm);
  const int32_t n_train =
      static_cast<int32_t>(std::lround(config.train_fraction * n));
  const int32_t n_val =
      static_cast<int32_t>(std::lround(config.val_fraction * n));
  std::vector<int32_t> train(perm.begin(), perm.begin() + n_train);
  std::vector<int32_t> val(perm.begin() + n_train,
                           perm.begin() + n_train + n_val);
  std::vector<int32_t> test(perm.begin() + n_train + n_val, perm.end());
  return sink.SetSplit(train, val, test);
}

}  // namespace

Result<HeteroGraph> Generate(const SchemaConfig& config, uint64_t seed,
                             exec::ExecContext* ctx) {
  HeapSink sink;
  FREEHGC_RETURN_IF_ERROR(GenerateCore(config, seed, ctx, sink));
  FREEHGC_RETURN_IF_ERROR(sink.g.Validate());
  return std::move(sink.g);
}

Result<V3WriteSummary> GenerateToV3(const SchemaConfig& config,
                                    uint64_t seed, const std::string& path,
                                    exec::ExecContext* ctx) {
  FREEHGC_ASSIGN_OR_RETURN(HeteroGraphV3Writer writer,
                           HeteroGraphV3Writer::Create(path));
  V3Sink sink(std::move(writer));
  FREEHGC_RETURN_IF_ERROR(GenerateCore(config, seed, ctx, sink));
  return sink.Finish();
}

namespace {

int32_t Scaled(int32_t base, double scale) {
  return std::max<int32_t>(4, static_cast<int32_t>(std::lround(base * scale)));
}

SchemaConfig AcmConfig(double scale) {
  SchemaConfig c;
  c.name = "acm";
  c.types = {{"paper", Scaled(3000, scale), 64},
             {"author", Scaled(6000, scale), 64},
             {"subject", Scaled(60, scale), 32},
             {"term", Scaled(1800, scale), 32}};
  c.relations = {{"pp_cite", "paper", "paper", 4.0, 0.75},
                 {"pa", "paper", "author", 3.0, 0.85},
                 {"ps", "paper", "subject", 1.0, 0.9},
                 {"pt", "paper", "term", 6.0, 0.7}};
  c.target = "paper";
  c.num_classes = 3;
  c.feature_noise = 2.0;
  c.feature_noise_other = 1.2;
  c.label_flip_fraction = 0.05;
  return c;
}

SchemaConfig DblpConfig(double scale) {
  SchemaConfig c;
  c.name = "dblp";
  c.types = {{"author", Scaled(2000, scale), 64},
             {"paper", Scaled(7000, scale), 64},
             {"term", Scaled(4000, scale), 32},
             {"venue", Scaled(20, scale), 16}};
  c.relations = {{"ap", "author", "paper", 4.0, 0.9},
                 {"pt", "paper", "term", 5.0, 0.7},
                 {"pv", "paper", "venue", 1.0, 0.9}};
  c.target = "author";
  c.num_classes = 4;
  c.feature_noise = 1.5;
  c.feature_noise_other = 1.2;
  c.label_flip_fraction = 0.04;
  return c;
}

SchemaConfig ImdbConfig(double scale) {
  SchemaConfig c;
  c.name = "imdb";
  c.types = {{"movie", Scaled(2500, scale), 64},
             {"director", Scaled(1200, scale), 32},
             {"actor", Scaled(3000, scale), 32},
             {"keyword", Scaled(4000, scale), 32}};
  c.relations = {{"md", "movie", "director", 1.0, 0.8},
                 {"ma", "movie", "actor", 3.0, 0.7},
                 {"mk", "movie", "keyword", 5.0, 0.6}};
  c.target = "movie";
  c.num_classes = 5;
  // IMDB is the hardest HGB dataset (whole-graph accuracy ~68%); use
  // heavier feature noise and weaker affinity to mirror that.
  c.feature_noise = 2.5;
  c.feature_noise_other = 2.0;
  c.class_confusion = 0.42;
  return c;
}

SchemaConfig FreebaseConfig(double scale) {
  SchemaConfig c;
  c.name = "freebase";
  c.types = {{"book", Scaled(4000, scale), 48},
             {"film", Scaled(3000, scale), 48},
             {"music", Scaled(2500, scale), 48},
             {"sports", Scaled(1500, scale), 48},
             {"people", Scaled(3500, scale), 48},
             {"location", Scaled(1500, scale), 48},
             {"organization", Scaled(1200, scale), 48},
             {"business", Scaled(1300, scale), 48}};
  // A web of relations (reverses are added automatically, giving the
  // 30+ edge types of the real Freebase subset).
  c.relations = {{"bb", "book", "book", 2.5, 0.8},
                 {"bf", "book", "film", 1.5, 0.75},
                 {"bp", "book", "people", 2.0, 0.8},
                 {"bo", "book", "organization", 1.0, 0.7},
                 {"bl", "book", "location", 1.0, 0.6},
                 {"bm", "book", "music", 1.2, 0.7},
                 {"fp", "film", "people", 3.0, 0.7},
                 {"fm", "film", "music", 1.5, 0.6},
                 {"fl", "film", "location", 1.0, 0.6},
                 {"mp", "music", "people", 2.0, 0.7},
                 {"sp", "sports", "people", 2.5, 0.7},
                 {"sl", "sports", "location", 1.0, 0.6},
                 {"pl", "people", "location", 1.5, 0.6},
                 {"po", "people", "organization", 1.5, 0.6},
                 {"ob", "organization", "business", 1.5, 0.7},
                 {"lb", "location", "business", 1.0, 0.6},
                 {"pb", "people", "business", 1.0, 0.6},
                 {"ss", "sports", "sports", 1.5, 0.8}};
  c.target = "book";
  c.num_classes = 7;
  c.feature_noise = 2.5;
  c.feature_noise_other = 1.8;
  c.class_confusion = 0.45;
  return c;
}

SchemaConfig AminerConfig(double scale) {
  SchemaConfig c;
  c.name = "aminer";
  // Paper: 4.89M nodes (author/paper/venue), 2 edge types. Scaled to ~111k
  // nodes so the full pipeline runs on one core; the author:paper:venue
  // ratio and the 2-relation schema are preserved.
  c.types = {{"author", Scaled(60000, scale), 32},
             {"paper", Scaled(50000, scale), 32},
             {"venue", Scaled(1000, scale), 16}};
  c.relations = {{"ap", "author", "paper", 3.0, 0.85},
                 {"pv", "paper", "venue", 1.0, 0.9}};
  c.target = "author";
  c.num_classes = 8;
  c.feature_noise = 1.5;
  c.feature_noise_other = 1.0;
  c.class_confusion = 0.06;
  return c;
}

SchemaConfig MutagConfig(double scale) {
  SchemaConfig c;
  c.name = "mutag";
  c.types = {{"d", Scaled(3000, scale), 32},
             {"atom", Scaled(5000, scale), 32},
             {"bond", Scaled(6000, scale), 16},
             {"element", Scaled(50, scale), 16},
             {"structure", Scaled(1000, scale), 16},
             {"charge", Scaled(20, scale), 8},
             {"misc", Scaled(2000, scale), 16}};
  // 23 base relations -> 46 edge types with reverses, matching Table II.
  c.relations = {{"da", "d", "atom", 4.0, 0.8},
                 {"db", "d", "bond", 4.0, 0.7},
                 {"ds", "d", "structure", 1.5, 0.8},
                 {"dm", "d", "misc", 1.0, 0.6},
                 {"ab", "atom", "bond", 2.0, 0.7},
                 {"ae", "atom", "element", 1.0, 0.9},
                 {"ac", "atom", "charge", 1.0, 0.8},
                 {"as", "atom", "structure", 1.0, 0.6},
                 {"bs", "bond", "structure", 1.0, 0.6},
                 {"bm", "bond", "misc", 1.0, 0.5},
                 {"se", "structure", "element", 1.0, 0.6},
                 {"sm", "structure", "misc", 1.0, 0.5},
                 {"em", "element", "misc", 1.0, 0.5},
                 {"dd", "d", "d", 1.5, 0.8},
                 {"aa", "atom", "atom", 1.5, 0.7},
                 {"d_e", "d", "element", 1.0, 0.7},
                 {"d_c", "d", "charge", 1.0, 0.7},
                 {"a_m", "atom", "misc", 1.0, 0.5},
                 {"b_e", "bond", "element", 1.0, 0.6},
                 {"b_c", "bond", "charge", 1.0, 0.6},
                 {"s_c", "structure", "charge", 1.0, 0.5},
                 {"m_m", "misc", "misc", 1.0, 0.5},
                 {"e_c", "element", "charge", 1.0, 0.5}};
  c.target = "d";
  c.num_classes = 2;
  c.feature_noise = 2.0;
  c.feature_noise_other = 2.0;
  c.class_confusion = 0.38;
  return c;
}

SchemaConfig AmConfig(double scale) {
  SchemaConfig c;
  c.name = "am";
  c.types = {{"proxy", Scaled(5000, scale), 32},
             {"artifact", Scaled(12000, scale), 32},
             {"material", Scaled(300, scale), 16},
             {"technique", Scaled(200, scale), 16},
             {"agent", Scaled(3000, scale), 16},
             {"place", Scaled(500, scale), 16},
             {"period", Scaled(100, scale), 8}};
  c.relations = {{"px_af", "proxy", "artifact", 2.0, 0.8},
                 {"px_ag", "proxy", "agent", 1.0, 0.7},
                 {"px_pl", "proxy", "place", 1.0, 0.6},
                 {"px_pd", "proxy", "period", 1.0, 0.7},
                 {"px_ma", "proxy", "material", 1.0, 0.8},
                 {"px_te", "proxy", "technique", 1.0, 0.8},
                 {"af_ma", "artifact", "material", 1.5, 0.8},
                 {"af_te", "artifact", "technique", 1.0, 0.7},
                 {"af_ag", "artifact", "agent", 1.5, 0.7},
                 {"af_pl", "artifact", "place", 1.0, 0.6},
                 {"af_pd", "artifact", "period", 1.0, 0.6},
                 {"ag_pl", "agent", "place", 1.0, 0.6},
                 {"ag_pd", "agent", "period", 1.0, 0.6},
                 {"ma_te", "material", "technique", 1.0, 0.5},
                 {"pl_pd", "place", "period", 1.0, 0.5},
                 {"af_af", "artifact", "artifact", 1.5, 0.7},
                 {"px_px", "proxy", "proxy", 1.0, 0.8},
                 {"ag_ag", "agent", "agent", 1.0, 0.6}};
  c.target = "proxy";
  c.num_classes = 11;
  c.feature_noise = 2.0;
  c.feature_noise_other = 1.2;
  c.class_confusion = 0.12;
  return c;
}

SchemaConfig ToyConfig() {
  SchemaConfig c;
  c.name = "toy";
  c.types = {{"t", 60, 8}, {"f", 40, 8}, {"l", 50, 8}};
  c.relations = {{"tf", "t", "f", 2.0, 0.8}, {"fl", "f", "l", 2.0, 0.8}};
  c.target = "t";
  c.num_classes = 3;
  c.train_fraction = 0.4;
  c.val_fraction = 0.1;
  return c;
}

HeteroGraph MustGenerate(const SchemaConfig& c, uint64_t seed,
                         exec::ExecContext* ctx) {
  auto g = Generate(c, seed, ctx);
  FREEHGC_CHECK(g.ok());
  return std::move(g).value();
}

}  // namespace

Result<SchemaConfig> PresetConfig(const std::string& name, double scale) {
  if (name == "acm") return AcmConfig(scale);
  if (name == "dblp") return DblpConfig(scale);
  if (name == "imdb") return ImdbConfig(scale);
  if (name == "freebase") return FreebaseConfig(scale);
  if (name == "aminer") return AminerConfig(scale);
  if (name == "mutag") return MutagConfig(scale);
  if (name == "am") return AmConfig(scale);
  if (name == "toy") return ToyConfig();
  return Status::NotFound("unknown dataset: " + name);
}

HeteroGraph MakeAcm(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(AcmConfig(scale), seed, ctx);
}

HeteroGraph MakeDblp(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(DblpConfig(scale), seed, ctx);
}

HeteroGraph MakeImdb(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(ImdbConfig(scale), seed, ctx);
}

HeteroGraph MakeFreebase(uint64_t seed, double scale,
                         exec::ExecContext* ctx) {
  return MustGenerate(FreebaseConfig(scale), seed, ctx);
}

HeteroGraph MakeAminer(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(AminerConfig(scale), seed, ctx);
}

HeteroGraph MakeMutag(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(MutagConfig(scale), seed, ctx);
}

HeteroGraph MakeAm(uint64_t seed, double scale, exec::ExecContext* ctx) {
  return MustGenerate(AmConfig(scale), seed, ctx);
}

HeteroGraph MakeToy(uint64_t seed) {
  return MustGenerate(ToyConfig(), seed, nullptr);
}

Result<HeteroGraph> MakeByName(const std::string& name, uint64_t seed,
                               double scale, exec::ExecContext* ctx) {
  FREEHGC_ASSIGN_OR_RETURN(SchemaConfig c, PresetConfig(name, scale));
  return Generate(c, seed, ctx);
}

int RecommendedHops(const std::string& name) {
  if (name == "acm") return 3;
  if (name == "dblp") return 4;
  if (name == "imdb") return 3;  // paper uses 5; capped for 1-core runs
  if (name == "freebase") return 2;
  if (name == "mutag") return 1;
  if (name == "am") return 1;
  if (name == "aminer") return 2;
  return 2;
}

}  // namespace freehgc::datasets
