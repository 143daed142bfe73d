#include "pipeline/artifact_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/content_hash.h"
#include "common/logging.h"
#include "graph/section_io.h"
#include "hgnn/feature_spill.h"
#include "obs/metrics.h"
#include "sparse/ops.h"

namespace freehgc::pipeline {

namespace {

/// Mixed into a path group's signature to key its diversity entry apart
/// from every adjacency in the same map.
constexpr uint64_t kDiversityDomain = 0x64697665727369ULL;  // "diversi"
/// Mixed into a path's signature to key its NIM block apart from the
/// path's composed adjacencies.
constexpr uint64_t kNimBlockDomain = 0x6e696d626c6f636bULL;  // "nimblock"

/// ContentHash over a fixed list of 64-bit words.
template <typename... Words>
uint64_t HashWords(const Words&... words) {
  ContentHash h;
  (h.Pod(static_cast<uint64_t>(words)), ...);
  return h.Digest();
}

/// Hash of an entry key, stored in the spool-file header so a file can be
/// matched back to its slot (and recognized by the orphan GC) without
/// payload IO.
template <typename... Fields>
uint64_t KeyHash(const std::tuple<Fields...>& key) {
  return std::apply(HashWords<Fields...>, key);
}

size_t OwnedBytes(const CsrMatrix& m) { return m.OwnedBytes(); }

size_t OwnedBytes(const hgnn::PropagatedFeatures& f) {
  size_t bytes = 0;
  for (const auto& b : f.blocks) bytes += b.OwnedBytes();
  return bytes;
}

/// Restores a spilled adjacency or diversity entry as a mapped view.
Result<std::shared_ptr<const CsrMatrix>> MapCsrEntry(const std::string& path) {
  FREEHGC_ASSIGN_OR_RETURN(CsrMatrix m, section_io::MapCsrSpill(path));
  return std::make_shared<const CsrMatrix>(std::move(m));
}

std::string HexKeyPath(const std::string& dir, const char* prefix,
                       uint64_t fingerprint, uint64_t signature,
                       int64_t max_row_nnz) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/%s-%016llx-%016llx-%lld.spill", prefix,
                static_cast<unsigned long long>(fingerprint),
                static_cast<unsigned long long>(signature),
                static_cast<long long>(max_row_nnz));
  return dir + buf;
}

}  // namespace

uint64_t PathSignature(const MetaPath& p) {
  ContentHash h;
  for (RelationId r : p.relations) {
    h.Pod(static_cast<uint64_t>(r) + 1);
  }
  return h.Digest();
}

uint64_t PathListSignature(const std::vector<MetaPath>& paths) {
  ContentHash h;
  h.Pod(static_cast<uint64_t>(paths.size()));
  for (const MetaPath& p : paths) {
    h.Pod(PathSignature(p));
  }
  return h.Digest();
}

uint64_t ConfigSignature(const hgnn::HgnnConfig& config) {
  uint32_t dropout_bits, lr_bits;
  static_assert(sizeof(dropout_bits) == sizeof(config.dropout));
  std::memcpy(&dropout_bits, &config.dropout, sizeof(dropout_bits));
  std::memcpy(&lr_bits, &config.lr, sizeof(lr_bits));
  return HashWords(config.kind, config.hidden, dropout_bits, lr_bits,
                   config.epochs, config.patience, config.seed);
}

ArtifactCache::Metrics::Metrics(obs::MetricsRegistry& reg)
    : hits(reg.GetCounter("pipeline.cache.hits")),
      misses(reg.GetCounter("pipeline.cache.misses")),
      spills(reg.GetCounter("pipeline.cache.spills")),
      restores(reg.GetCounter("pipeline.cache.restores")),
      spill_bytes(reg.GetCounter("pipeline.cache.spill_bytes")),
      bytes(reg.GetGauge("pipeline.cache.bytes")),
      resident_bytes(reg.GetGauge("pipeline.cache.resident_bytes")),
      peak_resident_bytes(reg.GetGauge("pipeline.cache.peak_resident_bytes")),
      budget_bytes(reg.GetGauge("pipeline.cache.budget_bytes")) {}

ArtifactCache::~ArtifactCache() { Clear(); }

Status ArtifactCache::ConfigureSpill(const SpillOptions& opts) {
  if (opts.spill_dir.empty()) {
    return Status::InvalidArgument("spill_dir must be non-empty");
  }
  if (::mkdir(opts.spill_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir(" + opts.spill_dir + "): " +
                            std::string(std::strerror(errno)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  spill_ = opts;
  spill_enabled_ = true;
  SetBudgetGauge();
  return Status::OK();
}

std::string ArtifactCache::AdjSpillPath(const AdjKey& key) const {
  const auto& [fp, sig, max_row_nnz, rows] = key;
  return HexKeyPath(spill_.spill_dir,
                    rows == RowSet::kTrain ? "adj-train" : "adj", fp, sig,
                    max_row_nnz);
}

std::string ArtifactCache::PropSpillPath(const PropKey& key) const {
  const auto& [fp, sig, max_row_nnz] = key;
  return HexKeyPath(spill_.spill_dir, "prop", fp, sig, max_row_nnz);
}

template <typename T, typename Key, typename Restore, typename Build>
std::shared_ptr<const T> ArtifactCache::GetOrLoad(
    std::map<Key, Entry<T>>& entries, const Key& key, Restore restore,
    Build build, bool* built) {
  if (built != nullptr) *built = false;
  std::string spilled_path;
  {
    std::unique_lock<std::mutex> lock(mu_);
    loaded_.wait(lock, [&] { return !entries[key].loading; });
    Entry<T>& e = entries[key];
    if (e.value != nullptr) {
      m_.hits.Increment();
      e.tick = ++tick_;
      return e.value;
    }
    e.loading = true;
    spilled_path = e.spill_path;
  }
  Built<T> got;
  if (!spilled_path.empty()) {
    // Spill-tier hit: restore as a zero-copy mapped view (bit-identical
    // to the owned entry, ~0 heap — it never needs evicting again).
    Result<std::shared_ptr<const T>> restored = restore(spilled_path);
    if (restored.ok()) {
      got.value = std::move(*restored);
    } else {
      // The file is bad (a CRC mismatch, a truncation): drop it, so the
      // next eviction writes a fresh copy instead of keeping this one.
      FREEHGC_LOG(Warning) << "artifact restore failed (" << spilled_path
                           << "): " << restored.status().message()
                           << "; recomputing";
      std::remove(spilled_path.c_str());
    }
  }
  const bool miss = got.value == nullptr;
  // Build outside the lock: the SpGEMM chain or propagation is the
  // expensive part and must not serialize unrelated lookups.
  if (miss) got = build();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry<T>& e = entries[key];
    e.loading = false;
    e.value = got.value;
    e.owned_bytes = OwnedBytes(*e.value);
    AddResident(static_cast<int64_t>(e.owned_bytes));
    e.tick = ++tick_;
    if (!miss) {
      m_.restores.Increment();
      m_.hits.Increment();
    } else {
      m_.misses.Increment();
      // A spool-through build's file already is this entry's spill copy;
      // any other build has none (a failed restore's file is gone).
      e.spill_path = got.spill_path;
      if (!got.spill_path.empty()) {
        m_.spills.Increment();
        m_.spill_bytes.Add(static_cast<int64_t>(got.file_bytes));
      }
    }
  }
  loaded_.notify_all();
  if (miss) {
    if (built != nullptr) *built = true;
    TrimToBudget();
  }
  return got.value;
}

std::shared_ptr<const CsrMatrix> ArtifactCache::Composed(
    const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
    exec::ExecContext* ctx, RowSet rows) {
  const AdjKey key{FingerprintOf(g), PathSignature(p), max_row_nnz, rows};
  return GetOrLoad(
      adjacencies_, key, MapCsrEntry,
      [&] {
        Built<CsrMatrix> out;
        out.value = std::make_shared<const CsrMatrix>(ComposeAdjacency(
            g, p, max_row_nnz, ctx,
            rows == RowSet::kTrain ? &g.train_index() : nullptr));
        return out;
      },
      nullptr);
}

std::shared_ptr<const CsrMatrix> ArtifactCache::Diversity(
    const HeteroGraph& g, const std::vector<MetaPath>& group,
    int64_t max_row_nnz, exec::ExecContext* ctx) {
  const AdjKey key{FingerprintOf(g),
                   HashWords(PathListSignature(group), kDiversityDomain),
                   max_row_nnz, RowSet::kTrain};
  return GetOrLoad(
      adjacencies_, key, MapCsrEntry,
      [&] {
        std::vector<std::shared_ptr<const CsrMatrix>> pins;
        std::vector<const CsrMatrix*> composed;
        for (const MetaPath& p : group) {
          pins.push_back(Composed(g, p, max_row_nnz, ctx, RowSet::kTrain));
          composed.push_back(pins.back().get());
        }
        Built<CsrMatrix> out;
        out.value = std::make_shared<const CsrMatrix>(
            PathDiversity(g, composed, ctx));
        return out;
      },
      nullptr);
}

std::shared_ptr<const CsrMatrix> ArtifactCache::NimBlock(
    const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
    exec::ExecContext* ctx) {
  const AdjKey key{FingerprintOf(g),
                   HashWords(PathSignature(p), kNimBlockDomain), max_row_nnz,
                   RowSet::kAll};
  return GetOrLoad(
      adjacencies_, key, MapCsrEntry,
      [&] {
        // The composed product dies inside BipartiteBlock's statement,
        // and the raw block is normalized in place: at most the product
        // and one block are live at once.
        CsrMatrix raw = sparse::BipartiteBlock(
            ComposeAdjacency(g, p, max_row_nnz, ctx), ctx);
        Built<CsrMatrix> out;
        out.value = std::make_shared<const CsrMatrix>(
            sparse::SymNormalize(std::move(raw), ctx));
        return out;
      },
      nullptr);
}

std::shared_ptr<const hgnn::PropagatedFeatures> ArtifactCache::Propagated(
    const HeteroGraph& g, const std::vector<MetaPath>& paths,
    int64_t max_row_nnz, exec::ExecContext* ctx, bool* propagated) {
  const PropKey key{FingerprintOf(g), PathListSignature(paths), max_row_nnz};
  auto build = [&] {
    Built<hgnn::PropagatedFeatures> out;
    bool stream;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stream = spill_enabled_ && spill_.resident_bytes_budget != SIZE_MAX;
    }
    if (stream) {
      // Budgeted build: spool each block to disk as it is computed, then
      // map the file back — the whole block set never lives on the heap
      // at once, and the entry is born in its restored (view-backed)
      // form.
      const std::string path = PropSpillPath(key);
      auto write_and_map =
          [&]() -> Result<std::shared_ptr<const hgnn::PropagatedFeatures>> {
        FREEHGC_ASSIGN_OR_RETURN(hgnn::PropagatedSpillWriter w,
                                 hgnn::PropagatedSpillWriter::Create(path));
        int64_t blocks = 0;
        {
          Matrix raw = hgnn::RawFeatureBlock(g, ctx);
          FREEHGC_RETURN_IF_ERROR(w.AddBlock(raw, "raw", g.target_type()));
          ++blocks;
        }
        for (const auto& p : paths) {
          if (!g.HasFeatures(p.end_type())) continue;
          Matrix block = hgnn::PropagateOneBlock(g, p, ctx);
          FREEHGC_RETURN_IF_ERROR(
              w.AddBlock(block, p.Name(g), p.end_type()));
          ++blocks;
        }
        FREEHGC_ASSIGN_OR_RETURN(out.file_bytes, w.Finish(KeyHash(key)));
        hgnn::NoteBlocksPropagated(blocks);
        return hgnn::MapPropagatedSpill(path);
      };
      auto streamed = write_and_map();
      if (streamed.ok()) {
        out.value = std::move(*streamed);
        out.spill_path = path;
        return out;
      }
      FREEHGC_LOG(Warning) << "streamed propagation spill failed (" << path
                           << "): " << streamed.status().message()
                           << "; falling back to in-heap build";
      out.file_bytes = 0;
    }
    out.value = std::make_shared<const hgnn::PropagatedFeatures>(
        hgnn::PropagateAlongPaths(g, paths, max_row_nnz, ctx));
    return out;
  };
  return GetOrLoad(propagated_, key, hgnn::MapPropagatedSpill, build,
                   propagated);
}

hgnn::EvalMetrics ArtifactCache::WholeGraphBaseline(
    const hgnn::EvalContext& ctx, const hgnn::HgnnConfig& config,
    exec::ExecContext* ex) {
  const BaselineKey key{FingerprintOf(*ctx.full), ConfigSignature(config)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) {
      m_.hits.Increment();
      return it->second;
    }
  }
  const hgnn::EvalMetrics metrics = hgnn::WholeGraphBaseline(ctx, config, ex);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = baselines_.emplace(key, metrics);
  m_.misses.Increment();
  if (inserted) {
    m_.bytes.Set(m_.bytes.Value() +
                 static_cast<int64_t>(sizeof(hgnn::EvalMetrics)));
  }
  return it->second;
}

std::vector<ArtifactCache::SpillJob> ArtifactCache::PlanEvictions() {
  // Lock held by caller. Victims: resident owned entries nobody has
  // pinned (use_count()==1 means the cache holds the only reference) and
  // no spool write already in flight. Restored views carry ~0 owned
  // bytes and are skipped by the owned_bytes > 0 test.
  struct Candidate {
    uint64_t tick;
    bool is_adj;
    AdjKey akey;
    PropKey pkey;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, e] : adjacencies_) {
    if (e.value != nullptr && e.owned_bytes > 0 && !e.spilling &&
        e.value.use_count() == 1) {
      candidates.push_back({e.tick, true, key, PropKey{}});
    }
  }
  for (const auto& [key, e] : propagated_) {
    if (e.value != nullptr && e.owned_bytes > 0 && !e.spilling &&
        e.value.use_count() == 1) {
      candidates.push_back({e.tick, false, AdjKey{}, key});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.tick < b.tick;
            });
  std::vector<SpillJob> jobs;
  size_t projected = ResidentBytes();
  for (const Candidate& c : candidates) {
    if (projected <= spill_.resident_bytes_budget) break;
    SpillJob job;
    job.is_adj = c.is_adj;
    if (c.is_adj) {
      AdjEntry& e = adjacencies_[c.akey];
      e.spilling = true;
      job.akey = c.akey;
      job.adj = e.value;
      job.path = e.spill_path.empty() ? AdjSpillPath(c.akey) : e.spill_path;
      job.header_fp = KeyHash(c.akey);
      job.owned_bytes = e.owned_bytes;
    } else {
      PropEntry& e = propagated_[c.pkey];
      e.spilling = true;
      job.pkey = c.pkey;
      job.prop = e.value;
      job.path = e.spill_path.empty() ? PropSpillPath(c.pkey) : e.spill_path;
      job.header_fp = KeyHash(c.pkey);
      job.owned_bytes = e.owned_bytes;
    }
    projected -= job.owned_bytes;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void ArtifactCache::ExecuteEvictions(std::vector<SpillJob> jobs) {
  for (SpillJob& job : jobs) {
    // An entry spilled earlier and re-restored already has a valid spool
    // file; don't rewrite it (the content is immutable).
    struct stat st{};
    const bool have_file = ::stat(job.path.c_str(), &st) == 0;
    Result<uint64_t> written =
        have_file ? Result<uint64_t>(0)
        : job.is_adj
            ? section_io::WriteCsrSpill(*job.adj, job.path, job.header_fp)
            : hgnn::WritePropagatedSpill(*job.prop, job.path, job.header_fp);

    std::lock_guard<std::mutex> lock(mu_);
    auto drop = [&](auto& e) {
      e.spilling = false;
      if (!written.ok()) return;
      e.spill_path = job.path;
      e.value.reset();
      AddResident(-static_cast<int64_t>(e.owned_bytes));
      e.owned_bytes = 0;
    };
    if (job.is_adj) {
      drop(adjacencies_[job.akey]);
    } else {
      drop(propagated_[job.pkey]);
    }
    if (written.ok()) {
      m_.spills.Increment();
      m_.spill_bytes.Add(static_cast<int64_t>(*written));
    } else {
      FREEHGC_LOG(Warning) << "artifact spill failed (" << job.path
                           << "): " << written.status().message()
                           << "; keeping entry resident";
    }
    // job.adj/job.prop (our pins) release outside the lock at loop end.
  }
}

void ArtifactCache::TrimToBudget() {
  std::vector<SpillJob> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spill_enabled_ || ResidentBytes() <= spill_.resident_bytes_budget) {
      return;
    }
    jobs = PlanEvictions();
  }
  if (!jobs.empty()) ExecuteEvictions(std::move(jobs));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = m_.hits.Value();
  s.misses = m_.misses.Value();
  s.bytes = static_cast<size_t>(m_.bytes.Value());
  s.resident_bytes = ResidentBytes();
  s.peak_resident_bytes = static_cast<size_t>(m_.peak_resident_bytes.Value());
  s.spills = m_.spills.Value();
  s.restores = m_.restores.Value();
  s.spill_bytes = static_cast<size_t>(m_.spill_bytes.Value());
  return s;
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, e] : adjacencies_) {
    if (!e.spill_path.empty()) std::remove(e.spill_path.c_str());
  }
  for (const auto& [key, e] : propagated_) {
    if (!e.spill_path.empty()) std::remove(e.spill_path.c_str());
  }
  adjacencies_.clear();
  propagated_.clear();
  baselines_.clear();
  tick_ = 0;
  metrics_.ResetAll();
  SetBudgetGauge();  // configuration, not a count: it survives Clear
}

void ArtifactCache::AddResident(int64_t delta) {
  m_.bytes.Set(m_.bytes.Value() + delta);
  m_.resident_bytes.Set(m_.resident_bytes.Value() + delta);
  m_.peak_resident_bytes.UpdateMax(m_.resident_bytes.Value());
}

void ArtifactCache::SetBudgetGauge() {
  m_.budget_bytes.Set(
      !spill_enabled_ || spill_.resident_bytes_budget == SIZE_MAX
          ? 0
          : static_cast<int64_t>(spill_.resident_bytes_budget));
}

}  // namespace freehgc::pipeline
