#include "pipeline/artifact_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "graph/section_io.h"
#include "hgnn/feature_spill.h"
#include "obs/metrics.h"

namespace freehgc::pipeline {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

/// Hash of an entry key, stored in the spool-file header so a file can be
/// matched back to its slot (and recognized by the orphan GC) without
/// payload IO.
template <typename... Fields>
uint64_t KeyHash(const std::tuple<Fields...>& key) {
  uint64_t h = kFnvOffset;
  std::apply(
      [&h](const Fields&... f) {
        ((h = Mix(h, static_cast<uint64_t>(f))), ...);
      },
      key);
  return h;
}

size_t OwnedBytes(const CsrMatrix& m) { return m.OwnedBytes(); }

size_t OwnedBytes(const hgnn::PropagatedFeatures& f) {
  size_t bytes = 0;
  for (const auto& b : f.blocks) bytes += b.OwnedBytes();
  return bytes;
}

obs::Counter& HitCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.hits");
  return c;
}

obs::Counter& MissCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.misses");
  return c;
}

obs::Counter& SpillCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.spills");
  return c;
}

obs::Counter& RestoreCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.restores");
  return c;
}

obs::Counter& SpillBytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.cache.spill_bytes");
  return c;
}

obs::Gauge& BytesGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cache.bytes");
  return g;
}

obs::Gauge& ResidentGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "pipeline.cache.resident_bytes");
  return g;
}

obs::Gauge& BudgetGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cache.budget_bytes");
  return g;
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
  uint64_t h = kFnvOffset;
  for (RelationId r : p.relations) {
    h = Mix(h, static_cast<uint64_t>(r) + 1);
  }
  return h;
}

uint64_t PathListSignature(const std::vector<MetaPath>& paths) {
  uint64_t h = kFnvOffset;
  h = Mix(h, static_cast<uint64_t>(paths.size()));
  for (const MetaPath& p : paths) {
    h = Mix(h, PathSignature(p));
  }
  return h;
}

uint64_t ConfigSignature(const hgnn::HgnnConfig& config) {
  uint64_t h = kFnvOffset;
  h = Mix(h, static_cast<uint64_t>(config.kind));
  h = Mix(h, static_cast<uint64_t>(config.hidden));
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(config.dropout));
  std::memcpy(&bits, &config.dropout, sizeof(bits));
  h = Mix(h, bits);
  std::memcpy(&bits, &config.lr, sizeof(bits));
  h = Mix(h, bits);
  h = Mix(h, static_cast<uint64_t>(config.epochs));
  h = Mix(h, static_cast<uint64_t>(config.patience));
  h = Mix(h, config.seed);
  return h;
}

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
  BudgetGauge().Set(
      opts.resident_bytes_budget == SIZE_MAX
          ? 0
          : static_cast<int64_t>(opts.resident_bytes_budget));
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
      RecordHit();
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
      FREEHGC_LOG(Warning) << "artifact restore failed (" << spilled_path
                           << "): " << restored.status().message()
                           << "; recomputing";
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
    AddResident(e.owned_bytes);
    e.tick = ++tick_;
    if (!miss) {
      ++stats_.restores;
      RestoreCounter().Increment();
      RecordHit();
    } else {
      RecordMiss();
      if (!got.spill_path.empty()) {
        // Spool-through build: the file already is this entry's spill
        // copy.
        e.spill_path = got.spill_path;
        ++stats_.spills;
        stats_.spill_bytes += got.file_bytes;
        SpillCounter().Increment();
        SpillBytesCounter().Add(static_cast<int64_t>(got.file_bytes));
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
      adjacencies_, key,
      [](const std::string& path)
          -> Result<std::shared_ptr<const CsrMatrix>> {
        FREEHGC_ASSIGN_OR_RETURN(CsrMatrix m, section_io::MapCsrSpill(path));
        return std::make_shared<const CsrMatrix>(std::move(m));
      },
      [&] {
        Built<CsrMatrix> out;
        out.value = ComposedAdjacency(nullptr, g, p, max_row_nnz, ctx, rows);
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
      RecordHit();
      return it->second;
    }
  }
  const hgnn::EvalMetrics metrics = hgnn::WholeGraphBaseline(ctx, config, ex);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = baselines_.emplace(key, metrics);
  RecordMiss();
  if (inserted) {
    stats_.bytes += sizeof(hgnn::EvalMetrics);
    UpdateByteGauges();
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
  size_t projected = stats_.resident_bytes;
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
    if (job.is_adj) {
      AdjEntry& e = adjacencies_[job.akey];
      e.spilling = false;
      if (written.ok()) {
        e.spill_path = job.path;
        e.value.reset();
        stats_.resident_bytes -= e.owned_bytes;
        stats_.bytes -= e.owned_bytes;
        e.owned_bytes = 0;
      }
    } else {
      PropEntry& e = propagated_[job.pkey];
      e.spilling = false;
      if (written.ok()) {
        e.spill_path = job.path;
        e.value.reset();
        stats_.resident_bytes -= e.owned_bytes;
        stats_.bytes -= e.owned_bytes;
        e.owned_bytes = 0;
      }
    }
    if (written.ok()) {
      ++stats_.spills;
      stats_.spill_bytes += *written;
      SpillCounter().Increment();
      SpillBytesCounter().Add(static_cast<int64_t>(*written));
      UpdateByteGauges();
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
    if (!spill_enabled_ ||
        stats_.resident_bytes <= spill_.resident_bytes_budget) {
      return;
    }
    jobs = PlanEvictions();
  }
  if (!jobs.empty()) ExecuteEvictions(std::move(jobs));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
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
  stats_ = Stats{};
  tick_ = 0;
  BytesGauge().Set(0);
  ResidentGauge().Set(0);
}

void ArtifactCache::RecordHit() {
  ++stats_.hits;
  HitCounter().Increment();
}

void ArtifactCache::RecordMiss() {
  ++stats_.misses;
  MissCounter().Increment();
}

void ArtifactCache::UpdateByteGauges() {
  BytesGauge().Set(static_cast<int64_t>(stats_.bytes));
  ResidentGauge().Set(static_cast<int64_t>(stats_.resident_bytes));
}

void ArtifactCache::AddResident(size_t bytes) {
  stats_.resident_bytes += bytes;
  stats_.bytes += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  UpdateByteGauges();
}

}  // namespace freehgc::pipeline
