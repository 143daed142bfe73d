#ifndef FREEHGC_PIPELINE_ARTIFACT_CACHE_H_
#define FREEHGC_PIPELINE_ARTIFACT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"
#include "obs/metrics.h"

namespace freehgc::pipeline {

/// Tiered cache of the deterministic, seed/ratio-independent artifacts a
/// sweep (or a serving process) recomputes per cell today: composed
/// meta-path adjacencies (the dominant SpGEMM cost of condensation),
/// each path group's Jaccard diversity (Eq. 7), whole-graph
/// pre-propagated feature blocks, and whole-graph training baselines.
///
/// Keying: every entry is keyed by the graph's 64-bit ContentFingerprint
/// plus the computation's parameters (path signature + max_row_nnz + row
/// set for adjacencies; the group's path-list signature, tagged so it
/// never equals a path signature, + max_row_nnz + row set for
/// diversities, which live in the adjacency map as CsrMatrix entries;
/// path-list signature + max_row_nnz for propagation, whose blocks do
/// not depend on the budget; HgnnConfig signature for baselines). A
/// changed graph changes its fingerprint, so stale entries are
/// unreachable rather than invalidated. Determinism
/// invariant: every cached value is the exact output of a deterministic
/// computation, so runs on a fresh and on a warm cache are bit-identical
/// (tests/pipeline_test.cc) — and so are spilled-and-restored runs
/// (tests/spill_test.cc). FreeHGC's selection stages compose only
/// through an AdjacencyCache, so a miss here is the one place an
/// adjacency or a diversity is computed for them.
///
/// Tiers: by default (no ConfigureSpill) the cache is the classic
/// grow-only heap memo — nothing is ever evicted. With ConfigureSpill it
/// becomes two-tier: a *resident* tier of owned entries accounted by
/// their heap bytes, and a *spill* tier of section spool files
/// (graph/section_io.h) under `spill_dir`. When resident bytes exceed
/// `resident_bytes_budget`, cold unpinned entries are written to spool
/// files (LRU first) and their heap storage dropped; a later lookup
/// restores them as zero-copy mapped views — bit-identical, and costing
/// ~0 heap, so restored entries never need evicting again. Under a
/// finite budget, propagated-feature misses are *streamed*: each block
/// is spooled to disk as it is computed, so the whole PropagatedFeatures
/// never materializes on the heap at once.
///
/// Single flight: Composed, Diversity and Propagated run one computation
/// (or spill restore) per key at a time. Concurrent callers of a key that
/// is being loaded wait for it and count as hits, so two requests that
/// arrive together on a cold graph compose or propagate it once.
///
/// Pinning: Composed/Diversity/Propagated return shared_ptr pins. A
/// pinned entry (use_count > 1) is never spilled; eviction considers it
/// once every outside pin is released. Callers hold the pin across every
/// use of the value and drop it when done (see metapath::AdjacencyCache).
///
/// Thread-safe. The cache's own registry (metrics()) is the only store of
/// its numbers: the pipeline.cache.{hits,misses,spills,restores,
/// spill_bytes} counters and the pipeline.cache.{bytes,resident_bytes,
/// peak_resident_bytes,budget_bytes} gauges. stats() snapshots it.
class ArtifactCache final : public AdjacencyCache {
 public:
  ArtifactCache() : m_(metrics_) {}
  ~ArtifactCache() override;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Tiering configuration. With a finite budget the cache spills; with
  /// the default (SIZE_MAX) it never evicts but may still restore
  /// entries spilled under an earlier, tighter budget.
  struct SpillOptions {
    /// Heap bytes the evictable tiers (adjacencies, diversities and
    /// propagated features) may keep resident. SIZE_MAX = unlimited.
    size_t resident_bytes_budget = SIZE_MAX;
    /// Directory for spool files; created if missing. Must be non-empty.
    std::string spill_dir;
  };

  /// Enables the spill tier. Call before concurrent use (configuration
  /// is not synchronized against in-flight lookups).
  Status ConfigureSpill(const SpillOptions& opts);

  /// True once ConfigureSpill succeeded.
  bool spill_enabled() const { return spill_enabled_; }

  // AdjacencyCache. A RowSet::kTrain entry needs no hash of the pool:
  // the fingerprint already covers the graph's train_index.
  using AdjacencyCache::Composed;
  std::shared_ptr<const CsrMatrix> Composed(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx,
                                            RowSet rows) override;
  /// A miss composes the group's train-pool rows through Composed (hits
  /// once target selection has pinned its paths) and runs PathDiversity
  /// on them.
  std::shared_ptr<const CsrMatrix> Diversity(
      const HeteroGraph& g, const std::vector<MetaPath>& group,
      int64_t max_row_nnz, exec::ExecContext* ctx) override;

  /// Whole-graph propagated feature blocks for (g, paths, max_row_nnz),
  /// the blocks of every cached EvalContext: pipeline::BuildEvalContext
  /// aliases them, holding the returned pin for the context's lifetime.
  /// A miss propagates right to left and composes nothing, so it creates
  /// no Composed entry; the blocks do not depend on max_row_nnz, which
  /// only keys the entry. Under a finite budget, a miss streams blocks
  /// through a spool file instead of materializing them. `propagated`
  /// (optional) reports whether this call ran the propagation (false for
  /// a hit, a restore, or a wait on another caller's build).
  std::shared_ptr<const hgnn::PropagatedFeatures> Propagated(
      const HeteroGraph& g, const std::vector<MetaPath>& paths,
      int64_t max_row_nnz, exec::ExecContext* ctx,
      bool* propagated = nullptr);

  /// Whole-graph train-and-evaluate baseline for (ctx.full, config).
  /// Training is deterministic given config, so the metrics are exact.
  hgnn::EvalMetrics WholeGraphBaseline(const hgnn::EvalContext& ctx,
                                       const hgnn::HgnnConfig& config,
                                       exec::ExecContext* ex);

  /// The graph identity every entry of `g` is keyed by: its
  /// ContentFingerprint, which the graph memoizes itself.
  uint64_t FingerprintOf(const HeteroGraph& g) const {
    return g.ContentFingerprint();
  }

  /// Spills cold unpinned entries until the resident tier fits the
  /// budget. Runs automatically after inserts/restores; exposed so a
  /// caller can trim after releasing pins (inserts made while their
  /// entries were pinned could not evict them).
  void TrimToBudget();

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Resident heap bytes of cached artifacts.
    size_t bytes = 0;
    /// Resident heap bytes of the evictable tiers only (what the budget
    /// constrains; mapped restored views count ~0).
    size_t resident_bytes = 0;
    /// High-water mark of resident_bytes.
    size_t peak_resident_bytes = 0;
    /// Entries written to the spill tier / restored from it.
    int64_t spills = 0;
    int64_t restores = 0;
    /// Cumulative bytes written to spool files.
    size_t spill_bytes = 0;
  };
  Stats stats() const;

  /// This cache's registry, the only store of its pipeline.cache.*
  /// numbers. Per instance, so two caches in one process never mix their
  /// counts.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Drops every entry, unlinks every spool file this cache wrote; the
  /// registry resets too. Not concurrent with lookups.
  void Clear();

 private:
  /// (graph fp, path or tagged group signature, max_row_nnz, row set).
  using AdjKey = std::tuple<uint64_t, uint64_t, int64_t, RowSet>;
  /// (graph fp, path-list signature, max_row_nnz).
  using PropKey = std::tuple<uint64_t, uint64_t, int64_t>;
  /// (graph fp, config signature).
  using BaselineKey = std::pair<uint64_t, uint64_t>;

  /// One evictable entry: resident (value set), spilled (value null,
  /// spill_path set), or being loaded (value null, `loading` set).
  /// `owned_bytes` is the heap cost charged against the budget (0 for
  /// restored mapped views).
  template <typename T>
  struct Entry {
    std::shared_ptr<const T> value;
    std::string spill_path;
    size_t owned_bytes = 0;
    uint64_t tick = 0;    ///< LRU stamp (monotonic touch counter)
    bool spilling = false;  ///< spool write in flight; skip re-planning
    bool loading = false;   ///< one caller restores or computes the value
  };

  /// What a miss built: the value, plus the spool file it was streamed
  /// through (empty for a heap build) and that file's size.
  template <typename T>
  struct Built {
    std::shared_ptr<const T> value;
    std::string spill_path;
    uint64_t file_bytes = 0;
  };
  using AdjEntry = Entry<CsrMatrix>;
  using PropEntry = Entry<hgnn::PropagatedFeatures>;

  /// A planned eviction: the value pointer is copied out under the lock
  /// so the spool write can run without it.
  struct SpillJob {
    bool is_adj = false;
    AdjKey akey{};
    PropKey pkey{};
    std::shared_ptr<const CsrMatrix> adj;
    std::shared_ptr<const hgnn::PropagatedFeatures> prop;
    std::string path;
    uint64_t header_fp = 0;
    size_t owned_bytes = 0;
  };

  /// The single-flight lookup behind Composed, Diversity and Propagated:
  /// a resident entry is a hit; otherwise this caller restores the
  /// spilled copy (`restore(path)`, a hit) or runs `build()` (a miss),
  /// outside the lock, while concurrent callers of `key` wait for it. `built`
  /// (optional) reports whether this call ran `build`.
  template <typename T, typename Key, typename Restore, typename Build>
  std::shared_ptr<const T> GetOrLoad(std::map<Key, Entry<T>>& entries,
                                     const Key& key, Restore restore,
                                     Build build, bool* built);

  /// Moves the bytes and resident_bytes gauges by `delta` and raises
  /// peak_resident_bytes (lock held).
  void AddResident(int64_t delta);
  /// Resident tier size, read from its gauge (lock held).
  size_t ResidentBytes() const {
    return static_cast<size_t>(m_.resident_bytes.Value());
  }
  /// pipeline.cache.budget_bytes: 0 for no budget (lock held).
  void SetBudgetGauge();

  std::string AdjSpillPath(const AdjKey& key) const;
  std::string PropSpillPath(const PropKey& key) const;

  /// Collects LRU victims until the projected resident size fits the
  /// budget (lock held); marks them `spilling`.
  std::vector<SpillJob> PlanEvictions();
  /// Writes the spool files (no lock) and commits the drops.
  void ExecuteEvictions(std::vector<SpillJob> jobs);

  /// Cached references into metrics_, registered at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& reg);
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& spills;
    obs::Counter& restores;
    obs::Counter& spill_bytes;
    obs::Gauge& bytes;
    obs::Gauge& resident_bytes;
    obs::Gauge& peak_resident_bytes;
    obs::Gauge& budget_bytes;
  };

  obs::MetricsRegistry metrics_;
  Metrics m_;
  mutable std::mutex mu_;
  std::condition_variable loaded_;  ///< signalled when a load finishes
  std::map<AdjKey, AdjEntry> adjacencies_;
  std::map<PropKey, PropEntry> propagated_;
  std::map<BaselineKey, hgnn::EvalMetrics> baselines_;
  uint64_t tick_ = 0;
  bool spill_enabled_ = false;
  SpillOptions spill_;
};

/// Order-sensitive 64-bit signature of a meta-path (relation id sequence).
uint64_t PathSignature(const MetaPath& p);

/// Signature of an ordered path list.
uint64_t PathListSignature(const std::vector<MetaPath>& paths);

/// Signature of every HgnnConfig field that affects training results.
uint64_t ConfigSignature(const hgnn::HgnnConfig& config);

}  // namespace freehgc::pipeline

#endif  // FREEHGC_PIPELINE_ARTIFACT_CACHE_H_
