#ifndef FREEHGC_SERVE_GRAPH_STORE_H_
#define FREEHGC_SERVE_GRAPH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "obs/metrics.h"

namespace freehgc::serve {

/// Catalog entry for one resident graph.
struct GraphInfo {
  std::string name;
  /// HeteroGraph::ContentFingerprint of the resident copy — the identity
  /// the scheduler and ArtifactCache key on.
  uint64_t fingerprint = 0;
  int64_t nodes = 0;
  int64_t edges = 0;
  /// Approximate logical bytes (HeteroGraph::MemoryBytes) — identical for
  /// heap and mapped residents.
  size_t memory_bytes = 0;
  /// True when the resident copy's CSR/feature arrays view a mapped v3
  /// container (pages live in the page cache, not the heap).
  bool mapped = false;
  /// Backing container path for mapped graphs; empty for heap residents.
  std::string source_path;
  /// False when the entry is currently evicted under the residency
  /// budget (mapping dropped, spool path kept) — the next Get re-maps it
  /// transparently.
  bool resident = true;
};

/// Registry of resident HeteroGraphs, the serving layer's object store:
/// graphs enter once (uploaded as a v3 container or built by
/// a named synthetic generator) and every request against the same name
/// shares the one immutable copy through a stable shared_ptr — in-process
/// vineyard-style object sharing. A reference stays valid for as long as
/// the caller holds it, even past the store itself (in-flight requests
/// keep the graph alive).
///
/// Thread-safe. Registration is idempotent on identical content: a name
/// collision with the same fingerprint returns the existing entry, a
/// collision with different content is FailedPrecondition (a resident
/// graph never changes under a request's feet).
///
/// The store's own registry (metrics()) is the only store of its
/// numbers: the serve.store.{graphs,bytes} and store.{resident_bytes,
/// mapped_resident_bytes,resident_budget_bytes} gauges, the
/// store.{evictions,remaps} counters and the store.load.{heap,mapped}_ns
/// histograms. Count(), Evictions() and the byte accessors read it; every
/// mutation refreshes the gauges under the store lock.
class GraphStore {
 public:
  using GraphRef = std::shared_ptr<const HeteroGraph>;

  GraphStore() : m_(metrics_) {}
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Registers an already-built graph under `name`.
  Result<GraphInfo> Register(const std::string& name, HeteroGraph graph);

  /// Registers a graph from a SerializeHeteroGraph container (the upload
  /// path). The bytes are verified once: every section CRC, Validate,
  /// and the content fingerprint recomputed from content, never taken
  /// from the untrusted header. Corrupt or truncated payloads, and a
  /// header fingerprint that disagrees with the recompute, are
  /// InvalidArgument; nothing is registered. Without a spool dir the
  /// graph adopts the container (AdoptHeteroGraph): this overload copies
  /// it once into an aligned buffer. With a spool dir the verified bytes
  /// are published verbatim as `<fingerprint>.fhgc` and registered
  /// mapped, so the resident arrays are page-cache-backed and evictable.
  Result<GraphInfo> RegisterSerialized(const std::string& name,
                                       std::string_view container);

  /// RegisterSerialized over bytes that `owner` keeps alive and
  /// unchanged, such as a received wire frame. An 8-byte-aligned
  /// container is then adopted in place: the graph's arrays view it and
  /// pin `owner`, with no copy at all.
  Result<GraphInfo> RegisterSerialized(const std::string& name,
                                       std::string_view container,
                                       std::shared_ptr<const void> owner);

  /// Registers the v3 container at `path` as a mapped (zero-copy)
  /// resident graph. Every section CRC is verified, after which the
  /// container's stored content fingerprint is trusted and seeds the
  /// graph's ContentFingerprint memo (here and on every re-map) — mapped
  /// registration skips the full-graph hash pass an upload pays. The
  /// entry's shared_ptr keeps the mapping alive, even past the store.
  Result<GraphInfo> RegisterMappedFile(const std::string& name,
                                       const std::string& path);

  /// Enables spool-on-upload (see RegisterSerialized). Creates `dir` if
  /// missing; spooled containers are left behind on shutdown so a
  /// restarted server can re-register them with RegisterMappedFile.
  Status SetSpoolDir(const std::string& dir);

  /// Registers `preset` (datasets::MakeByName: "acm", "toy", ...) built
  /// deterministically under (seed, scale). scale <= 0 uses the preset's
  /// repo default.
  Result<GraphInfo> RegisterGenerator(const std::string& name,
                                      const std::string& preset,
                                      uint64_t seed, double scale,
                                      exec::ExecContext* ctx = nullptr);

  /// Caps the bytes mapped graphs may keep resident (page-cache working
  /// set, by GraphInfo::memory_bytes). When an insert or re-map pushes
  /// past the budget, cold mapped graphs are evicted LRU-first: the
  /// mapping is advised MADV_DONTNEED and dropped, the spool path is
  /// kept, and the next Get re-maps transparently. Graphs with an
  /// outstanding reference (in-flight requests) are never evicted, and
  /// heap-resident graphs have no spool path to restore from, so only
  /// mapped entries participate. SIZE_MAX (the default) disables
  /// eviction.
  void SetResidentBudget(size_t bytes);

  /// Shared reference to a resident graph. NotFound when `name` is not
  /// registered. Touches the entry's LRU stamp; an entry evicted under
  /// the residency budget is re-mapped from its spool path first (the
  /// stored fingerprint is re-verified, so a swapped file is an error,
  /// not a silent content change).
  Result<GraphRef> Get(const std::string& name);

  /// Catalog entry for `name`.
  Result<GraphInfo> Info(const std::string& name) const;

  /// All resident graphs, sorted by name.
  std::vector<GraphInfo> List() const;

  /// Registered graphs / their bytes: the serve.store.{graphs,bytes}
  /// gauges.
  int64_t Count() const { return m_.graphs.Value(); }
  size_t TotalBytes() const { return GaugeBytes(m_.bytes); }

  /// Resident graphs backed by mapped containers.
  int64_t MappedCount() const;

  /// Heap bytes actually owned by resident graphs (mapped arrays live in
  /// the page cache and are excluded) — the store.resident_bytes gauge.
  size_t ResidentBytes() const { return GaugeBytes(m_.resident_bytes); }

  /// Bytes of mapped graphs currently resident (what SetResidentBudget
  /// constrains) — the store.mapped_resident_bytes gauge.
  size_t MappedResidentBytes() const {
    return GaugeBytes(m_.mapped_resident_bytes);
  }

  /// Mapped graphs evicted under the residency budget so far
  /// (store.evictions).
  int64_t Evictions() const { return m_.evictions.Value(); }

  /// This store's registry, the only store of its numbers. Per instance,
  /// so two stores in one process never mix their counts.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Entry {
    GraphRef graph;
    GraphInfo info;
    /// HeteroGraph::ResidentHeapBytes at registration (immutable after).
    size_t resident_bytes = 0;
    /// Keepalive for the backing container of mapped graphs; reset on
    /// eviction (the graph's own views hold it too, so in-flight
    /// references survive).
    std::shared_ptr<const MappedFile> mapping;
    /// LRU stamp (monotonic Get/insert counter).
    uint64_t tick = 0;
  };

  Result<GraphInfo> Insert(const std::string& name, HeteroGraph graph,
                           uint64_t fingerprint, std::string source_path,
                           std::shared_ptr<const MappedFile> mapping);
  /// Evicts LRU mapped graphs until the mapped-resident total fits the
  /// budget; `protect` (may be null) is never evicted. Callers hold mu_.
  void TrimLocked(const Entry* protect);
  size_t MappedResidentLocked() const;  // callers hold mu_
  void UpdateGauges();                  // callers hold mu_
  static size_t GaugeBytes(const obs::Gauge& g) {
    return static_cast<size_t>(g.Value());
  }

  /// Cached references into metrics_, registered at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& reg);
    obs::Gauge& graphs;
    obs::Gauge& bytes;
    obs::Gauge& resident_bytes;
    obs::Gauge& mapped_resident_bytes;
    obs::Gauge& resident_budget_bytes;
    obs::Counter& evictions;
    obs::Counter& remaps;
    obs::Histogram& load_heap_ns;
    obs::Histogram& load_mapped_ns;
  };

  obs::MetricsRegistry metrics_;
  Metrics m_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> graphs_;
  std::string spool_dir_;  // empty = spool-on-upload disabled
  size_t resident_budget_ = SIZE_MAX;
  uint64_t tick_ = 0;
};

/// Orphan-spool garbage collection for a server spool directory: removes
/// `*.spill` and `*.tmp` files (spill files are keyed by in-process cache
/// state, so across a restart they are all orphans) and any `*.fhgc`
/// container whose header fingerprint does not match its
/// `<fingerprint>.fhgc` name (corrupt, truncated, or foreign files).
/// Well-named containers are kept for RegisterMappedFile. Returns the
/// number of files removed.
Result<int> SweepSpoolDir(const std::string& dir);

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_GRAPH_STORE_H_
