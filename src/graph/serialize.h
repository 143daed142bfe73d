#ifndef FREEHGC_GRAPH_SERIALIZE_H_
#define FREEHGC_GRAPH_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "common/status.h"
#include "graph/hetero_graph.h"

namespace freehgc {

// --- The v3 graph container ----------------------------------------------
//
// Every graph the system stores or ships is a version-3 container: a fixed
// 4096-byte header, every array payload in its own page-aligned section,
// and a section table (with per-section CRC-32) at the end. Condensed
// graphs round-trip exactly, so a condensation can be run once and
// shipped. A loaded graph's CSR adjacencies and feature matrices view the
// container's bytes directly, whether those are a file mapping
// (MapHeteroGraph) or an adopted in-memory buffer such as a received
// upload frame (AdoptHeteroGraph): zero copies of
// indptr/indices/values/features; only the small label/split arrays are
// materialized on the heap. The header stores the graph's
// ContentFingerprint (common/content_hash.h), so registration of a
// mapped graph never has to touch the large payload pages beyond CRC
// verification.

/// Serializes `g` in memory to exactly the bytes SaveHeteroGraphV3 writes
/// to disk — the payload of graph uploads, return_graph replies and
/// FetchGraph.
Result<std::string> SerializeHeteroGraph(const HeteroGraph& g);

/// Parses an in-memory v3 container with the same integrity checks as
/// MapHeteroGraph. `bytes` may be transient: they are copied once into an
/// aligned buffer the graph adopts (AdoptHeteroGraph without an owner).
/// Any other version, including the retired 1 and 2, is InvalidArgument
/// naming the version; so are truncation and checksum mismatches. The
/// header fingerprint is not returned: callers that need an identity
/// recompute it from content.
Result<HeteroGraph> DeserializeHeteroGraph(std::string_view bytes);

/// Outcome of writing a v3 container.
struct V3WriteSummary {
  uint64_t fingerprint = 0;  ///< content fingerprint stored in the header
  uint64_t file_bytes = 0;   ///< total container size on disk
  int64_t nodes = 0;         ///< total nodes across types
  int64_t edges = 0;         ///< total directed edges across relations
};

/// Streaming writer for v3 containers. Sections are written to a ".tmp"
/// sibling as they are appended, so a multi-gigabyte graph can be produced
/// without ever materializing it in memory (see datasets::GenerateToV3).
/// Call order: AddNodeType* (all types first), then AddRelation* /
/// feature blocks / SetTarget / SetSplit in any order, then
/// SetContentFingerprint, then Finish (which writes the meta section,
/// section table and header, fsyncs and atomically renames into place).
/// Destroying an unfinished writer deletes the temporary file.
class HeteroGraphV3Writer {
 public:
  static Result<HeteroGraphV3Writer> Create(const std::string& path);
  /// Writes the same bytes into `*out` instead of a file (no fsync or
  /// rename); `out` must outlive the writer.
  static Result<HeteroGraphV3Writer> CreateInMemory(std::string* out);

  HeteroGraphV3Writer(HeteroGraphV3Writer&& other) noexcept;
  HeteroGraphV3Writer& operator=(HeteroGraphV3Writer&& other) noexcept;
  HeteroGraphV3Writer(const HeteroGraphV3Writer&) = delete;
  HeteroGraphV3Writer& operator=(const HeteroGraphV3Writer&) = delete;
  ~HeteroGraphV3Writer();

  /// Registers a node type; all types must be added before relations.
  Status AddNodeType(const std::string& name, int32_t count);

  /// Appends a relation; writes its indptr/indices/values sections now.
  Status AddRelation(const std::string& name, TypeId src, TypeId dst,
                     const CsrMatrix& adj);

  /// Starts the feature matrix of `type`; rows must equal its node count.
  Status BeginFeatures(TypeId type, int64_t rows, int64_t cols);
  /// Appends `num_rows` rows (row-major, cols floats each) to the open
  /// feature block. Rows may arrive in any chunking.
  Status AppendFeatureRows(const float* data, int64_t num_rows);
  /// Closes the feature block; fails if fewer rows arrived than declared.
  Status EndFeatures();

  /// Convenience: writes a whole feature matrix in one call.
  Status AddFeatures(TypeId type, const Matrix& features);

  /// Declares the target type with labels (one per target node).
  Status SetTarget(TypeId type, std::span<const int32_t> labels,
                   int32_t num_classes);

  /// Sets the train/val/test split (requires SetTarget first).
  Status SetSplit(std::span<const int32_t> train,
                  std::span<const int32_t> val,
                  std::span<const int32_t> test);

  /// Records the content fingerprint the header will carry. Required
  /// before Finish; must equal HeteroGraph::ContentFingerprint() of the
  /// graph the sections describe (SaveHeteroGraphV3 guarantees this; the
  /// streaming generator computes it incrementally).
  Status SetContentFingerprint(uint64_t fingerprint);

  /// Writes meta + section table + header, fsyncs, renames into place.
  Result<V3WriteSummary> Finish();

  /// Deletes the temporary file without publishing anything.
  void Abandon();

 private:
  struct Impl;
  explicit HeteroGraphV3Writer(Impl* impl) : impl_(impl) {}
  Impl* impl_ = nullptr;
};

/// Writes `g` as a v3 container (crash-safe, atomic publish).
Result<V3WriteSummary> SaveHeteroGraphV3(const HeteroGraph& g,
                                         const std::string& path);

/// A v3 graph whose arrays view its container's bytes, plus the
/// container metadata that came with it.
struct ContainerGraph {
  HeteroGraph graph;         ///< storage views the container (zero-copy)
  /// Content fingerprint as the header claims it. Trusted only for files
  /// this process spooled; an upload's is checked against a recompute.
  uint64_t fingerprint = 0;
  uint64_t file_bytes = 0;   ///< container size
  /// The underlying mapping (also held by every view inside `graph`);
  /// null for an adopted buffer. Residency managers use it for madvise
  /// hints on cold/hot transitions.
  std::shared_ptr<const MappedFile> mapping;
};

/// How much a map re-checks. kFull verifies every section CRC and then
/// Validates the graph. kStructureOnly checks the header, the section
/// table and each array's shape, but skips the payload CRC pass and
/// Validate: only for a file this process has just written from bytes
/// that already passed both (the spool of a verified upload).
enum class MapCheck { kFull, kStructureOnly };

/// Memory-maps a v3 container. The checks `check` names run before any
/// view is handed out; the mapping stays alive for as long as any copy
/// of the returned graph (or one of its matrices) does.
Result<ContainerGraph> MapHeteroGraphDetailed(
    const std::string& path, MapCheck check = MapCheck::kFull);

/// MapHeteroGraphDetailed without the metadata.
Result<HeteroGraph> MapHeteroGraph(const std::string& path);

/// Parses an in-memory v3 container in place, with MapHeteroGraph's full
/// checks (every section CRC, then Validate). When `bytes` starts on an
/// 8-byte boundary and `owner` is set, the graph's arrays view `bytes`
/// and pin `owner`, which must keep them alive and unchanged. Otherwise
/// the bytes are first copied once into an aligned buffer the graph
/// owns. Either way the graph counts the whole container in
/// ResidentHeapBytes and is not IsMapped. The returned fingerprint is
/// the header's claim, unverified: callers recompute it from content.
Result<ContainerGraph> AdoptHeteroGraph(std::string_view bytes,
                                        std::shared_ptr<const void> owner);

// --- Container inspection -------------------------------------------------

/// One section table entry as reported by InspectContainer.
struct SectionSummary {
  std::string kind;         ///< "meta", "indptr", "indices", ...
  uint32_t index = 0;       ///< relation / type ordinal the section belongs to
  uint64_t offset = 0;      ///< byte offset in the file (4096-aligned)
  uint64_t size = 0;        ///< payload bytes
  uint64_t logical_count = 0;  ///< element count (rows+1, nnz, floats, ...)
  uint32_t stored_crc = 0;  ///< CRC-32 recorded in the table
  bool crc_ok = false;      ///< recomputed CRC matches
};

/// Per-relation structure as recorded in the meta section.
struct RelationSummary {
  std::string name;
  int32_t src_type = -1;
  int32_t dst_type = -1;
  int32_t rows = 0;
  int32_t cols = 0;
  int64_t nnz = 0;
};

/// Header/section-table view of a container, gathered without loading any
/// graph state; every per-section CRC is re-verified over the mapping.
struct ContainerSummary {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  uint64_t fingerprint = 0;
  bool crc_ok = false;       ///< all checksums match
  bool spill = false;        ///< artifact spill file, not a graph container
  std::vector<std::pair<std::string, int64_t>> types;  ///< name, node count
  std::vector<RelationSummary> relations;
  std::vector<SectionSummary> sections;
};

/// Reads header, section table and structural metadata from a v3
/// container, mapping the file for CRC verification (values are never
/// materialized on the heap).
Result<ContainerSummary> InspectContainer(const std::string& path);

/// Inspects an artifact spill file (section_io::SpillFormat) the tiered
/// ArtifactCache writes: section table + CRC verification, `spill` set.
/// InspectContainer dispatches here automatically on the spill magic.
Result<ContainerSummary> InspectSpillFile(const std::string& path);

}  // namespace freehgc

#endif  // FREEHGC_GRAPH_SERIALIZE_H_
