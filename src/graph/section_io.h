#ifndef FREEHGC_GRAPH_SECTION_IO_H_
#define FREEHGC_GRAPH_SECTION_IO_H_

// The page-aligned section-file machinery shared by the v3 graph
// container and the artifact spill files: a fixed 4096-byte header, every
// array payload in its own page-aligned CRC-32-protected section, and a
// trailing ZIP-central-directory-style section table. The layout is the
// one PR 6 froze for v3 containers — this header just makes it reusable,
// parametrized on (magic, version, label), so a single CSR matrix or a
// set of dense feature blocks can be spooled to disk and mapped back as
// zero-copy ArrayRef views with the same integrity guarantees a graph
// container gets.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "common/status.h"
#include "sparse/csr.h"

namespace freehgc::section_io {

/// Section payloads start on 4096-byte boundaries, so a mapped int64/
/// float span is always suitably aligned (mmap returns page-aligned
/// bases).
inline constexpr uint64_t kAlign = 4096;
/// The fixed header page reserved at offset 0.
inline constexpr size_t kHeaderBytes = 4096;
inline constexpr uint32_t kSectionMagic = 0x46534543;  // "FSEC"
inline constexpr uint32_t kMaxSections = 1u << 20;

/// Section kinds. The numbering is shared between the graph container
/// and spill files (INDPTR/INDICES/VALUES index by relation ordinal,
/// FEATURES by type or block ordinal; META/LABELS/TRAIN/VAL/TEST use
/// index 0).
enum Kind : uint32_t {
  kMeta = 1,
  kIndptr = 2,
  kIndices = 3,
  kValues = 4,
  kFeatures = 5,
  kLabels = 6,
  kTrain = 7,
  kVal = 8,
  kTest = 9,
};

/// Human-readable kind name ("meta", "indptr", ...; "unknown" otherwise).
const char* KindName(uint32_t kind);

#pragma pack(push, 1)
/// The fixed file header (layout frozen since the v3 container).
struct FileHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t section_count = 0;
  uint64_t file_size = 0;
  uint64_t table_offset = 0;
  uint64_t table_size = 0;
  uint64_t content_fingerprint = 0;
  uint32_t table_crc = 0;
  uint32_t header_crc = 0;  // CRC-32 of the preceding 52 bytes
};

/// One section table entry (layout frozen since the v3 container).
struct SectionEntry {
  uint32_t magic = kSectionMagic;
  uint32_t kind = 0;
  uint32_t index = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t size = 0;           // payload bytes
  uint64_t logical_count = 0;  // element count (rows+1, nnz, floats, ids)
  uint64_t reserved = 0;
};
#pragma pack(pop)

static_assert(sizeof(FileHeader) == 56, "section file header is frozen");
static_assert(sizeof(SectionEntry) == 48, "section entry layout is frozen");

/// Identifies one concrete section-file format: the magic/version pair
/// the header must carry and the label used in error messages ("v3" for
/// graph containers, "spill" for artifact spool files).
struct Format {
  uint32_t magic = 0;
  uint32_t version = 0;
  /// Error-message prefix for section-level diagnostics ("v3", "spill").
  const char* label = "?";
  /// What the file claims to be, for magic/version mismatch messages
  /// ("v3 graph container", "freehgc spill file").
  const char* describe = "section file";
};

/// The v3 graph container format ("FHGC", version 3).
Format GraphContainerFormat();

/// The artifact spill format ("FSPL", version 1) used by the tiered
/// ArtifactCache for composed adjacencies and propagated feature blocks.
Format SpillFormat();

inline constexpr uint32_t kSpillMagic = 0x4c505346;  // "FSPL"
inline constexpr uint32_t kSpillVersion = 1;

/// Streaming writer for section files, with one of two sinks sharing the
/// same layout code. The file sink appends sections to a ".tmp" sibling;
/// Finish writes the table + header, fsyncs and atomically renames into
/// place, so a killed writer never leaves a torn file under the target
/// name. Destroying an unfinished file writer deletes the temp file. The
/// memory sink appends to a caller-owned string, which after Finish holds
/// exactly the bytes the file sink would have written.
class SectionWriter {
 public:
  static Result<SectionWriter> Create(const std::string& path,
                                      const Format& format);
  /// Writes into `*out` (cleared first); `out` must outlive the writer.
  static Result<SectionWriter> CreateInMemory(std::string* out,
                                              const Format& format);

  SectionWriter(SectionWriter&& other) noexcept;
  SectionWriter& operator=(SectionWriter&& other) noexcept;
  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;
  ~SectionWriter();

  /// Pads to the next page boundary and opens a section.
  Status BeginSection(uint32_t kind, uint32_t index);
  /// Appends payload bytes to the open section (CRC accumulated).
  Status Append(const void* data, size_t n);
  /// Closes the open section, recording its element count.
  Status EndSection(uint64_t logical_count);

  /// BeginSection + Append + EndSection for a whole array.
  template <typename T>
  Status WriteArraySection(uint32_t kind, uint32_t index,
                           std::span<const T> data) {
    FREEHGC_RETURN_IF_ERROR(BeginSection(kind, index));
    FREEHGC_RETURN_IF_ERROR(Append(data.data(), data.size() * sizeof(T)));
    return EndSection(data.size());
  }

  /// Records the content fingerprint the header will carry (required
  /// before Finish).
  Status SetContentFingerprint(uint64_t fingerprint);

  /// OK while the writer is open and unfinished.
  Status CheckOpen() const;

  /// Writes table + header (file sink: fsyncs, renames into place).
  /// Returns the final container size in bytes.
  Result<uint64_t> Finish();

  /// Deletes the temporary file (file sink) without publishing anything.
  void Abandon();

 private:
  SectionWriter() = default;
  struct Impl;
  /// Reserves the header page in the sink and wraps `impl`.
  static Result<SectionWriter> Start(std::unique_ptr<Impl> impl);
  Impl* impl_ = nullptr;
};

/// Writes `bytes` to `path` with the publish SectionWriter's file sink
/// uses: a ".tmp" sibling, fsync, then an atomic rename, so a killed
/// writer never leaves a torn file under `path`.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// A parsed, validated section file: header + section table over either a
/// held mapping (Map) or a caller-owned byte range (Parse). Structural
/// validation (magics, header/table CRCs, alignment, bounds, duplicate
/// detection) happens at construction; payload CRCs are verified
/// separately so callers choose between failing (load) and reporting
/// (inspect).
class SectionView {
 public:
  /// Maps `path` and validates its structure. The mapping is owned by
  /// the view (and by anything that copies keepalive()).
  static Result<SectionView> Map(const std::string& path,
                                 const Format& format);

  /// Validates a caller-owned byte range (no keepalive; spans handed out
  /// borrow `base`).
  static Result<SectionView> Parse(const uint8_t* base, size_t size,
                                   const Format& format);

  /// Section lookup by (kind, index); nullptr when absent.
  const SectionEntry* Find(uint32_t kind, uint32_t index) const;

  /// Locates a section and checks its payload is exactly `count`
  /// elements of `elem_size` bytes.
  Result<const SectionEntry*> RequireArray(uint32_t kind, uint32_t index,
                                           uint64_t count,
                                           size_t elem_size) const;

  /// Verifies one section's payload CRC.
  Status VerifyCrc(const SectionEntry& s) const;

  /// Verifies every payload CRC (sequential pass at CRC speed; on mapped
  /// views the readahead it triggers doubles as a warmup).
  Status VerifyAllCrcs() const;

  template <typename T>
  std::span<const T> Span(const SectionEntry& s) const {
    return {reinterpret_cast<const T*>(base_ + s.offset),
            static_cast<size_t>(s.size / sizeof(T))};
  }

  template <typename T>
  std::vector<T> Copy(const SectionEntry& s) const {
    std::vector<T> v(static_cast<size_t>(s.size / sizeof(T)));
    if (s.size > 0) std::memcpy(v.data(), base_ + s.offset, s.size);
    return v;
  }

  const uint8_t* base() const { return base_; }
  const FileHeader& header() const { return header_; }
  uint64_t fingerprint() const { return header_.content_fingerprint; }
  uint64_t file_bytes() const { return header_.file_size; }
  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// The owning mapping (null for Parse views). Storage views built over
  /// the file hold this as their keepalive.
  const std::shared_ptr<const MappedFile>& mapping() const {
    return mapping_;
  }

 private:
  SectionView() = default;

  Format format_;
  std::shared_ptr<const MappedFile> mapping_;
  const uint8_t* base_ = nullptr;
  FileHeader header_;
  std::vector<SectionEntry> sections_;
  std::unordered_map<uint64_t, size_t> by_key_;  // (kind<<32|index) -> pos
};

/// Reads just the header page of `path` and returns its content
/// fingerprint when magic, version and header CRC all check out — the
/// cheap identity probe the orphan-spool GC uses (no payload IO).
Result<uint64_t> PeekFingerprint(const std::string& path,
                                 const Format& format);

// --- CSR spill files ------------------------------------------------------

/// Writes `m` as a standalone spill file (SpillFormat): a META section
/// with the shape, then indptr/indices/values sections. Crash-safe
/// (tmp + fsync + rename). `fingerprint` is stored in the header — the
/// tiered cache uses its entry-key hash, so a restored matrix can be
/// matched back to its cache slot without reading payloads. Returns the
/// file size in bytes.
Result<uint64_t> WriteCsrSpill(const CsrMatrix& m, const std::string& path,
                               uint64_t fingerprint);

/// Maps a WriteCsrSpill file back as a zero-copy view-backed CsrMatrix
/// (bit-identical to the spilled matrix; every section CRC verified).
/// The mapping stays alive for as long as the matrix (or any copy) does.
Result<CsrMatrix> MapCsrSpill(const std::string& path);

}  // namespace freehgc::section_io

#endif  // FREEHGC_GRAPH_SECTION_IO_H_
