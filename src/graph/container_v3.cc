// Format version 3: the page-aligned, memory-mappable graph container, and
// the only graph container there is. Files on disk, spooled uploads, wire
// upload bodies and return_graph replies all carry these same bytes.
//
// Layout (all integers little-endian, the only byte order we target):
//
//   [0, 4096)              fixed header (section_io::FileHeader + padding)
//   [4096, table_offset)   sections, each starting on a 4096-byte boundary
//   [table_offset, EOF)    section table: section_count SectionEntry records
//
// The per-section machinery (page alignment, CRC-32, trailing table,
// tmp+fsync+rename publish) lives in graph/section_io.{h,cc}, shared with
// the artifact spill files; this file layers the graph-specific pieces on
// top: the META section describing types/relations/labels, the mapping of
// sections onto HeteroGraph storage, and zero-copy view construction.
// Every array payload (CSR indptr/indices/values, feature matrices,
// labels, splits) is its own section, page-aligned and CRC-32 protected,
// which is what lets one read path hand out zero-copy views for both a
// mapped file and an adopted in-memory upload: an int64 span is valid
// because section offsets are multiples of 4096 from a base that is
// page-aligned (mmap) or 8-byte aligned (an adopted buffer).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/mapped_file.h"
#include "common/string_util.h"
#include "graph/section_io.h"
#include "graph/serialize.h"
#include "graph/serialize_internal.h"

namespace freehgc {

namespace {

using section_io::SectionEntry;
using section_io::SectionView;
using section_io::SectionWriter;
using serialize_internal::ByteReader;
using serialize_internal::FilePtr;
using serialize_internal::kMagic;
using serialize_internal::kVersionV3;
using serialize_internal::ReadPod;
using serialize_internal::ReadString;
using serialize_internal::WritePod;
using serialize_internal::WriteString;

using section_io::kFeatures;
using section_io::kIndices;
using section_io::kIndptr;
using section_io::kLabels;
using section_io::kMeta;
using section_io::kTest;
using section_io::kTrain;
using section_io::kVal;
using section_io::kValues;

/// Staged metadata describing the sections; serialized into the META
/// section on Finish and parsed back on map.
struct V3Meta {
  struct TypeMeta {
    std::string name;
    int32_t count = 0;
    bool has_features = false;
    int64_t feat_rows = 0;
    int64_t feat_cols = 0;
  };
  std::vector<TypeMeta> types;
  std::vector<RelationSummary> relations;
  int32_t target = -1;
  int32_t num_classes = 0;
  uint64_t label_count = 0;
  uint64_t train_count = 0;
  uint64_t val_count = 0;
  uint64_t test_count = 0;
};

std::string SerializeMeta(const V3Meta& m) {
  std::string out;
  WritePod(out, static_cast<uint32_t>(m.types.size()));
  for (const auto& t : m.types) {
    WriteString(out, t.name);
    WritePod(out, t.count);
    WritePod(out, static_cast<uint8_t>(t.has_features ? 1 : 0));
    WritePod(out, t.feat_rows);
    WritePod(out, t.feat_cols);
  }
  WritePod(out, static_cast<uint32_t>(m.relations.size()));
  for (const auto& r : m.relations) {
    WriteString(out, r.name);
    WritePod(out, r.src_type);
    WritePod(out, r.dst_type);
    WritePod(out, r.rows);
    WritePod(out, r.cols);
    WritePod(out, r.nnz);
  }
  WritePod(out, m.target);
  if (m.target >= 0) {
    WritePod(out, m.num_classes);
    WritePod(out, m.label_count);
    WritePod(out, m.train_count);
    WritePod(out, m.val_count);
    WritePod(out, m.test_count);
  }
  return out;
}

Result<V3Meta> ParseMeta(std::string_view bytes) {
  V3Meta m;
  ByteReader r(bytes);
  uint32_t num_types = 0;
  if (!ReadPod(r, &num_types) || num_types > 4096) {
    return Status::InvalidArgument("v3 meta: bad type count");
  }
  m.types.resize(num_types);
  for (auto& t : m.types) {
    uint8_t has = 0;
    if (!ReadString(r, &t.name) || !ReadPod(r, &t.count) ||
        !ReadPod(r, &has) || !ReadPod(r, &t.feat_rows) ||
        !ReadPod(r, &t.feat_cols) || t.count < 0) {
      return Status::InvalidArgument("v3 meta: truncated type table");
    }
    t.has_features = has != 0;
  }
  uint32_t num_rel = 0;
  if (!ReadPod(r, &num_rel) || num_rel > 65536) {
    return Status::InvalidArgument("v3 meta: bad relation count");
  }
  m.relations.resize(num_rel);
  for (auto& rel : m.relations) {
    if (!ReadString(r, &rel.name) || !ReadPod(r, &rel.src_type) ||
        !ReadPod(r, &rel.dst_type) || !ReadPod(r, &rel.rows) ||
        !ReadPod(r, &rel.cols) || !ReadPod(r, &rel.nnz) || rel.nnz < 0) {
      return Status::InvalidArgument("v3 meta: truncated relation table");
    }
  }
  if (!ReadPod(r, &m.target)) {
    return Status::InvalidArgument("v3 meta: truncated target");
  }
  if (m.target >= 0) {
    if (!ReadPod(r, &m.num_classes) || !ReadPod(r, &m.label_count) ||
        !ReadPod(r, &m.train_count) || !ReadPod(r, &m.val_count) ||
        !ReadPod(r, &m.test_count)) {
      return Status::InvalidArgument("v3 meta: truncated label block");
    }
  }
  return m;
}

}  // namespace

// --- Writer ---------------------------------------------------------------

struct HeteroGraphV3Writer::Impl {
  SectionWriter writer;
  V3Meta meta;
  int64_t total_edges = 0;
  bool have_fingerprint = false;
  uint64_t fingerprint = 0;
  bool have_split = false;

  // Open feature block.
  bool feat_open = false;
  TypeId feat_type = -1;
  int64_t feat_rows_left = 0;
  int64_t feat_cols = 0;

  explicit Impl(SectionWriter w) : writer(std::move(w)) {}

  Status CheckOpen() const { return writer.CheckOpen(); }
};

Result<HeteroGraphV3Writer> HeteroGraphV3Writer::Create(
    const std::string& path) {
  FREEHGC_ASSIGN_OR_RETURN(
      SectionWriter sw,
      SectionWriter::Create(path, section_io::GraphContainerFormat()));
  return HeteroGraphV3Writer(new Impl(std::move(sw)));
}

Result<HeteroGraphV3Writer> HeteroGraphV3Writer::CreateInMemory(
    std::string* out) {
  FREEHGC_ASSIGN_OR_RETURN(
      SectionWriter sw,
      SectionWriter::CreateInMemory(out, section_io::GraphContainerFormat()));
  return HeteroGraphV3Writer(new Impl(std::move(sw)));
}

HeteroGraphV3Writer::HeteroGraphV3Writer(HeteroGraphV3Writer&& other) noexcept
    : impl_(other.impl_) {
  other.impl_ = nullptr;
}

HeteroGraphV3Writer& HeteroGraphV3Writer::operator=(
    HeteroGraphV3Writer&& other) noexcept {
  if (this != &other) {
    Abandon();
    impl_ = other.impl_;
    other.impl_ = nullptr;
  }
  return *this;
}

HeteroGraphV3Writer::~HeteroGraphV3Writer() { Abandon(); }

void HeteroGraphV3Writer::Abandon() {
  if (impl_ == nullptr) return;
  impl_->writer.Abandon();
  delete impl_;
  impl_ = nullptr;
}

Status HeteroGraphV3Writer::AddNodeType(const std::string& name,
                                        int32_t count) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (count < 0) return Status::InvalidArgument("negative node count");
  for (const auto& t : impl_->meta.types) {
    if (t.name == name) {
      return Status::InvalidArgument("duplicate node type: " + name);
    }
  }
  impl_->meta.types.push_back({name, count, false, 0, 0});
  return Status::OK();
}

Status HeteroGraphV3Writer::AddRelation(const std::string& name, TypeId src,
                                        TypeId dst, const CsrMatrix& adj) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  const auto num_types = static_cast<TypeId>(impl_->meta.types.size());
  if (src < 0 || src >= num_types || dst < 0 || dst >= num_types) {
    return Status::InvalidArgument("relation endpoint type out of range");
  }
  if (adj.rows() != impl_->meta.types[static_cast<size_t>(src)].count ||
      adj.cols() != impl_->meta.types[static_cast<size_t>(dst)].count) {
    return Status::InvalidArgument(
        "relation adjacency shape does not match type counts: " + name);
  }
  const auto index = static_cast<uint32_t>(impl_->meta.relations.size());
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.WriteArraySection(kIndptr, index, adj.indptr()));
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.WriteArraySection(kIndices, index, adj.indices()));
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.WriteArraySection(kValues, index, adj.values()));
  impl_->meta.relations.push_back(
      {name, src, dst, adj.rows(), adj.cols(), adj.nnz()});
  impl_->total_edges += adj.nnz();
  return Status::OK();
}

Status HeteroGraphV3Writer::BeginFeatures(TypeId type, int64_t rows,
                                          int64_t cols) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (impl_->feat_open) {
    return Status::FailedPrecondition("feature block already open");
  }
  const auto num_types = static_cast<TypeId>(impl_->meta.types.size());
  if (type < 0 || type >= num_types) {
    return Status::InvalidArgument("feature type out of range");
  }
  auto& tm = impl_->meta.types[static_cast<size_t>(type)];
  if (tm.has_features) {
    return Status::InvalidArgument("features already written for " + tm.name);
  }
  if (rows != tm.count || cols < 0) {
    return Status::InvalidArgument("feature shape mismatch for " + tm.name);
  }
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.BeginSection(kFeatures, static_cast<uint32_t>(type)));
  impl_->feat_open = true;
  impl_->feat_type = type;
  impl_->feat_rows_left = rows;
  impl_->feat_cols = cols;
  return Status::OK();
}

Status HeteroGraphV3Writer::AppendFeatureRows(const float* data,
                                              int64_t num_rows) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (!impl_->feat_open) {
    return Status::FailedPrecondition("no open feature block");
  }
  if (num_rows < 0 || num_rows > impl_->feat_rows_left) {
    return Status::InvalidArgument("feature rows exceed declared count");
  }
  const size_t bytes = static_cast<size_t>(num_rows) *
                       static_cast<size_t>(impl_->feat_cols) * sizeof(float);
  FREEHGC_RETURN_IF_ERROR(impl_->writer.Append(data, bytes));
  impl_->feat_rows_left -= num_rows;
  return Status::OK();
}

Status HeteroGraphV3Writer::EndFeatures() {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (!impl_->feat_open) {
    return Status::FailedPrecondition("no open feature block");
  }
  if (impl_->feat_rows_left != 0) {
    return Status::InvalidArgument("feature block closed short of rows");
  }
  auto& tm = impl_->meta.types[static_cast<size_t>(impl_->feat_type)];
  tm.has_features = true;
  tm.feat_rows = tm.count;
  tm.feat_cols = impl_->feat_cols;
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.EndSection(static_cast<uint64_t>(tm.feat_rows) *
                               static_cast<uint64_t>(tm.feat_cols)));
  impl_->feat_open = false;
  impl_->feat_type = -1;
  return Status::OK();
}

Status HeteroGraphV3Writer::AddFeatures(TypeId type, const Matrix& features) {
  FREEHGC_RETURN_IF_ERROR(BeginFeatures(type, features.rows(),
                                        features.cols()));
  FREEHGC_RETURN_IF_ERROR(AppendFeatureRows(features.data(),
                                            features.rows()));
  return EndFeatures();
}

Status HeteroGraphV3Writer::SetTarget(TypeId type,
                                      std::span<const int32_t> labels,
                                      int32_t num_classes) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  const auto num_types = static_cast<TypeId>(impl_->meta.types.size());
  if (type < 0 || type >= num_types) {
    return Status::InvalidArgument("target type out of range");
  }
  if (impl_->meta.target >= 0) {
    return Status::FailedPrecondition("target already set");
  }
  const auto count =
      static_cast<size_t>(impl_->meta.types[static_cast<size_t>(type)].count);
  if (labels.size() != count) {
    return Status::InvalidArgument("label count does not match target type");
  }
  FREEHGC_RETURN_IF_ERROR(impl_->writer.WriteArraySection(kLabels, 0, labels));
  impl_->meta.target = type;
  impl_->meta.num_classes = num_classes;
  impl_->meta.label_count = labels.size();
  return Status::OK();
}

Status HeteroGraphV3Writer::SetSplit(std::span<const int32_t> train,
                                     std::span<const int32_t> val,
                                     std::span<const int32_t> test) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (impl_->meta.target < 0) {
    return Status::FailedPrecondition("SetSplit requires SetTarget first");
  }
  if (impl_->have_split) {
    return Status::FailedPrecondition("split already set");
  }
  FREEHGC_RETURN_IF_ERROR(impl_->writer.WriteArraySection(kTrain, 0, train));
  FREEHGC_RETURN_IF_ERROR(impl_->writer.WriteArraySection(kVal, 0, val));
  FREEHGC_RETURN_IF_ERROR(impl_->writer.WriteArraySection(kTest, 0, test));
  impl_->meta.train_count = train.size();
  impl_->meta.val_count = val.size();
  impl_->meta.test_count = test.size();
  impl_->have_split = true;
  return Status::OK();
}

Status HeteroGraphV3Writer::SetContentFingerprint(uint64_t fingerprint) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  impl_->fingerprint = fingerprint;
  impl_->have_fingerprint = true;
  return Status::OK();
}

Result<V3WriteSummary> HeteroGraphV3Writer::Finish() {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (impl_->feat_open) {
    return Status::FailedPrecondition("unclosed feature block");
  }
  if (!impl_->have_fingerprint) {
    return Status::FailedPrecondition(
        "SetContentFingerprint required before Finish");
  }
  // Meta section, then section_io writes the table + header.
  const std::string meta = SerializeMeta(impl_->meta);
  FREEHGC_RETURN_IF_ERROR(impl_->writer.BeginSection(kMeta, 0));
  FREEHGC_RETURN_IF_ERROR(impl_->writer.Append(meta.data(), meta.size()));
  FREEHGC_RETURN_IF_ERROR(impl_->writer.EndSection(meta.size()));
  FREEHGC_RETURN_IF_ERROR(
      impl_->writer.SetContentFingerprint(impl_->fingerprint));
  FREEHGC_ASSIGN_OR_RETURN(const uint64_t file_bytes, impl_->writer.Finish());

  V3WriteSummary summary;
  summary.fingerprint = impl_->fingerprint;
  summary.file_bytes = file_bytes;
  for (const auto& t : impl_->meta.types) summary.nodes += t.count;
  summary.edges = impl_->total_edges;
  return summary;
}

namespace {

/// Writes every section of `g` into `w` and finishes it: the one layout
/// behind both the file and the in-memory container.
Result<V3WriteSummary> WriteGraph(const HeteroGraph& g,
                                  HeteroGraphV3Writer& w) {
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    FREEHGC_RETURN_IF_ERROR(w.AddNodeType(g.TypeName(t), g.NodeCount(t)));
  }
  for (RelationId r = 0; r < g.NumRelations(); ++r) {
    const Relation& rel = g.relation(r);
    FREEHGC_RETURN_IF_ERROR(
        w.AddRelation(rel.name, rel.src_type, rel.dst_type, rel.adj));
  }
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    if (g.HasFeatures(t)) {
      FREEHGC_RETURN_IF_ERROR(w.AddFeatures(t, g.Features(t)));
    }
  }
  if (g.target_type() >= 0) {
    FREEHGC_RETURN_IF_ERROR(
        w.SetTarget(g.target_type(), g.labels(), g.num_classes()));
    FREEHGC_RETURN_IF_ERROR(
        w.SetSplit(g.train_index(), g.val_index(), g.test_index()));
  }
  FREEHGC_RETURN_IF_ERROR(w.SetContentFingerprint(g.ContentFingerprint()));
  return w.Finish();
}

}  // namespace

Result<V3WriteSummary> SaveHeteroGraphV3(const HeteroGraph& g,
                                         const std::string& path) {
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  FREEHGC_ASSIGN_OR_RETURN(HeteroGraphV3Writer w,
                           HeteroGraphV3Writer::Create(path));
  return WriteGraph(g, w);
}

Result<std::string> SerializeHeteroGraph(const HeteroGraph& g) {
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  std::string out;
  FREEHGC_ASSIGN_OR_RETURN(HeteroGraphV3Writer w,
                           HeteroGraphV3Writer::CreateInMemory(&out));
  FREEHGC_RETURN_IF_ERROR(WriteGraph(g, w).status());
  return out;
}

// --- Reader ---------------------------------------------------------------

namespace {

/// Builds a HeteroGraph over a structurally validated section view: the
/// relations and features view the container's bytes, pinned by
/// `keepalive` (the file mapping, or an adopted upload buffer); only the
/// small label and split arrays are copied. The caller decides whether
/// to verify payload CRCs before and Validate after.
Result<HeteroGraph> BuildGraph(const SectionView& v,
                               const std::shared_ptr<const void>& keepalive) {
  const uint8_t* base = v.base();
  const SectionEntry* meta_sec = v.Find(kMeta, 0);
  if (meta_sec == nullptr) {
    return Status::InvalidArgument("v3 container missing meta section");
  }
  FREEHGC_ASSIGN_OR_RETURN(
      V3Meta meta,
      ParseMeta(std::string_view(
          reinterpret_cast<const char*>(base + meta_sec->offset),
          meta_sec->size)));

  HeteroGraph g;
  for (const auto& tm : meta.types) {
    auto added = g.AddNodeType(tm.name, tm.count);
    if (!added.ok()) return added.status();
  }
  for (uint32_t i = 0; i < meta.relations.size(); ++i) {
    const RelationSummary& rm = meta.relations[i];
    const auto rows1 = static_cast<uint64_t>(rm.rows) + 1;
    const auto nnz = static_cast<uint64_t>(rm.nnz);
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* ip,
        v.RequireArray(kIndptr, i, rows1, sizeof(int64_t)));
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* ix,
        v.RequireArray(kIndices, i, nnz, sizeof(int32_t)));
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* va,
        v.RequireArray(kValues, i, nnz, sizeof(float)));
    Result<CsrMatrix> adj =
        CsrMatrix::FromView(rm.rows, rm.cols, v.Span<int64_t>(*ip),
                            v.Span<int32_t>(*ix), v.Span<float>(*va),
                            keepalive);
    if (!adj.ok()) return adj.status();
    auto added = g.AddRelation(rm.name, rm.src_type, rm.dst_type,
                               std::move(*adj));
    if (!added.ok()) return added.status();
  }
  for (size_t ti = 0; ti < meta.types.size(); ++ti) {
    const auto& tm = meta.types[ti];
    if (!tm.has_features) continue;
    int64_t count = 0;
    if (tm.feat_rows != tm.count || tm.feat_cols < 0 ||
        __builtin_mul_overflow(tm.feat_rows, tm.feat_cols, &count)) {
      return Status::InvalidArgument("v3 feature shape mismatch for " +
                                     tm.name);
    }
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* fs,
        v.RequireArray(kFeatures, static_cast<uint32_t>(ti),
                       static_cast<uint64_t>(count), sizeof(float)));
    FREEHGC_RETURN_IF_ERROR(g.SetFeatures(
        static_cast<TypeId>(ti),
        Matrix::FromView(tm.feat_rows, tm.feat_cols, v.Span<float>(*fs),
                         keepalive)));
  }
  if (meta.target >= 0) {
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* ls,
        v.RequireArray(kLabels, 0, meta.label_count, sizeof(int32_t)));
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* tr,
        v.RequireArray(kTrain, 0, meta.train_count, sizeof(int32_t)));
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* va,
        v.RequireArray(kVal, 0, meta.val_count, sizeof(int32_t)));
    FREEHGC_ASSIGN_OR_RETURN(
        const SectionEntry* te,
        v.RequireArray(kTest, 0, meta.test_count, sizeof(int32_t)));
    // Labels and splits are small; always owned.
    FREEHGC_RETURN_IF_ERROR(g.SetTarget(meta.target, v.Copy<int32_t>(*ls),
                                        meta.num_classes));
    FREEHGC_RETURN_IF_ERROR(g.SetSplit(v.Copy<int32_t>(*tr),
                                       v.Copy<int32_t>(*va),
                                       v.Copy<int32_t>(*te)));
  }
  return g;
}

/// Wraps a graph built over `v` with the container's metadata.
ContainerGraph Wrap(HeteroGraph graph, const SectionView& v) {
  ContainerGraph out;
  out.graph = std::move(graph);
  out.fingerprint = v.fingerprint();
  out.file_bytes = v.file_bytes();
  out.mapping = v.mapping();
  return out;
}

}  // namespace

Result<ContainerGraph> MapHeteroGraphDetailed(const std::string& path,
                                              MapCheck check) {
  FREEHGC_ASSIGN_OR_RETURN(
      SectionView v,
      SectionView::Map(path, section_io::GraphContainerFormat()));
  const bool full = check == MapCheck::kFull;
  // Verify every payload before handing out views: a sequential pass at
  // CRC speed, and the kernel readahead it triggers doubles as a warmup.
  if (full) FREEHGC_RETURN_IF_ERROR(v.VerifyAllCrcs());
  FREEHGC_ASSIGN_OR_RETURN(HeteroGraph g, BuildGraph(v, v.mapping()));
  if (full) FREEHGC_RETURN_IF_ERROR(g.Validate());
  return Wrap(std::move(g), v);
}

Result<HeteroGraph> MapHeteroGraph(const std::string& path) {
  FREEHGC_ASSIGN_OR_RETURN(ContainerGraph cg, MapHeteroGraphDetailed(path));
  return std::move(cg.graph);
}

Result<ContainerGraph> AdoptHeteroGraph(std::string_view bytes,
                                        std::shared_ptr<const void> owner) {
  ByteReader r(bytes);
  uint32_t magic = 0, version = 0;
  if (!ReadPod(r, &magic) || magic != kMagic) {
    return Status::InvalidArgument("not a FreeHGC graph container");
  }
  if (!ReadPod(r, &version)) {
    return Status::InvalidArgument("truncated graph container header");
  }
  if (version != kVersionV3) {
    return Status::InvalidArgument(StrFormat(
        "unsupported graph container version %u (only v3 is read)", version));
  }
  // Typed views need 8-byte alignment. Sections sit at multiples of 4096
  // from the start, so an aligned start suffices; otherwise (or with
  // nothing to pin) copy once into an aligned buffer of our own.
  if (owner == nullptr ||
      reinterpret_cast<uintptr_t>(bytes.data()) % alignof(int64_t) != 0) {
    auto copy = std::make_shared_for_overwrite<uint64_t[]>(
        (bytes.size() + sizeof(uint64_t) - 1) / sizeof(uint64_t));
    std::memcpy(copy.get(), bytes.data(), bytes.size());
    bytes = std::string_view(reinterpret_cast<const char*>(copy.get()),
                             bytes.size());
    owner = std::move(copy);
  }
  FREEHGC_ASSIGN_OR_RETURN(
      SectionView v,
      SectionView::Parse(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size(), section_io::GraphContainerFormat()));
  FREEHGC_RETURN_IF_ERROR(v.VerifyAllCrcs());
  FREEHGC_ASSIGN_OR_RETURN(HeteroGraph g, BuildGraph(v, owner));
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  g.SetAdoptedBufferBytes(bytes.size());
  return Wrap(std::move(g), v);
}

Result<HeteroGraph> DeserializeHeteroGraph(std::string_view bytes) {
  FREEHGC_ASSIGN_OR_RETURN(ContainerGraph cg,
                           AdoptHeteroGraph(bytes, nullptr));
  return std::move(cg.graph);
}

// --- Inspection -----------------------------------------------------------

namespace {

/// Shared section-table walk for v3 containers and spill files.
void SummarizeSections(const SectionView& v, ContainerSummary* out) {
  out->file_bytes = v.file_bytes();
  out->fingerprint = v.fingerprint();
  out->crc_ok = true;
  for (const auto& s : v.sections()) {
    SectionSummary ss;
    ss.kind = section_io::KindName(s.kind);
    ss.index = s.index;
    ss.offset = s.offset;
    ss.size = s.size;
    ss.logical_count = s.logical_count;
    ss.stored_crc = s.crc;
    ss.crc_ok = v.VerifyCrc(s).ok();
    out->crc_ok = out->crc_ok && ss.crc_ok;
    out->sections.push_back(std::move(ss));
  }
}

}  // namespace

Result<ContainerSummary> InspectSpillFile(const std::string& path) {
  FREEHGC_ASSIGN_OR_RETURN(
      SectionView v, SectionView::Map(path, section_io::SpillFormat()));
  if (v.mapping() != nullptr) {
    v.mapping()->Advise(MappedFile::AccessPattern::kSequential);
  }
  ContainerSummary out;
  out.version = section_io::kSpillVersion;
  out.spill = true;
  SummarizeSections(v, &out);
  return out;
}

Result<ContainerSummary> InspectContainer(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);
  uint32_t magic = 0, version = 0;
  if (std::fread(&magic, 1, sizeof(magic), f.get()) != sizeof(magic)) {
    return Status::InvalidArgument("not a FreeHGC graph file: " + path);
  }
  if (magic == section_io::kSpillMagic) {
    f.reset();
    return InspectSpillFile(path);
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("not a FreeHGC graph file: " + path);
  }
  if (std::fread(&version, 1, sizeof(version), f.get()) != sizeof(version)) {
    return Status::InvalidArgument("truncated graph container header");
  }
  if (version != kVersionV3) {
    return Status::InvalidArgument(StrFormat(
        "unsupported graph file version %u (only v3 is read)", version));
  }
  f.reset();
  FREEHGC_ASSIGN_OR_RETURN(
      SectionView v,
      SectionView::Map(path, section_io::GraphContainerFormat()));
  v.mapping()->Advise(MappedFile::AccessPattern::kSequential);

  ContainerSummary out;
  out.version = kVersionV3;
  SummarizeSections(v, &out);
  const SectionEntry* meta_sec = v.Find(kMeta, 0);
  if (meta_sec != nullptr) {
    auto meta = ParseMeta(std::string_view(
        reinterpret_cast<const char*>(v.base() + meta_sec->offset),
        meta_sec->size));
    if (meta.ok()) {
      for (const auto& tm : meta->types) {
        out.types.emplace_back(tm.name, tm.count);
      }
      out.relations = std::move(meta->relations);
    }
  }
  return out;
}

}  // namespace freehgc
