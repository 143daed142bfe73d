#include "graph/section_io.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/crc32.h"
#include "common/string_util.h"
#include "graph/serialize_internal.h"

namespace freehgc::section_io {

namespace {

using serialize_internal::ByteReader;
using serialize_internal::FilePtr;
using serialize_internal::ReadPod;
using serialize_internal::WritePod;

/// The durable half of every publish: flushes and fsyncs the finished
/// ".tmp" sibling, closes it and renames it over `final_path`. On failure
/// the ".tmp" file is removed.
Status SyncAndRename(FilePtr file, const std::string& tmp_path,
                     const std::string& final_path) {
  if (std::fflush(file.get()) != 0 || ::fsync(::fileno(file.get())) != 0) {
    file.reset();
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot finalize " + tmp_path);
  }
  file.reset();
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + " to " +
                            final_path);
  }
  return Status::OK();
}

}  // namespace

const char* KindName(uint32_t kind) {
  switch (kind) {
    case kMeta: return "meta";
    case kIndptr: return "indptr";
    case kIndices: return "indices";
    case kValues: return "values";
    case kFeatures: return "features";
    case kLabels: return "labels";
    case kTrain: return "train";
    case kVal: return "val";
    case kTest: return "test";
    default: return "unknown";
  }
}

Format GraphContainerFormat() {
  return {serialize_internal::kMagic, serialize_internal::kVersionV3, "v3",
          "v3 graph container"};
}

Format SpillFormat() {
  return {kSpillMagic, kSpillVersion, "spill", "freehgc spill file"};
}

// --- Writer ---------------------------------------------------------------

struct SectionWriter::Impl {
  Format format;
  // Exactly one sink: `file` (a ".tmp" sibling of final_path) or `buffer`.
  std::string final_path;
  std::string tmp_path;
  FilePtr file;
  std::string* buffer = nullptr;
  uint64_t offset = 0;  // bytes written so far
  std::vector<SectionEntry> sections;
  bool have_fingerprint = false;
  uint64_t fingerprint = 0;
  bool finished = false;
  bool section_open = false;

  // Open section accumulation.
  uint32_t cur_kind = 0;
  uint32_t cur_index = 0;
  uint32_t cur_crc = 0;
  uint64_t cur_size = 0;
  uint64_t cur_off = 0;

  Status WriteRaw(const void* data, size_t n) {
    if (buffer != nullptr) {
      buffer->append(static_cast<const char*>(data), n);
    } else if (n > 0 && std::fwrite(data, 1, n, file.get()) != n) {
      return Status::Internal("short write to " + tmp_path);
    }
    offset += n;
    return Status::OK();
  }

  /// Overwrites the reserved header page with `h` and publishes: a buffer
  /// is complete once the header lands; a file is fsynced and atomically
  /// renamed into place.
  Status PublishHeader(const FileHeader& h) {
    if (buffer != nullptr) {
      std::memcpy(buffer->data(), &h, sizeof(h));
      return Status::OK();
    }
    char page[kHeaderBytes] = {};
    std::memcpy(page, &h, sizeof(h));
    if (std::fseek(file.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(page, 1, sizeof(page), file.get()) != sizeof(page)) {
      return Status::Internal("cannot finalize " + tmp_path);
    }
    return SyncAndRename(std::move(file), tmp_path, final_path);
  }

  /// Zero-pads to the next 4096-byte boundary.
  Status Pad() {
    static const char zeros[kAlign] = {};
    const uint64_t rem = offset % kAlign;
    if (rem == 0) return Status::OK();
    return WriteRaw(zeros, static_cast<size_t>(kAlign - rem));
  }

  Status CheckOpen() const {
    if (!file && buffer == nullptr) {
      return Status::FailedPrecondition(
          StrFormat("%s writer is not open", format.label));
    }
    if (finished) {
      return Status::FailedPrecondition(
          StrFormat("%s writer already finished", format.label));
    }
    return Status::OK();
  }
};

Result<SectionWriter> SectionWriter::Create(const std::string& path,
                                            const Format& format) {
  auto impl = std::make_unique<Impl>();
  impl->format = format;
  impl->final_path = path;
  impl->tmp_path = path + ".tmp";
  impl->file.reset(std::fopen(impl->tmp_path.c_str(), "wb"));
  if (!impl->file) {
    return Status::InvalidArgument("cannot open for write: " +
                                   impl->tmp_path);
  }
  return Start(std::move(impl));
}

Result<SectionWriter> SectionWriter::CreateInMemory(std::string* out,
                                                    const Format& format) {
  auto impl = std::make_unique<Impl>();
  impl->format = format;
  impl->buffer = out;
  out->clear();
  return Start(std::move(impl));
}

Result<SectionWriter> SectionWriter::Start(std::unique_ptr<Impl> impl) {
  // Reserve the header page; the real header is patched in on Finish.
  static const char zeros[kHeaderBytes] = {};
  FREEHGC_RETURN_IF_ERROR(impl->WriteRaw(zeros, sizeof(zeros)));
  SectionWriter w;
  w.impl_ = impl.release();
  return w;
}

SectionWriter::SectionWriter(SectionWriter&& other) noexcept
    : impl_(other.impl_) {
  other.impl_ = nullptr;
}

SectionWriter& SectionWriter::operator=(SectionWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    impl_ = other.impl_;
    other.impl_ = nullptr;
  }
  return *this;
}

SectionWriter::~SectionWriter() { Abandon(); }

void SectionWriter::Abandon() {
  if (impl_ == nullptr) return;
  if (impl_->file && !impl_->finished) {
    impl_->file.reset();
    std::remove(impl_->tmp_path.c_str());
  }
  delete impl_;
  impl_ = nullptr;
}

Status SectionWriter::BeginSection(uint32_t kind, uint32_t index) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (impl_->section_open) {
    return Status::FailedPrecondition("section already open");
  }
  FREEHGC_RETURN_IF_ERROR(impl_->Pad());
  impl_->cur_kind = kind;
  impl_->cur_index = index;
  impl_->cur_crc = 0;
  impl_->cur_size = 0;
  impl_->cur_off = impl_->offset;
  impl_->section_open = true;
  return Status::OK();
}

Status SectionWriter::Append(const void* data, size_t n) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (!impl_->section_open) {
    return Status::FailedPrecondition("no open section");
  }
  FREEHGC_RETURN_IF_ERROR(impl_->WriteRaw(data, n));
  impl_->cur_crc = Crc32(data, n, impl_->cur_crc);
  impl_->cur_size += n;
  return Status::OK();
}

Status SectionWriter::EndSection(uint64_t logical_count) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (!impl_->section_open) {
    return Status::FailedPrecondition("no open section");
  }
  SectionEntry s;
  s.kind = impl_->cur_kind;
  s.index = impl_->cur_index;
  s.crc = impl_->cur_crc;
  s.offset = impl_->cur_off;
  s.size = impl_->cur_size;
  s.logical_count = logical_count;
  impl_->sections.push_back(s);
  impl_->section_open = false;
  return Status::OK();
}

Status SectionWriter::SetContentFingerprint(uint64_t fingerprint) {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  impl_->fingerprint = fingerprint;
  impl_->have_fingerprint = true;
  return Status::OK();
}

Status SectionWriter::CheckOpen() const {
  if (impl_ == nullptr) return Status::FailedPrecondition("writer moved out");
  return impl_->CheckOpen();
}

Result<uint64_t> SectionWriter::Finish() {
  FREEHGC_RETURN_IF_ERROR(impl_->CheckOpen());
  if (impl_->section_open) {
    return Status::FailedPrecondition("unclosed section");
  }
  if (!impl_->have_fingerprint) {
    return Status::FailedPrecondition(
        "SetContentFingerprint required before Finish");
  }
  FREEHGC_RETURN_IF_ERROR(impl_->Pad());

  FileHeader h;
  h.magic = impl_->format.magic;
  h.version = impl_->format.version;
  h.section_count = static_cast<uint32_t>(impl_->sections.size());
  h.table_offset = impl_->offset;
  h.table_size = impl_->sections.size() * sizeof(SectionEntry);
  h.content_fingerprint = impl_->fingerprint;
  std::string table;
  table.reserve(h.table_size);
  for (const auto& s : impl_->sections) {
    table.append(reinterpret_cast<const char*>(&s), sizeof(s));
  }
  h.table_crc = Crc32(table.data(), table.size());
  FREEHGC_RETURN_IF_ERROR(impl_->WriteRaw(table.data(), table.size()));
  h.file_size = impl_->offset;
  h.header_crc = Crc32(&h, offsetof(FileHeader, header_crc));
  FREEHGC_RETURN_IF_ERROR(impl_->PublishHeader(h));
  impl_->finished = true;
  return h.file_size;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp_path = path + ".tmp";
  FilePtr file(std::fopen(tmp_path.c_str(), "wb"));
  if (!file) {
    return Status::InvalidArgument("cannot open for write: " + tmp_path);
  }
  // Written in 64 KiB pieces, not one call: from one large write the page
  // cache may build large folios (up to 2 MiB), and a reader of the
  // mapped file then faults in a whole folio per page it touches. Small
  // writes keep a mapped graph's resident set at what it reads.
  constexpr size_t kPiece = size_t{64} << 10;
  for (size_t off = 0; off < bytes.size(); off += kPiece) {
    const size_t n = std::min(kPiece, bytes.size() - off);
    if (std::fwrite(bytes.data() + off, 1, n, file.get()) != n) {
      file.reset();
      std::remove(tmp_path.c_str());
      return Status::Internal("short write to " + tmp_path);
    }
  }
  return SyncAndRename(std::move(file), tmp_path, path);
}

// --- View -----------------------------------------------------------------

namespace {

/// Validates header + section table structure (magics, CRCs, alignment,
/// bounds). Section payload CRCs are NOT verified here; callers decide
/// whether to fail (map/load) or report (inspect).
Status ParseInto(const uint8_t* base, size_t size, const Format& format,
                 FileHeader* header, std::vector<SectionEntry>* sections,
                 std::unordered_map<uint64_t, size_t>* by_key) {
  const char* label = format.label;
  if (size < kHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("%s container shorter than its header", label));
  }
  std::memcpy(header, base, sizeof(*header));
  const FileHeader& h = *header;
  if (h.magic != format.magic || h.version != format.version) {
    return Status::InvalidArgument(StrFormat("not a %s", format.describe));
  }
  const uint32_t actual_hcrc = Crc32(&h, offsetof(FileHeader, header_crc));
  if (actual_hcrc != h.header_crc) {
    return Status::InvalidArgument(StrFormat(
        "%s header checksum mismatch (stored %08x, computed %08x)", label,
        h.header_crc, actual_hcrc));
  }
  if (h.file_size != size) {
    return Status::InvalidArgument(StrFormat(
        "%s container truncated: %zu of %llu bytes", label, size,
        static_cast<unsigned long long>(h.file_size)));
  }
  if (h.section_count > kMaxSections ||
      h.table_size != h.section_count * sizeof(SectionEntry) ||
      h.table_offset < kHeaderBytes ||
      h.table_offset % kAlign != 0 || h.table_offset > size ||
      h.table_size != size - h.table_offset) {
    return Status::InvalidArgument(
        StrFormat("%s section table out of bounds", label));
  }
  const uint32_t actual_tcrc = Crc32(base + h.table_offset, h.table_size);
  if (actual_tcrc != h.table_crc) {
    return Status::InvalidArgument(StrFormat(
        "%s section table checksum mismatch (stored %08x, computed %08x)",
        label, h.table_crc, actual_tcrc));
  }
  sections->resize(h.section_count);
  if (h.table_size > 0) {
    std::memcpy(sections->data(), base + h.table_offset, h.table_size);
  }
  for (size_t i = 0; i < sections->size(); ++i) {
    const SectionEntry& s = (*sections)[i];
    if (s.magic != kSectionMagic) {
      return Status::InvalidArgument(
          StrFormat("%s section entry magic mismatch", label));
    }
    if (s.offset % kAlign != 0) {
      return Status::InvalidArgument(StrFormat(
          "%s section %s[%u] misaligned (offset %llu)", label,
          KindName(s.kind), s.index,
          static_cast<unsigned long long>(s.offset)));
    }
    if (s.offset < kHeaderBytes || s.offset > h.table_offset ||
        s.size > h.table_offset - s.offset) {
      return Status::InvalidArgument(
          StrFormat("%s section %s[%u] out of bounds", label,
                    KindName(s.kind), s.index));
    }
    const uint64_t key = (static_cast<uint64_t>(s.kind) << 32) | s.index;
    if (!by_key->emplace(key, i).second) {
      return Status::InvalidArgument(StrFormat(
          "%s duplicate section %s[%u]", label, KindName(s.kind), s.index));
    }
  }
  return Status::OK();
}

}  // namespace

Result<SectionView> SectionView::Map(const std::string& path,
                                     const Format& format) {
  FREEHGC_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> mf,
                           MappedFile::OpenShared(path));
  SectionView v;
  v.format_ = format;
  v.base_ = mf->data();
  FREEHGC_RETURN_IF_ERROR(ParseInto(mf->data(), mf->size(), format,
                                    &v.header_, &v.sections_, &v.by_key_));
  v.mapping_ = std::move(mf);
  return v;
}

Result<SectionView> SectionView::Parse(const uint8_t* base, size_t size,
                                       const Format& format) {
  SectionView v;
  v.format_ = format;
  v.base_ = base;
  FREEHGC_RETURN_IF_ERROR(ParseInto(base, size, format, &v.header_,
                                    &v.sections_, &v.by_key_));
  return v;
}

const SectionEntry* SectionView::Find(uint32_t kind, uint32_t index) const {
  auto it = by_key_.find((static_cast<uint64_t>(kind) << 32) | index);
  return it == by_key_.end() ? nullptr : &sections_[it->second];
}

Result<const SectionEntry*> SectionView::RequireArray(uint32_t kind,
                                                      uint32_t index,
                                                      uint64_t count,
                                                      size_t elem_size) const {
  const SectionEntry* s = Find(kind, index);
  if (s == nullptr) {
    return Status::InvalidArgument(
        StrFormat("%s container missing section %s[%u]", format_.label,
                  KindName(kind), index));
  }
  // Divide rather than multiply: a hostile count must not wrap.
  if (s->size % elem_size != 0 || s->size / elem_size != count ||
      s->logical_count != count) {
    return Status::InvalidArgument(StrFormat(
        "%s section %s[%u] size does not match metadata", format_.label,
        KindName(kind), index));
  }
  return s;
}

Status SectionView::VerifyCrc(const SectionEntry& s) const {
  const uint32_t actual = Crc32(base_ + s.offset, s.size);
  if (actual != s.crc) {
    return Status::InvalidArgument(StrFormat(
        "%s section %s[%u] checksum mismatch (stored %08x, computed %08x)",
        format_.label, KindName(s.kind), s.index, s.crc, actual));
  }
  return Status::OK();
}

Status SectionView::VerifyAllCrcs() const {
  if (mapping_ != nullptr) {
    mapping_->Advise(MappedFile::AccessPattern::kSequential);
  }
  for (const auto& s : sections_) {
    FREEHGC_RETURN_IF_ERROR(VerifyCrc(s));
  }
  if (mapping_ != nullptr) {
    mapping_->Advise(MappedFile::AccessPattern::kNormal);
  }
  return Status::OK();
}

Result<uint64_t> PeekFingerprint(const std::string& path,
                                 const Format& format) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);
  FileHeader h;
  if (std::fread(&h, 1, sizeof(h), f.get()) != sizeof(h)) {
    return Status::InvalidArgument("truncated header: " + path);
  }
  if (h.magic != format.magic || h.version != format.version) {
    return Status::InvalidArgument(StrFormat("not a %s", format.describe));
  }
  const uint32_t actual = Crc32(&h, offsetof(FileHeader, header_crc));
  if (actual != h.header_crc) {
    return Status::InvalidArgument(StrFormat(
        "%s header checksum mismatch (stored %08x, computed %08x)",
        format.label, h.header_crc, actual));
  }
  return h.content_fingerprint;
}

// --- CSR spill files ------------------------------------------------------

Result<uint64_t> WriteCsrSpill(const CsrMatrix& m, const std::string& path,
                               uint64_t fingerprint) {
  FREEHGC_ASSIGN_OR_RETURN(SectionWriter w,
                           SectionWriter::Create(path, SpillFormat()));
  std::string meta;
  WritePod(meta, static_cast<int64_t>(m.rows()));
  WritePod(meta, static_cast<int64_t>(m.cols()));
  WritePod(meta, static_cast<int64_t>(m.nnz()));
  FREEHGC_RETURN_IF_ERROR(w.BeginSection(kMeta, 0));
  FREEHGC_RETURN_IF_ERROR(w.Append(meta.data(), meta.size()));
  FREEHGC_RETURN_IF_ERROR(w.EndSection(meta.size()));
  FREEHGC_RETURN_IF_ERROR(w.WriteArraySection(kIndptr, 0, m.indptr()));
  FREEHGC_RETURN_IF_ERROR(w.WriteArraySection(kIndices, 0, m.indices()));
  FREEHGC_RETURN_IF_ERROR(w.WriteArraySection(kValues, 0, m.values()));
  FREEHGC_RETURN_IF_ERROR(w.SetContentFingerprint(fingerprint));
  return w.Finish();
}

Result<CsrMatrix> MapCsrSpill(const std::string& path) {
  FREEHGC_ASSIGN_OR_RETURN(SectionView v,
                           SectionView::Map(path, SpillFormat()));
  FREEHGC_RETURN_IF_ERROR(v.VerifyAllCrcs());
  const SectionEntry* meta = v.Find(kMeta, 0);
  if (meta == nullptr) {
    return Status::InvalidArgument("spill container missing section meta[0]");
  }
  ByteReader r(std::string_view(
      reinterpret_cast<const char*>(v.base() + meta->offset), meta->size));
  int64_t rows = 0, cols = 0, nnz = 0;
  if (!ReadPod(r, &rows) || !ReadPod(r, &cols) || !ReadPod(r, &nnz) ||
      rows < 0 || cols < 0 || nnz < 0 || rows > INT32_MAX ||
      cols > INT32_MAX) {
    return Status::InvalidArgument("spill meta: bad CSR shape");
  }
  FREEHGC_ASSIGN_OR_RETURN(
      const SectionEntry* ip,
      v.RequireArray(kIndptr, 0, static_cast<uint64_t>(rows) + 1,
                     sizeof(int64_t)));
  FREEHGC_ASSIGN_OR_RETURN(
      const SectionEntry* ix,
      v.RequireArray(kIndices, 0, static_cast<uint64_t>(nnz),
                     sizeof(int32_t)));
  FREEHGC_ASSIGN_OR_RETURN(
      const SectionEntry* va,
      v.RequireArray(kValues, 0, static_cast<uint64_t>(nnz), sizeof(float)));
  return CsrMatrix::FromView(static_cast<int32_t>(rows),
                             static_cast<int32_t>(cols), v.Span<int64_t>(*ip),
                             v.Span<int32_t>(*ix), v.Span<float>(*va),
                             v.mapping());
}

}  // namespace freehgc::section_io
