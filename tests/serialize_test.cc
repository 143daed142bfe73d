#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "graph/section_io.h"
#include "graph/serialize.h"
#include "mutate.h"
#include "pipeline/artifact_cache.h"

namespace freehgc {
namespace {

std::string TempPath(const std::string& name) {
  return std::string("/tmp/freehgc_test_") + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void ExpectGraphsEqual(const HeteroGraph& a, const HeteroGraph& b) {
  ASSERT_EQ(a.NumNodeTypes(), b.NumNodeTypes());
  ASSERT_EQ(a.NumRelations(), b.NumRelations());
  for (TypeId t = 0; t < a.NumNodeTypes(); ++t) {
    EXPECT_EQ(a.TypeName(t), b.TypeName(t));
    EXPECT_EQ(a.NodeCount(t), b.NodeCount(t));
    EXPECT_EQ(a.Features(t), b.Features(t));
  }
  for (RelationId r = 0; r < a.NumRelations(); ++r) {
    EXPECT_EQ(a.relation(r).name, b.relation(r).name);
    EXPECT_EQ(a.relation(r).src_type, b.relation(r).src_type);
    EXPECT_EQ(a.relation(r).dst_type, b.relation(r).dst_type);
    EXPECT_EQ(a.relation(r).adj, b.relation(r).adj);
  }
  EXPECT_EQ(a.target_type(), b.target_type());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.train_index(), b.train_index());
  EXPECT_EQ(a.val_index(), b.val_index());
  EXPECT_EQ(a.test_index(), b.test_index());
  EXPECT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
}

TEST(SerializeTest, RoundTripsToyGraph) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("toy.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto loaded = MapHeteroGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(*loaded, g);
  // One layout everywhere: the in-memory container is the file, byte for
  // byte.
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(*bytes == ReadFileBytes(path));
  std::remove(path.c_str());
}

TEST(SerializeTest, RoundTripsCondensedGraph) {
  const HeteroGraph g = datasets::MakeDblp(7, /*scale=*/0.05);
  core::FreeHgcOptions opts;
  opts.ratio = 0.1;
  opts.max_paths = 6;
  pipeline::ArtifactCache cache;
  auto cond = core::Condense(g, opts, nullptr, &cache);
  ASSERT_TRUE(cond.ok());
  const std::string path = TempPath("condensed.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(cond->graph, path).ok());
  auto loaded = MapHeteroGraph(path);
  ASSERT_TRUE(loaded.ok());
  ExpectGraphsEqual(*loaded, cond->graph);
  EXPECT_TRUE(loaded->Validate().ok());
  auto bytes = SerializeHeteroGraph(cond->graph);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_TRUE(*bytes == ReadFileBytes(path));
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbageAndMissingFiles) {
  EXPECT_EQ(MapHeteroGraph("/tmp/definitely_missing.fhgc").status().code(),
            StatusCode::kNotFound);
  const std::string path = TempPath("garbage.fhgc");
  {
    std::ofstream out(path);
    out << "this is not a graph";
  }
  auto res = MapHeteroGraph(path);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsTruncatedFile) {
  const HeteroGraph g = datasets::MakeToy(9);
  const std::string path = TempPath("trunc.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(MapHeteroGraph(path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, InMemoryRoundTrip) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto back = DeserializeHeteroGraph(*bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->TotalNodes(), g.TotalNodes());
  EXPECT_EQ(back->TotalEdges(), g.TotalEdges());
  EXPECT_EQ(back->ContentFingerprint(), g.ContentFingerprint());
}

TEST(SerializeTest, RejectsBadMagic) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[0] = 'X';
  auto res = DeserializeHeteroGraph(corrupt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("not a FreeHGC graph"),
            std::string::npos);
}

TEST(SerializeTest, RejectsTruncationAtEveryRegion) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = *bytes;
  // Inside magic, version and the 56-byte header, at the end of the
  // 4096-byte header page, mid-payload and inside the trailing table.
  const size_t cuts[] = {0, 3, 4, 7, 8, 23, 55, 56, 4095, 4096, 4100,
                         full.size() / 2, full.size() - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, full.size());
    auto res = DeserializeHeteroGraph(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(res.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument)
        << "at byte " << cut << ": " << res.status().ToString();
  }
}

TEST(SerializeTest, RejectsChecksumMismatch) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  // Flip one bit in the first section's payload, right after the header
  // page: every size still matches, so only the CRC catches it.
  std::string corrupt = *bytes;
  corrupt[4096] = static_cast<char>(corrupt[4096] ^ 0x01);
  auto res = DeserializeHeteroGraph(corrupt);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("checksum"), std::string::npos);
}

TEST(SerializeTest, RejectsUnsupportedVersion) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  // 1 and 2 are the retired heap-body formats; 99 is from the future.
  for (const uint32_t version : {1u, 2u, 99u}) {
    std::string other = *bytes;
    std::memcpy(other.data() + 4, &version, sizeof(version));
    auto res = DeserializeHeteroGraph(other);
    ASSERT_FALSE(res.ok()) << "version " << version;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(res.status().message().find("version " +
                                          std::to_string(version)),
              std::string::npos)
        << res.status().ToString();
  }
}

TEST(SerializeTest, RejectsSectionTableOffsetOverflow) {
  // A well-sealed 8 KB header whose table_offset + table_size wraps
  // around 2^64 back to the buffer size: read unchecked, the table CRC
  // would run over the 4 KB *before* the buffer.
  section_io::FileHeader h;
  h.magic = 0x46484743;  // "FHGC"
  h.version = 3;
  h.section_count = 256;
  h.file_size = 8192;
  h.table_size = h.section_count * sizeof(section_io::SectionEntry);
  h.table_offset = h.file_size - h.table_size;  // mod 2^64: 2^64 - 4096
  ASSERT_EQ(h.table_offset, ~uint64_t{0} - 4095);
  h.header_crc = Crc32(&h, offsetof(section_io::FileHeader, header_crc));
  std::string bytes(h.file_size, '\0');
  std::memcpy(bytes.data(), &h, sizeof(h));
  auto res = DeserializeHeteroGraph(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("section table out of bounds"),
            std::string::npos)
      << res.status().ToString();
}

TEST(SerializeTest, CorruptFileOnDiskIsRejected) {
  const HeteroGraph g = datasets::MakeToy(3);
  const std::string path = TempPath("corrupt.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  {
    // Flip a byte of the first section's payload (zero padding between
    // sections is not covered by any CRC, so aim inside a payload).
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4096, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 4096, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  auto res = MapHeteroGraph(path);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- v3 page-aligned container --------------------------------------------

TEST(ContainerV3Test, MappedGraphMatchesHeapGraphExactly) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_roundtrip.fhgc");
  auto saved = SaveHeteroGraphV3(g, path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->fingerprint, g.ContentFingerprint());
  EXPECT_EQ(saved->nodes, g.TotalNodes());
  EXPECT_EQ(saved->edges, g.TotalEdges());

  auto mapped = MapHeteroGraphDetailed(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->fingerprint, g.ContentFingerprint());
  ExpectGraphsEqual(mapped->graph, g);
  EXPECT_TRUE(mapped->graph.IsMapped());
  EXPECT_FALSE(g.IsMapped());
  // A mapped graph owns only labels/splits on the heap.
  EXPECT_LT(mapped->graph.ResidentHeapBytes(), g.ResidentHeapBytes());
  EXPECT_EQ(mapped->graph.MemoryBytes(), g.MemoryBytes());
  std::remove(path.c_str());
}

TEST(ContainerV3Test, MappingOutlivesTheGraphCopies) {
  const HeteroGraph g = datasets::MakeToy(3);
  const std::string path = TempPath("v3_keepalive.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  CsrMatrix adj;
  {
    auto mapped = MapHeteroGraph(path);
    ASSERT_TRUE(mapped.ok());
    adj = mapped->relation(0).adj;  // copy of a view shares the keepalive
  }
  std::remove(path.c_str());  // mapping survives the unlink
  EXPECT_TRUE(adj.is_mapped());
  EXPECT_TRUE(adj.Validate().ok());
  EXPECT_GT(adj.nnz(), 0);
}

TEST(ContainerV3Test, InMemoryV3DeserializesToOwnedStorage) {
  const HeteroGraph g = datasets::MakeToy(9);
  const std::string path = TempPath("v3_inmem.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  const std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  auto back = DeserializeHeteroGraph(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back->IsMapped());
  ExpectGraphsEqual(*back, g);
}

TEST(ContainerV3Test, InspectReportsSectionsAndStructure) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_inspect.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto info = InspectContainer(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 3u);
  EXPECT_TRUE(info->crc_ok);
  EXPECT_EQ(info->fingerprint, g.ContentFingerprint());
  ASSERT_EQ(info->types.size(), static_cast<size_t>(g.NumNodeTypes()));
  ASSERT_EQ(info->relations.size(), static_cast<size_t>(g.NumRelations()));
  for (RelationId r = 0; r < g.NumRelations(); ++r) {
    EXPECT_EQ(info->relations[static_cast<size_t>(r)].name,
              g.relation(r).name);
    EXPECT_EQ(info->relations[static_cast<size_t>(r)].nnz,
              g.relation(r).adj.nnz());
  }
  // meta + 3 per relation + features per type + labels + 3 splits.
  const size_t expected = 1 + 3 * static_cast<size_t>(g.NumRelations()) +
                          static_cast<size_t>(g.NumNodeTypes()) + 1 + 3;
  EXPECT_EQ(info->sections.size(), expected);
  for (const auto& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << s.kind << "[" << s.index << "]";
    EXPECT_EQ(s.offset % 4096, 0u) << s.kind;
  }
  std::remove(path.c_str());
}

TEST(ContainerV3Test, RejectsTruncationAtEverySectionBoundary) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_trunc.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto info = InspectContainer(path);
  ASSERT_TRUE(info.ok());
  const std::string full = ReadFileBytes(path);
  std::vector<size_t> cuts = {0, 100, 4095, 4096};
  for (const auto& s : info->sections) {
    cuts.push_back(static_cast<size_t>(s.offset));
    cuts.push_back(static_cast<size_t>(s.offset + s.size / 2));
    cuts.push_back(static_cast<size_t>(s.offset + s.size));
  }
  cuts.push_back(full.size() - 1);
  const std::string cut_path = TempPath("v3_trunc_cut.fhgc");
  for (size_t cut : cuts) {
    if (cut >= full.size()) continue;
    WriteFileBytes(cut_path, std::string_view(full).substr(0, cut));
    auto res = MapHeteroGraphDetailed(cut_path);
    EXPECT_FALSE(res.ok()) << "truncation at byte " << cut << " accepted";
    auto res2 = DeserializeHeteroGraph(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(res2.ok()) << "in-memory truncation at " << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(ContainerV3Test, RejectsBitFlipInEverySection) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_flip.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto info = InspectContainer(path);
  ASSERT_TRUE(info.ok());
  const std::string full = ReadFileBytes(path);
  const std::string flip_path = TempPath("v3_flip_cur.fhgc");
  for (const auto& s : info->sections) {
    if (s.size == 0) continue;
    std::string corrupt = full;
    const size_t pos = static_cast<size_t>(s.offset + s.size / 2);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    WriteFileBytes(flip_path, corrupt);
    auto res = MapHeteroGraphDetailed(flip_path);
    ASSERT_FALSE(res.ok()) << "bit flip in " << s.kind << " accepted";
    EXPECT_NE(res.status().ToString().find("checksum"), std::string::npos)
        << res.status().ToString();
    auto res2 = DeserializeHeteroGraph(corrupt);
    ASSERT_FALSE(res2.ok()) << "in-memory bit flip in " << s.kind;
    EXPECT_NE(res2.status().ToString().find("checksum"), std::string::npos)
        << res2.status().ToString();
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST(ContainerV3Test, RejectsMisalignedSection) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_misalign.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  // Header layout: table_offset at byte 24, table_crc at 48, header_crc
  // at 52. Shift the first section's offset off the page boundary, then
  // re-seal the table and header CRCs so only the alignment check fires.
  uint64_t table_offset = 0, table_size = 0;
  std::memcpy(&table_offset, bytes.data() + 24, 8);
  std::memcpy(&table_size, bytes.data() + 32, 8);
  uint64_t sec_offset = 0;  // section entry: magic,kind,index,crc, offset@16
  std::memcpy(&sec_offset, bytes.data() + table_offset + 16, 8);
  sec_offset += 8;
  std::memcpy(bytes.data() + table_offset + 16, &sec_offset, 8);
  const uint32_t table_crc = Crc32(bytes.data() + table_offset, table_size);
  std::memcpy(bytes.data() + 48, &table_crc, 4);
  const uint32_t header_crc = Crc32(bytes.data(), 52);
  std::memcpy(bytes.data() + 52, &header_crc, 4);
  auto res = DeserializeHeteroGraph(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find("misaligned"), std::string::npos)
      << res.status().ToString();
}

TEST(ContainerV3Test, RejectsTamperedFingerprint) {
  const HeteroGraph g = datasets::MakeToy(5);
  const std::string path = TempPath("v3_fp.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  // The content fingerprint lives at header byte 40 and is covered by the
  // header CRC: flipping it without re-sealing must be detected.
  bytes[40] = static_cast<char>(bytes[40] ^ 0x01);
  auto res = DeserializeHeteroGraph(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().ToString().find("header checksum"),
            std::string::npos)
      << res.status().ToString();
}

TEST(ContainerV3Test, AbandonedWriterLeavesNoFiles) {
  const std::string path = TempPath("v3_abandon.fhgc");
  {
    auto w = HeteroGraphV3Writer::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->AddNodeType("t", 4).ok());
    // Writer destroyed without Finish: simulated crash.
  }
  std::FILE* f = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "tmp file left behind";
  std::FILE* g = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(g, nullptr) << "target file published without Finish";
}

TEST(ContainerV3Test, SaveIsAtomicOverExistingFile) {
  const HeteroGraph good = datasets::MakeToy(5);
  const HeteroGraph other = datasets::MakeToy(6);
  const std::string path = TempPath("v3_atomic.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(good, path).ok());
  // A pre-existing stale tmp sibling must not break or corrupt a save.
  WriteFileBytes(path + ".tmp", "stale partial write");
  ASSERT_TRUE(SaveHeteroGraphV3(other, path).ok());
  auto loaded = MapHeteroGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ContentFingerprint(), other.ContentFingerprint());
  std::remove(path.c_str());
}

TEST(ContainerV3Test, StreamingWriterEnforcesItsContract) {
  const std::string path = TempPath("v3_contract.fhgc");
  auto w = HeteroGraphV3Writer::Create(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->AddNodeType("a", 3).ok());
  EXPECT_FALSE(w->AddNodeType("a", 3).ok());  // duplicate type
  auto adj = CsrMatrix::FromCoo(3, 3, {{0, 1, 1.0f}});
  ASSERT_TRUE(adj.ok());
  EXPECT_FALSE(w->AddRelation("r", 0, 5, *adj).ok());  // bad endpoint
  ASSERT_TRUE(w->AddRelation("r", 0, 0, *adj).ok());
  ASSERT_TRUE(w->BeginFeatures(0, 3, 2).ok());
  EXPECT_FALSE(w->BeginFeatures(0, 3, 2).ok());  // already open
  const float rows[4] = {1, 2, 3, 4};
  ASSERT_TRUE(w->AppendFeatureRows(rows, 2).ok());
  EXPECT_FALSE(w->EndFeatures().ok());  // short of declared rows
  ASSERT_TRUE(w->AppendFeatureRows(rows, 1).ok());
  ASSERT_TRUE(w->EndFeatures().ok());
  EXPECT_FALSE(w->Finish().ok());  // fingerprint not set
  ASSERT_TRUE(w->SetContentFingerprint(1).ok());
  // Fingerprint intentionally wrong for a real graph, but the writer only
  // stores it; round-trip correctness of the value is SaveHeteroGraphV3's
  // job and covered above.
  auto summary = w->Finish();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->nodes, 3);
  EXPECT_EQ(summary->edges, 1);
  std::remove(path.c_str());
}

TEST(ContainerV3Test, RoundTripsGraphWithoutTargetOrFeatures) {
  HeteroGraph g;
  auto t0 = g.AddNodeType("only", 4);
  ASSERT_TRUE(t0.ok());
  auto adj = CsrMatrix::FromCoo(4, 4, {{0, 1, 1.0f}, {2, 3, 2.0f}});
  ASSERT_TRUE(adj.ok());
  ASSERT_TRUE(g.AddRelation("self", *t0, *t0, std::move(*adj)).ok());
  const std::string path = TempPath("v3_minimal.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto mapped = MapHeteroGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectGraphsEqual(*mapped, g);
  std::remove(path.c_str());
}

TEST(ContainerV3Test, RoundTripsEmptyRelation) {
  HeteroGraph g;
  auto t0 = g.AddNodeType("a", 3);
  auto t1 = g.AddNodeType("b", 2);
  ASSERT_TRUE(t0.ok() && t1.ok());
  auto adj = CsrMatrix::FromCoo(3, 2, {});
  ASSERT_TRUE(adj.ok());
  ASSERT_TRUE(g.AddRelation("empty", *t0, *t1, std::move(*adj)).ok());
  const std::string path = TempPath("v3_empty_rel.fhgc");
  ASSERT_TRUE(SaveHeteroGraphV3(g, path).ok());
  auto mapped = MapHeteroGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->relation(0).adj.nnz(), 0);
  ExpectGraphsEqual(*mapped, g);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Adoption: the upload parser views the container instead of copying it.

/// `bytes` copied into a fresh 8-byte-aligned buffer that pins itself.
std::pair<std::string_view, std::shared_ptr<const void>> AlignedCopy(
    std::string_view bytes) {
  auto buf = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  std::memcpy(buf->data(), bytes.data(), bytes.size());
  return {std::string_view(reinterpret_cast<const char*>(buf->data()),
                           bytes.size()),
          buf};
}

bool Within(const void* p, std::string_view bytes) {
  const auto* c = static_cast<const char*>(p);
  return c >= bytes.data() && c < bytes.data() + bytes.size();
}

TEST(ContainerV3Test, AdoptViewsAnAlignedBufferAndCopiesAMisalignedOne) {
  const HeteroGraph g = datasets::MakeToy(12);
  auto bytes = SerializeHeteroGraph(g);
  ASSERT_TRUE(bytes.ok());
  auto [aligned, owner] = AlignedCopy(*bytes);

  auto adopted = AdoptHeteroGraph(aligned, owner);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ExpectGraphsEqual(adopted->graph, g);
  EXPECT_EQ(adopted->fingerprint, g.ContentFingerprint());
  EXPECT_EQ(adopted->mapping, nullptr);
  // Zero-copy: the arrays point into the caller's buffer.
  EXPECT_TRUE(Within(adopted->graph.relation(0).adj.indptr().data(), aligned));
  EXPECT_TRUE(Within(adopted->graph.Features(0).data(), aligned));
  // Heap-backed views are not a mapping, and the buffer is resident heap.
  EXPECT_FALSE(adopted->graph.IsMapped());
  EXPECT_GE(adopted->graph.ResidentHeapBytes(), bytes->size());

  // One byte off the boundary: typed views would be misaligned, so the
  // parser copies into an aligned buffer of its own.
  std::vector<uint64_t> shifted((bytes->size() + 15) / 8);
  const std::string_view odd(reinterpret_cast<const char*>(shifted.data()) + 1,
                             bytes->size());
  std::memcpy(const_cast<char*>(odd.data()), bytes->data(), bytes->size());
  auto copied = AdoptHeteroGraph(odd, owner);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  ExpectGraphsEqual(copied->graph, g);
  EXPECT_FALSE(Within(copied->graph.relation(0).adj.indptr().data(), odd));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(
                copied->graph.relation(0).adj.indptr().data()) % 8, 0u);
}

// ---------------------------------------------------------------------------
// Seeded mutation test of the upload decoder. Every container the
// round-trip tests build is mutated (byte flips, truncations, insertions,
// section-table and header edits) and fed to AdoptHeteroGraph, the parser
// behind every upload. Half the mutants get every CRC re-sealed, so they
// reach the structural checks behind the checksums. Each mutant must
// fail with a Status or yield a graph that passes Validate; under ASan
// and UBSan it must also touch no byte outside the buffer. The mutator
// lives in mutate.h.

TEST(ContainerMutationTest, EveryMutantFailsCleanlyOrValidates) {
  std::vector<HeteroGraph> graphs;
  graphs.push_back(datasets::MakeToy(5));
  {
    core::FreeHgcOptions opts;
    opts.ratio = 0.1;
    opts.max_paths = 6;
    pipeline::ArtifactCache cache;
    auto cond = core::Condense(datasets::MakeDblp(7, /*scale=*/0.05), opts,
                               nullptr, &cache);
    ASSERT_TRUE(cond.ok());
    graphs.push_back(std::move(cond->graph));
  }
  {
    HeteroGraph g;
    auto a = g.AddNodeType("a", 3);
    auto b = g.AddNodeType("b", 2);
    ASSERT_TRUE(a.ok() && b.ok());
    auto adj = CsrMatrix::FromCoo(3, 2, {{0, 1, 1.0f}, {2, 0, 2.0f}});
    ASSERT_TRUE(adj.ok());
    ASSERT_TRUE(g.AddRelation("ab", *a, *b, std::move(*adj)).ok());
    graphs.push_back(std::move(g));
  }
  Rng rng(20261021);
  int parsed = 0, rejected = 0;
  for (const HeteroGraph& g : graphs) {
    auto bytes = SerializeHeteroGraph(g);
    ASSERT_TRUE(bytes.ok());
    for (int i = 0; i < 400; ++i) {
      const std::string mutant = testing_util::Mutate(*bytes, rng);
      auto [view, owner] = AlignedCopy(mutant);
      auto got = AdoptHeteroGraph(view, owner);
      if (!got.ok()) {
        EXPECT_NE(got.status().code(), StatusCode::kOk);
        ++rejected;
        continue;
      }
      ++parsed;
      EXPECT_TRUE(got->graph.Validate().ok()) << "mutant " << i;
      got->graph.ContentFingerprint();  // reads every array byte
    }
  }
  // Both outcomes occur: the mutator reaches past the checksums.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace freehgc
