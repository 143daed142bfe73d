// freehgc_inspect: dump the structure of a serialized graph container
// without loading it.
//
//   freehgc_inspect PATH...
//
// Prints the container version, file size, content fingerprint, node
// types, relations, and the page-aligned section table with per-section
// CRC status. ArtifactCache spill files (*.spill) are recognized too and
// print their section table under a "spill" tag (the fingerprint shown is
// the cache entry-key hash, not a graph identity). Files are mapped,
// never slurped to heap, so inspecting a multi-gigabyte container needs
// only a few megabytes of memory. Exits non-zero if any file fails to
// parse or any checksum is bad.

#include <cstdio>
#include <string>

#include "graph/serialize.h"

namespace {

void PrintSummary(const std::string& path,
                  const freehgc::ContainerSummary& s) {
  std::printf("%s%s\n", path.c_str(), s.spill ? "  (spill file)" : "");
  std::printf("  %s=%u bytes=%llu fingerprint=%016llx crc=%s\n",
              s.spill ? "spill_version" : "version", s.version,
              static_cast<unsigned long long>(s.file_bytes),
              static_cast<unsigned long long>(s.fingerprint),
              s.crc_ok ? "ok" : "BAD");
  std::printf("  types (%zu):\n", s.types.size());
  for (const auto& [name, count] : s.types) {
    std::printf("    %-16s %lld nodes\n", name.c_str(),
                static_cast<long long>(count));
  }
  std::printf("  relations (%zu):\n", s.relations.size());
  for (const auto& r : s.relations) {
    std::printf("    %-16s %d -> %d  %d x %d  nnz=%lld\n", r.name.c_str(),
                r.src_type, r.dst_type, r.rows, r.cols,
                static_cast<long long>(r.nnz));
  }
  std::printf("  sections (%zu):\n", s.sections.size());
  for (const auto& sec : s.sections) {
    std::printf("    %-10s[%u]  offset=%-12llu size=%-12llu count=%-10llu "
                "crc=%08x %s\n",
                sec.kind.c_str(), sec.index,
                static_cast<unsigned long long>(sec.offset),
                static_cast<unsigned long long>(sec.size),
                static_cast<unsigned long long>(sec.logical_count),
                sec.stored_crc, sec.crc_ok ? "ok" : "BAD");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: freehgc_inspect PATH...\n");
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    auto summary = freehgc::InspectContainer(path);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   summary.status().ToString().c_str());
      rc = 1;
      continue;
    }
    PrintSummary(path, *summary);
    if (!summary->crc_ok) rc = 1;
  }
  return rc;
}
