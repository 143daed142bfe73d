#ifndef FREEHGC_TESTS_MUTATE_H_
#define FREEHGC_TESTS_MUTATE_H_

// Seeded byte mutators behind the decoder mutation tests: generic byte
// flips, truncations and insertions for any encoded payload, plus the
// section-table and header edits (and CRC re-sealing) that reach past a
// v3 container's checksums. ContainerMutationTest feeds the container
// mutants to the upload parser, WireMutationTest the generic ones to the
// wire decoders.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "graph/section_io.h"

namespace freehgc::testing_util {

/// Applies generic mutation `kind` to `m` (non-empty): 0 = 1-8 random
/// byte flips, 1 = truncation to a random length, 2 = insertion of 1-64
/// random bytes at a random offset.
inline void MutateBytesOfKind(std::string& m, uint64_t kind, Rng& rng) {
  auto pos = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  switch (kind) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int i = 0; i < flips; ++i) {
        m[pos(m.size())] ^= static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
    }
    case 1:
      m.resize(pos(m.size()));
      break;
    default: {
      std::string ins(1 + pos(64), '\0');
      for (char& c : ins) c = static_cast<char>(rng.NextBounded(256));
      m.insert(pos(m.size() + 1), ins);
      break;
    }
  }
}

/// One random generic mutant of the non-empty payload `base`.
inline std::string MutateBytes(const std::string& base, Rng& rng) {
  std::string m = base;
  MutateBytesOfKind(m, rng.NextBounded(3), rng);
  return m;
}

constexpr size_t kHeaderSize = sizeof(section_io::FileHeader);
constexpr size_t kEntrySize = sizeof(section_io::SectionEntry);

/// Recomputes every CRC the container `bytes` carries that still lies in
/// bounds, and the header's file size, so only the structural checks can
/// reject it.
inline void Reseal(std::string& bytes) {
  if (bytes.size() < kHeaderSize) return;
  section_io::FileHeader h;
  std::memcpy(&h, bytes.data(), kHeaderSize);
  h.file_size = bytes.size();
  const uint64_t count = h.section_count;
  if (h.table_offset <= bytes.size() &&
      count <= (bytes.size() - h.table_offset) / kEntrySize) {
    for (uint64_t i = 0; i < count; ++i) {
      char* e = bytes.data() + h.table_offset + i * kEntrySize;
      section_io::SectionEntry s;
      std::memcpy(&s, e, kEntrySize);
      if (s.offset <= bytes.size() && s.size <= bytes.size() - s.offset) {
        s.crc = Crc32(bytes.data() + s.offset, s.size);
        std::memcpy(e, &s, kEntrySize);
      }
    }
    h.table_size = count * kEntrySize;
    h.table_crc = Crc32(bytes.data() + h.table_offset, h.table_size);
  }
  h.header_crc = Crc32(&h, offsetof(section_io::FileHeader, header_crc));
  std::memcpy(bytes.data(), &h, kHeaderSize);
}

/// One random mutant of the v3 container `base`: a generic mutant, a
/// section-table edit or a header edit; half of them re-sealed.
inline std::string Mutate(const std::string& base, Rng& rng) {
  std::string m = base;
  auto pos = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  section_io::FileHeader h;
  std::memcpy(&h, base.data(), kHeaderSize);
  const uint64_t kind = rng.NextBounded(5);
  if (kind < 3) {
    MutateBytesOfKind(m, kind, rng);
  } else if (kind == 3) {  // section-table edit: one field of one entry
    const size_t entry = h.table_offset + pos(h.section_count) * kEntrySize;
    const size_t field = 4 + 4 * pos(11);  // kind..reserved, 4-byte steps
    uint32_t v = 0;
    std::memcpy(&v, m.data() + entry + field, 4);
    const uint32_t edits[] = {v + 1, v - 1, v ^ 0x1000, 0, 0xffffffffu,
                              static_cast<uint32_t>(rng.NextU64())};
    v = edits[pos(6)];
    std::memcpy(m.data() + entry + field, &v, 4);
  } else {  // header edit: section count or table placement
    const size_t fields[] = {12, 16, 24, 32};  // count, size, table off/size
    const size_t at = fields[pos(4)];
    uint32_t v = 0;
    std::memcpy(&v, m.data() + at, 4);
    v += static_cast<uint32_t>(rng.NextBounded(3)) == 0 ? 48 : -4096u;
    std::memcpy(m.data() + at, &v, 4);
  }
  if (rng.NextBounded(2) == 0) Reseal(m);
  return m;
}

}  // namespace freehgc::testing_util

#endif  // FREEHGC_TESTS_MUTATE_H_
