#ifndef FREEHGC_GRAPH_SERIALIZE_INTERNAL_H_
#define FREEHGC_GRAPH_SERIALIZE_INTERNAL_H_

// Shared pieces of the section-file codecs: the v3 graph container
// (container_v3.cc), section_io and the feature spill files all read
// length-prefixed strings and PODs from byte views, and need the graph
// container's magic / version to identify it.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace freehgc {
namespace serialize_internal {

inline constexpr uint32_t kMagic = 0x46484743;  // "FHGC"
// The page-aligned mappable container (container_v3.cc), the only graph
// container version read or written.
inline constexpr uint32_t kVersionV3 = 3;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline void WriteBytes(std::string& out, const void* data, size_t n) {
  if (n > 0) out.append(static_cast<const char*>(data), n);
}

template <typename T>
void WritePod(std::string& out, const T& v) {
  WriteBytes(out, &v, sizeof(T));
}

inline void WriteString(std::string& out, const std::string& s) {
  WritePod(out, static_cast<uint32_t>(s.size()));
  WriteBytes(out, s.data(), s.size());
}

/// Bounds-checked reader over a byte view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool Read(void* dst, size_t n) {
    if (data_.size() - pos_ < n) return false;
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

template <typename T>
bool ReadPod(ByteReader& r, T* v) {
  return r.Read(v, sizeof(T));
}

inline bool ReadString(ByteReader& r, std::string* s) {
  uint32_t n = 0;
  if (!ReadPod(r, &n) || n > (1u << 20)) return false;
  s->resize(n);
  return r.Read(s->data(), n);
}

}  // namespace serialize_internal
}  // namespace freehgc

#endif  // FREEHGC_GRAPH_SERIALIZE_INTERNAL_H_
