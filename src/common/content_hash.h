#ifndef FREEHGC_COMMON_CONTENT_HASH_H_
#define FREEHGC_COMMON_CONTENT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace freehgc {

/// The library's content hash: XXH64 (seed 0) over a byte stream.
///
/// Four independent lanes each take every fourth little-endian 8-byte
/// word of a 32-byte stripe (multiply, rotate, multiply), so the lanes'
/// multiplies overlap instead of chaining one per byte. Digest() merges
/// the lanes, mixes in the total length and the < 32-byte tail, and
/// avalanches. Bytes that do not fill a stripe wait in a small buffer, so
/// the digest depends only on the concatenated bytes, never on how they
/// were split across calls. That is what lets the streaming v3 writer
/// (datasets::GenerateToV3, fed in chunks) and a heap graph's
/// ContentFingerprint (fed whole arrays) agree.
///
/// Structure separators are mixed in as one-byte tags so e.g. (counts,
/// labels) boundaries cannot alias. HeteroGraph::ContentFingerprint, the
/// v3 container's stored fingerprint, the ArtifactCache keys and the serve
/// coalesce key all hash through this one class.
class ContentHash {
 public:
  void Bytes(const void* data, size_t n) {
    // An empty span changes nothing, and its `data` may be null.
    if (n == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += n;
    if (buffered_ + n < kStripe) {
      std::memcpy(buffer_ + buffered_, p, n);
      buffered_ += n;
      return;
    }
    if (buffered_ > 0) {
      const size_t fill = kStripe - buffered_;
      std::memcpy(buffer_ + buffered_, p, fill);
      Stripe(buffer_);
      p += fill;
      n -= fill;
      buffered_ = 0;
    }
    for (; n >= kStripe; p += kStripe, n -= kStripe) Stripe(p);
    if (n > 0) std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(T));
  }
  /// Length-prefixed array: u64 element count, then the raw bytes.
  template <typename T>
  void Span(std::span<const T> v) {
    Pod(static_cast<uint64_t>(v.size()));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Span(std::span<const T>(v));
  }
  void Str(const std::string& s) {
    Pod(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Tag(unsigned char t) { Bytes(&t, 1); }

  /// Hash of every byte fed so far; feeding may continue afterwards.
  uint64_t Digest() const {
    uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) +
          std::rotl(lane_[2], 12) + std::rotl(lane_[3], 18);
      for (uint64_t lane : lane_) {
        h ^= Round(0, lane);
        h = h * kP1 + kP4;
      }
    } else {
      h = kP5;
    }
    h += total_;
    const unsigned char* p = buffer_;
    size_t n = buffered_;
    for (; n >= 8; p += 8, n -= 8) {
      h ^= Round(0, Load64(p));
      h = std::rotl(h, 27) * kP1 + kP4;
    }
    if (n >= 4) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      h ^= static_cast<uint64_t>(w) * kP1;
      h = std::rotl(h, 23) * kP2 + kP3;
      p += 4;
      n -= 4;
    }
    for (; n > 0; ++p, --n) {
      h ^= *p * kP5;
      h = std::rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr size_t kStripe = 32;
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

  static uint64_t Load64(const unsigned char* p) {
    uint64_t w;  // little-endian, the only byte order we target
    std::memcpy(&w, p, 8);
    return w;
  }
  static uint64_t Round(uint64_t acc, uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  }
  void Stripe(const unsigned char* p) {
    lane_[0] = Round(lane_[0], Load64(p));
    lane_[1] = Round(lane_[1], Load64(p + 8));
    lane_[2] = Round(lane_[2], Load64(p + 16));
    lane_[3] = Round(lane_[3], Load64(p + 24));
  }

  uint64_t lane_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  uint64_t total_ = 0;
  unsigned char buffer_[kStripe] = {};
  size_t buffered_ = 0;
};

}  // namespace freehgc

#endif  // FREEHGC_COMMON_CONTENT_HASH_H_
