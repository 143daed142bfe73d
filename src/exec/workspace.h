#ifndef FREEHGC_EXEC_WORKSPACE_H_
#define FREEHGC_EXEC_WORKSPACE_H_

#include <cstdint>
#include <vector>

namespace freehgc::exec {

/// Per-worker reusable scratch arena.
///
/// Hot kernels (SpGEMM row merges, PPR residuals, HGNN propagation,
/// Jaccard path masks) used to allocate their scratch vectors on
/// every call; an ExecContext instead hands each worker one Workspace
/// whose buffers grow monotonically and are reused across calls, so
/// steady-state kernel execution performs no heap allocation.
///
/// Buffers hold no semantic state between uses except the Zeroed*
/// buffers (`accum`, `bits`), which are guaranteed all-zero on
/// handout: kernels using them must re-zero exactly the entries they
/// touched before returning (the SPA idiom does this for free).
class Workspace {
 public:
  /// Dense float accumulator of at least `n` entries, all zero. The
  /// caller must restore the zero invariant over touched entries.
  std::vector<float>& ZeroedAccum(size_t n) {
    if (accum_.size() < n) accum_.resize(n, 0.0f);
    return accum_;
  }

  /// Index list scratch (cleared on handout, capacity preserved).
  std::vector<int32_t>& Touched() {
    touched_.clear();
    return touched_;
  }

  /// 64-bit mask words, at least `n` of them, all zero — SpGEMM's
  /// one-bit-per-column first-touch marker (a slot whose sum cancels to
  /// zero is still touched) and PerPathJaccard's per-column path
  /// bitmasks. Same invariant as ZeroedAccum: the caller must re-zero
  /// exactly the words it set before returning.
  std::vector<uint64_t>& ZeroedBits(size_t n) {
    if (bits_.size() < n) bits_.resize(n, 0);
    return bits_;
  }

  /// Byte flags, at least `n` of them, all zero — the greedy coverage
  /// selection's covered columns (a byte test is faster there than a
  /// bit test). Same invariant as ZeroedAccum: the caller must re-zero
  /// exactly the flags it set before returning.
  std::vector<uint8_t>& ZeroedFlags(size_t n) {
    if (flags_.size() < n) flags_.resize(n, 0);
    return flags_;
  }

  /// 64-bit key scratch (cleared on handout, capacity preserved) —
  /// SpGEMM's packed (|value|, column) selection keys.
  std::vector<uint64_t>& Keys() {
    keys_.clear();
    return keys_;
  }

  /// Float scratch of exactly `n` entries, value-initialized to `fill`.
  std::vector<float>& F32(size_t n, float fill = 0.0f) {
    f32_.assign(n, fill);
    return f32_;
  }

  /// int32 scratch of exactly `n` entries.
  std::vector<int32_t>& I32(size_t n, int32_t fill = 0) {
    i32_.assign(n, fill);
    return i32_;
  }

  /// Bytes currently reserved by the arena's buffers. The exec layer
  /// tracks the high-water mark across all workers in the
  /// "exec.workspace_bytes_hwm" gauge.
  size_t BytesReserved() const {
    return accum_.capacity() * sizeof(float) +
           bits_.capacity() * sizeof(uint64_t) + flags_.capacity() +
           keys_.capacity() * sizeof(uint64_t) +
           touched_.capacity() * sizeof(int32_t) +
           f32_.capacity() * sizeof(float) +
           i32_.capacity() * sizeof(int32_t);
  }

 private:
  std::vector<float> accum_;
  std::vector<uint64_t> bits_;
  std::vector<uint8_t> flags_;
  std::vector<uint64_t> keys_;
  std::vector<int32_t> touched_;
  std::vector<float> f32_;
  std::vector<int32_t> i32_;
};

}  // namespace freehgc::exec

#endif  // FREEHGC_EXEC_WORKSPACE_H_
