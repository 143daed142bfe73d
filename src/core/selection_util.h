#ifndef FREEHGC_CORE_SELECTION_UTIL_H_
#define FREEHGC_CORE_SELECTION_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dense/matrix.h"
#include "exec/exec_context.h"

namespace freehgc::core {

/// Uniformly samples `budget` ids from `pool` (deterministic under seed).
std::vector<int32_t> RandomSelect(const std::vector<int32_t>& pool,
                                  int32_t budget, uint64_t seed);

/// Herding (Welling 2009): greedily picks pool elements whose running
/// feature mean tracks the pool's feature mean. `features` is indexed by
/// the ids appearing in `pool`.
std::vector<int32_t> HerdingSelect(const Matrix& features,
                                   const std::vector<int32_t>& pool,
                                   int32_t budget);

/// K-center (farthest-point) selection: picks centers minimizing the
/// maximum distance from any pool element to its nearest center.
std::vector<int32_t> KCenterSelect(const Matrix& features,
                                   const std::vector<int32_t>& pool,
                                   int32_t budget, uint64_t seed);

/// Splits an overall budget across classes proportionally to class sizes
/// in `labels` restricted to `pool` (at least 1 per non-empty class, total
/// == budget). Returns per-class budgets of length num_classes.
std::vector<int32_t> PerClassBudget(const std::vector<int32_t>& labels,
                                    const std::vector<int32_t>& pool,
                                    int32_t num_classes, int32_t budget);

/// Pools elements of class `c`.
std::vector<int32_t> PoolOfClass(const std::vector<int32_t>& labels,
                                 const std::vector<int32_t>& pool,
                                 int32_t c);

/// Runs task(i, ws) for every i in [0, work.size()) as one task list on
/// `ex`, where work[i] estimates task i's inner-loop steps. The list
/// fans out as a grain-1 ParallelFor, one task per chunk: each task runs
/// inline on one thread (a kernel it calls runs serially there, on the
/// nested workspace), the tasks run concurrently, and `ws` is the
/// chunk's scratch arena. A list that cannot gain from that runs its
/// tasks one after another on the calling thread instead, outside any
/// parallel region and with one fresh arena, so the kernels they call
/// keep their row parallelism: a list of one task, a list whose total
/// work is below exec::kMinFanOutWork, and a list where one task
/// carries more than half of the work (that task would bound the
/// fan-out's time anyway). A task writes only its own output slot,
/// sized by the caller beforehand, and must not call the
/// AdjacencyCache; the caller combines the slots in index order, so the
/// result does not depend on the thread count or on which task finished
/// first.
template <typename Task>
void RunTasks(exec::ExecContext& ex, const std::vector<int64_t>& work,
              Task&& task) {
  int64_t total = 0, largest = 0;
  for (int64_t w : work) {
    total += w;
    largest = std::max(largest, w);
  }
  if (total < exec::kMinFanOutWork || 2 * largest > total) {
    exec::Workspace ws;
    for (size_t i = 0; i < work.size(); ++i) task(i, ws);
    return;
  }
  ex.ParallelFor(static_cast<int64_t>(work.size()), 1,
                 [&](int64_t begin, int64_t end, exec::Workspace& ws) {
                   for (int64_t i = begin; i < end; ++i) {
                     task(static_cast<size_t>(i), ws);
                   }
                 });
}

}  // namespace freehgc::core

#endif  // FREEHGC_CORE_SELECTION_UTIL_H_
