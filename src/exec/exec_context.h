#ifndef FREEHGC_EXEC_EXEC_CONTEXT_H_
#define FREEHGC_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.h"
#include "exec/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::exec {

/// Per-thread scratch arena for *nested* parallel regions: when a kernel
/// issues a ParallelFor from inside another ParallelFor body, the nested
/// call runs serially on the calling thread with this workspace instead
/// of the driver's or a helper's arena (which the enclosing chunk may
/// still be using). One level of nesting is supported; deeper nesting
/// would alias this arena, so kernels must not rely on it.
Workspace& NestedWorkspace();

/// Execution context shared by every hot path of the library: a thread
/// pool to borrow helpers from, deterministic parallel-for / ordered
/// parallel-reduce primitives, and the driver's reusable Workspace (the
/// pool keeps one per helper).
///
/// Determinism contract (what makes results bit-identical across thread
/// counts):
///  - Static chunking: an index range [0, n) is cut into fixed-size
///    chunks whose size depends only on n and the kernel's grain — never
///    on the thread count. Chunk c always covers the same indices.
///  - Per-chunk results: a chunk writes only to disjoint output (rows of
///    a matrix, its slot in a partials array), so the thread that happens
///    to run it cannot influence the value.
///  - Ordered reduction: ParallelReduce folds per-chunk partials in
///    chunk order on the calling thread, fixing the floating-point
///    association independently of scheduling.
///  - Per-chunk RNG streams: kernels needing randomness derive one seeded
///    freehgc::Rng per chunk (from the caller's seed and the chunk id),
///    never sharing a stream across chunks.
///
/// An ExecContext is not itself thread-safe: one thread drives it at a
/// time. Several contexts may share one ThreadPool and drive it
/// concurrently (a server's slots do): each ParallelFor then runs on its
/// driver plus whichever helpers are idle.
class ExecContext {
 public:
  /// Creates a context over its own pool of `num_threads` workers. 0 (the
  /// default) means "resolve automatically": the FREEHGC_THREADS
  /// environment variable if set to a positive integer, otherwise the
  /// hardware concurrency.
  explicit ExecContext(int num_threads = 0);

  /// Creates a context that drives `shared`, a pool other contexts may
  /// drive at the same time. `shared` must outlive the context.
  explicit ExecContext(ThreadPool& shared);
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// The most threads one ParallelFor uses: the driver plus every helper
  /// of the pool.
  int num_threads() const { return pool_->size(); }

  /// Runs fn(begin, end, ws) over static chunks of [0, n). `grain` is the
  /// minimum chunk size (>= 1); the chunk layout is a pure function of
  /// (n, grain), so outputs are identical for every thread count. The
  /// first exception thrown by the lowest-indexed failing chunk is
  /// rethrown on the calling thread after all chunks finish.
  template <typename Fn>
  void ParallelFor(int64_t n, int64_t grain, Fn&& fn) {
    if (n <= 0) return;
    const int64_t chunk = ChunkSize(n, grain);
    const int64_t num_chunks = (n + chunk - 1) / chunk;
    if (ThreadPool::InParallelRegion()) {
      // Nested parallel region (a kernel called from inside another
      // ParallelFor body, e.g. a per-relation Transpose): the body may be
      // on a helper thread, and a nested Run would make it a second
      // driver of this context, sharing the driver's workspace with the
      // enclosing chunk. Run the same chunk layout serially on this
      // thread instead — bit-identical output, and a dedicated
      // per-thread workspace so the nested kernel cannot alias buffers
      // the enclosing chunk is still using.
      Workspace& ws = NestedWorkspace();
      for (int64_t c = 0; c < num_chunks; ++c) {
        fn(c * chunk, std::min(n, (c + 1) * chunk), ws);
      }
      return;
    }
    // Per-invoke observability (spans, clock reads, exec.* counters) is
    // gated on one branch: iterative kernels issue thousands of tiny
    // invokes, and even a non-inlined counter call per invoke shows up
    // (a PPR micro-benchmark regressed ~8% before this gate).
    // Kernel-level value counters (spgemm.flops, ...) amortize over real
    // work and stay on unconditionally.
    const bool obs_on =
        obs::DetailedMetricsEnabled() || obs::TracingEnabled();
    if (num_threads() == 1 || num_chunks == 1) {
      Workspace& ws = ws_;
      auto run_serial = [&] {
        ThreadPool::RegionScope in_region;
        for (int64_t c = 0; c < num_chunks; ++c) {
          fn(c * chunk, std::min(n, (c + 1) * chunk), ws);
        }
      };
      if (obs_on) {
        const int64_t t0 = obs::NowNs();
        FREEHGC_TRACE_SPAN_WORKER("parallel_for", 0);
        run_serial();
        const int64_t elapsed = obs::NowNs() - t0;
        NoteParallelFor(num_chunks, /*busy_ns=*/elapsed,
                        /*wall_ns=*/elapsed, /*workers=*/1);
      } else {
        run_serial();
      }
      return;
    }
    std::atomic<int64_t> busy_ns{0};
    std::mutex err_mu;
    int64_t err_chunk = -1;
    std::exception_ptr err;
    auto run_chunks = [&](Workspace& ws, ThreadPool::Cursor& chunks) {
      for (int64_t c; (c = chunks.Next()) >= 0;) {
        try {
          fn(c * chunk, std::min(n, (c + 1) * chunk), ws);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (err_chunk < 0 || c < err_chunk) {
            err_chunk = c;
            err = std::current_exception();
          }
        }
      }
    };
    const int64_t t0 = obs_on ? obs::NowNs() : 0;
    const int workers = pool_->Run(
        num_chunks, ws_,
        [&](int worker, Workspace& ws, ThreadPool::Cursor& chunks) {
          if (obs_on) {
            const int64_t w0 = obs::NowNs();
            FREEHGC_TRACE_SPAN_WORKER("parallel_for", worker);
            run_chunks(ws, chunks);
            busy_ns.fetch_add(obs::NowNs() - w0, std::memory_order_relaxed);
          } else {
            run_chunks(ws, chunks);
          }
        });
    if (obs_on) {
      NoteParallelFor(num_chunks, busy_ns.load(std::memory_order_relaxed),
                      obs::NowNs() - t0, workers);
    }
    if (err) std::rethrow_exception(err);
  }

  /// Ordered reduction: computes map(begin, end, ws) per static chunk,
  /// then folds the per-chunk partials in chunk order with
  /// acc = combine(acc, partial). The fold runs on the calling thread, so
  /// the floating-point association is fixed by the chunk layout alone.
  template <typename T, typename Map, typename Combine>
  T ParallelReduce(int64_t n, int64_t grain, T init, Map&& map,
                   Combine&& combine) {
    if (n <= 0) return init;
    const int64_t chunk = ChunkSize(n, grain);
    const int64_t num_chunks = (n + chunk - 1) / chunk;
    std::vector<T> partials(static_cast<size_t>(num_chunks));
    ParallelFor(n, grain,
                [&](int64_t begin, int64_t end, Workspace& ws) {
                  partials[static_cast<size_t>(begin / chunk)] =
                      map(begin, end, ws);
                });
    T acc = std::move(init);
    for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
    return acc;
  }

  /// The chunk width ParallelFor/ParallelReduce will use for a range of
  /// `n` items at the given grain. Exposed so kernels that stage
  /// per-chunk output buffers can compute the layout themselves.
  static int64_t ChunkSize(int64_t n, int64_t grain) {
    // Cap the chunk count at a constant so scheduling overhead stays
    // bounded; the cap is independent of the thread count on purpose.
    constexpr int64_t kMaxChunks = 256;
    const int64_t g = std::max<int64_t>(1, grain);
    return std::max(g, (n + kMaxChunks - 1) / kMaxChunks);
  }

  /// Number of chunks ParallelFor will cut [0, n) into.
  static int64_t NumChunks(int64_t n, int64_t grain) {
    if (n <= 0) return 0;
    const int64_t chunk = ChunkSize(n, grain);
    return (n + chunk - 1) / chunk;
  }

 private:
  /// Metrics hook run after an observed ParallelFor (only when tracing
  /// or detailed metrics are armed): bumps the exec.* counters (calls,
  /// chunks, per-worker busy/idle nanoseconds over the `workers` that
  /// took part) and raises the workspace high-water-mark gauge (the
  /// driver's arena plus the pool's helpers'). Call/chunk counts are
  /// deterministic; the *_ns counters measure the schedule and are not.
  void NoteParallelFor(int64_t num_chunks, int64_t busy_ns, int64_t wall_ns,
                       int workers);

  std::unique_ptr<ThreadPool> owned_pool_;  // null when driving a shared one
  ThreadPool* pool_;
  Workspace ws_;  // the driver's arena; helpers use the pool's
};

/// Work, in inner-loop steps (a scanned column, a multiply-add, a read
/// feature), below which a list of independent tasks is not worth
/// fanning out over the pool: waking and joining helpers costs about
/// as much. core::RunTasks runs a smaller list one task after another
/// on the calling thread.
inline constexpr int64_t kMinFanOutWork = int64_t{1} << 16;

/// Thread count ExecContext resolves for num_threads == 0: the
/// FREEHGC_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency() (min 1).
int DefaultNumThreads();

/// The most threads one request uses on a service running `slots`
/// concurrent ExecContexts over one shared ThreadPool: the slot's own
/// thread plus the pool's DefaultNumThreads() - slots helpers, so the
/// slots and the helpers together are DefaultNumThreads() threads and a
/// lone request borrows every helper. Min 1.
int ThreadsPerSlot(int slots);

/// How many of `slots` worker slots may *execute* concurrently without
/// time-slicing: min(slots, DefaultNumThreads()). On a machine with fewer
/// cores than slots the slot threads themselves would contend (each
/// drives its context on its own thread), so the scheduler caps
/// concurrent dispatch at this value — extra slots stay parked until a
/// token frees.
int ConcurrentSlotBudget(int slots);

/// Process-wide default context (lazily constructed with
/// DefaultNumThreads()). Kernel entry points fall back to this when the
/// caller passes no context.
ExecContext& DefaultExec();

/// Resolves an optional caller-supplied context to a usable one.
inline ExecContext& Resolve(ExecContext* ctx) {
  return ctx != nullptr ? *ctx : DefaultExec();
}

}  // namespace freehgc::exec

#endif  // FREEHGC_EXEC_EXEC_CONTEXT_H_
