#ifndef FREEHGC_EXEC_THREAD_POOL_H_
#define FREEHGC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/workspace.h"

namespace freehgc::exec {

/// Fixed set of persistent helper threads that any number of driver
/// threads can borrow at once.
///
/// The pool is deliberately work-stealing-free: it exposes exactly one
/// primitive, Run, which hands a chunked job's cursor to the calling
/// thread and to whichever idle helpers join it. Chunk distribution (and
/// therefore determinism) is fixed by the job: participants claim chunk
/// ids from one atomic cursor, so which *thread* runs a chunk never
/// affects what the chunk computes.
///
/// A pool of size n owns n-1 helper threads; every Run's caller
/// participates as worker 0, so size() == 1 means no threads are ever
/// spawned and every Run executes inline. Several threads may call Run
/// concurrently (a server's slots share one pool): each open Run is a
/// job, and an idle helper joins the open job with the fewest helpers
/// that still has unclaimed chunks.
class ThreadPool {
 public:
  /// The chunk cursor one Run shares among its participants.
  class Cursor {
   public:
    /// The next unclaimed chunk id, or -1 once every chunk is claimed.
    int64_t Next() {
      const int64_t c = next_.fetch_add(1, std::memory_order_relaxed);
      return c < num_chunks_ ? c : -1;
    }

   private:
    friend class ThreadPool;
    explicit Cursor(int64_t num_chunks) : num_chunks_(num_chunks) {}
    bool Drained() const {
      return next_.load(std::memory_order_relaxed) >= num_chunks_;
    }

    std::atomic<int64_t> next_{0};
    const int64_t num_chunks_;
  };

  /// One participant's share of a Run: claim chunks from `chunks` until
  /// it returns -1, using `ws` as scratch. `worker` is 0 for the caller
  /// and the helper's index in [1, size()) for a helper. Exceptions must
  /// be contained by the body (ExecContext's ParallelFor captures and
  /// rethrows them on the caller).
  using Body = std::function<void(int worker, Workspace& ws, Cursor& chunks)>;

  /// Creates a pool with `size` workers total: size-1 helper threads plus
  /// the caller of each Run. size < 1 is clamped to 1.
  explicit ThreadPool(int size);

  /// Joins all helpers. Must not be called while a Run is open.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The most workers one Run can use: the helpers plus its caller.
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs `body` on the calling thread (worker 0, with `ws`) over a job
  /// of `num_chunks` chunks, waking at most min(idle helpers,
  /// num_chunks - 1) helpers to join it, each with the Workspace the
  /// pool keeps for it. A helper joins only while chunks remain, and one
  /// that leaves because the cursor drained never rejoins that job.
  /// Returns once the caller's body has returned and every helper that
  /// joined has left; the result is the number of participants (1 + the
  /// helpers that joined).
  ///
  /// `ws` must not be in use by any other participant. ExecContext passes
  /// its driver's arena, and runs a region nested inside a body serially
  /// instead of calling Run (see InParallelRegion).
  int Run(int64_t num_chunks, Workspace& ws, const Body& body);

  /// Bytes reserved by the helpers' workspaces, as each helper last
  /// published it (after every job it joined). The exec layer adds this
  /// to its driver workspace for the "exec.workspace_bytes_hwm" gauge.
  size_t HelperWorkspaceBytes() const;

  /// True while the calling thread is executing a Run body (either as a
  /// helper or as the calling thread). Process-wide: the flag is
  /// thread-local, so it also reports regions driven by *other* pools,
  /// which is exactly the conservative answer nested kernels want.
  /// Out-of-line on purpose: the flag is a thread_local private to
  /// thread_pool.cc, so no other TU touches TLS directly (cross-TU TLS
  /// wrappers miscompile under some sanitizer setups).
  static bool InParallelRegion();

  /// RAII setter for the thread-local region flag, exception-safe so a
  /// throwing body (contained or not) cannot leave the flag stuck. Run
  /// arms it around every body; ExecContext also arms it around its
  /// inline serial path so nested kernels behave identically at every
  /// thread count.
  struct RegionScope {
    RegionScope();
    ~RegionScope();
  };

 private:
  /// One open Run, on its caller's stack; guarded by mu_ except for the
  /// cursor.
  struct Job {
    Job(int64_t num_chunks, const Body& body)
        : cursor(num_chunks), body(body) {}
    Cursor cursor;
    const Body& body;
    int inside = 0;  // helpers running the body now
    int joined = 0;  // helpers that ever joined
    std::condition_variable left_cv;  // the caller waits for inside == 0
  };

  /// A helper's own state: its scratch arena and the bytes it reserves,
  /// published after each job for HelperWorkspaceBytes.
  struct Helper {
    Workspace ws;
    std::atomic<size_t> bytes{0};
  };

  void HelperLoop(int worker);
  /// The open job with unclaimed chunks and the fewest helpers inside
  /// (the oldest on a tie), or null. Callers hold mu_.
  Job* PickJob();

  std::vector<std::unique_ptr<Helper>> helpers_;
  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // helpers: a job opened, or shutdown
  std::vector<Job*> open_;           // open jobs, oldest first
  int idle_ = 0;                     // helpers waiting on work_cv_
  bool shutdown_ = false;
};

}  // namespace freehgc::exec

#endif  // FREEHGC_EXEC_THREAD_POOL_H_
