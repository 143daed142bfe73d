#include "exec/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"

namespace freehgc::exec {

namespace {
thread_local bool t_in_parallel_region = false;
}  // namespace

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

ThreadPool::RegionScope::RegionScope() { t_in_parallel_region = true; }
ThreadPool::RegionScope::~RegionScope() { t_in_parallel_region = false; }

ThreadPool::ThreadPool(int size) {
  const int n = size < 1 ? 1 : size;
  helpers_.reserve(static_cast<size_t>(n - 1));
  threads_.reserve(static_cast<size_t>(n - 1));
  for (int w = 1; w < n; ++w) helpers_.push_back(std::make_unique<Helper>());
  for (int w = 1; w < n; ++w) {
    threads_.emplace_back([this, w] { HelperLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool::Job* ThreadPool::PickJob() {
  Job* best = nullptr;
  for (Job* job : open_) {
    if (job->cursor.Drained()) continue;
    if (best == nullptr || job->inside < best->inside) best = job;
  }
  return best;
}

void ThreadPool::HelperLoop(int worker) {
  // Label the thread for trace export (worker 0 is a Run's caller, which
  // names itself).
  obs::SetCurrentThreadName("worker-" + std::to_string(worker));
  Helper& self = *helpers_[static_cast<size_t>(worker - 1)];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    while (!shutdown_ && (job = PickJob()) == nullptr) {
      ++idle_;
      work_cv_.wait(lock);
      --idle_;
    }
    if (shutdown_) return;
    ++job->inside;
    ++job->joined;
    lock.unlock();
    {
      RegionScope in_region;
      job->body(worker, self.ws, job->cursor);
    }
    self.bytes.store(self.ws.BytesReserved(), std::memory_order_relaxed);
    lock.lock();
    // The cursor is drained now, so PickJob never hands this job back.
    // Notify under the lock: the caller may destroy the job as soon as
    // it can re-acquire mu_.
    if (--job->inside == 0) job->left_cv.notify_one();
  }
}

int ThreadPool::Run(int64_t num_chunks, Workspace& ws, const Body& body) {
  Job job(num_chunks, body);
  if (threads_.empty() || num_chunks <= 1) {
    RegionScope in_region;
    body(0, ws, job.cursor);
    return 1;
  }
  int wake = 0;
  bool wake_all = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(&job);
    wake = static_cast<int>(std::min<int64_t>(idle_, num_chunks - 1));
    wake_all = wake == idle_;
  }
  // Waking every idle helper is one futex call instead of one each.
  if (wake_all) {
    work_cv_.notify_all();
  } else {
    for (int i = 0; i < wake; ++i) work_cv_.notify_one();
  }
  {
    RegionScope in_region;
    body(0, ws, job.cursor);
  }
  std::unique_lock<std::mutex> lock(mu_);
  open_.erase(std::find(open_.begin(), open_.end(), &job));
  job.left_cv.wait(lock, [&] { return job.inside == 0; });
  return 1 + job.joined;
}

size_t ThreadPool::HelperWorkspaceBytes() const {
  size_t bytes = 0;
  for (const auto& h : helpers_) {
    bytes += h->bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

}  // namespace freehgc::exec
