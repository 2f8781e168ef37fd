#include "src/support/thread_pool.h"

#include <atomic>

#include "src/support/env.h"

namespace noctua {

// One ParallelFor invocation: the task list, its cursor, and the workers draining it.
struct ThreadPool::Batch {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  const std::vector<size_t>* order = nullptr;  // null = identity
  std::atomic<size_t> next{0};  // the cursor: the next dispatch position to claim
  int attached = 0;             // pool workers draining this batch; guarded by mu_

  // Claims and runs dispatch positions until the order runs out.
  void Drain() {
    for (size_t k = next++; k < n; k = next++) {
      (*fn)(order != nullptr ? (*order)[k] : k);
    }
  }
};

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int ThreadPool::DefaultThreads() {
  // More worker threads than env::kMaxThreads is never useful for pair verification and
  // usually a typo (an extra digit); env::PositiveIntOr clamps rather than spawn
  // thousands of threads, and rejects non-integers with a one-shot warning.
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(env::PositiveIntOr(
      "NOCTUA_THREADS", hw == 0 ? 1 : static_cast<long>(hw), env::kMaxThreads));
}

void ThreadPool::WorkerLoop() {
  uint64_t last_seen = 0;
  for (;;) {
    Batch* b;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || (batch_ != nullptr && batch_seq_ != last_seen); });
      if (shutdown_) {
        return;
      }
      b = batch_;
      last_seen = batch_seq_;
      // Attach under the lock: ParallelFor only unpublishes (and destroys) the batch
      // after observing attached == 0 under this same lock.
      ++b->attached;
    }
    b->Drain();
    std::lock_guard<std::mutex> lk(mu_);
    if (--b->attached == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const std::vector<size_t>* order) {
  if (workers_.empty()) {  // lazy start; a one-thread pool never starts a worker
    for (int w = 1; w < threads_; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  Batch b{n, &fn, order};
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = &b;
    ++batch_seq_;
  }
  work_cv_.notify_all();

  // The caller drains too. Once its own claim runs past the end, every task has been
  // claimed by it or by an attached worker, so the batch is done when none is attached.
  b.Drain();
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return b.attached == 0; });
  batch_ = nullptr;  // unpublish before the stack frame (and Batch) dies
}

}  // namespace noctua
