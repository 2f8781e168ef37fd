// A small thread pool for embarrassingly parallel verification work.
//
// Design notes:
//  - One shared cursor per batch: the caller and every attached worker claim the next
//    position of the dispatch order until the order runs out. Tasks therefore start in
//    exactly the dispatch order (the verifier's cheapest-first order) at any thread
//    count, and an idle participant simply claims the next one.
//  - The caller participates: ParallelFor runs tasks on the calling thread too, so a
//    pool of N threads uses N cores, not N+1, and a one-thread pool runs the same loop
//    on the caller and never starts a worker (important for deterministic baselines).
//  - Tasks are indexed, not futures: ParallelFor(n, fn) invokes fn(i) for every
//    i in [0, n) exactly once and returns when all are done. Results are written by the
//    caller into pre-sized slots, which keeps output ordering independent of the
//    execution interleaving.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace noctua {

class ThreadPool {
 public:
  // `threads` is the degree of parallelism including the calling thread; values < 1 are
  // clamped to 1. The pool spawns `threads - 1` workers lazily on the first ParallelFor.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Runs fn(i) for every i in [0, n) across the pool (including the calling thread) and
  // blocks until all invocations return. `order` optionally gives the dispatch order
  // (a permutation of [0, n)); tasks start in that order — the hook for cheapest-first
  // scheduling. fn must be safe to call concurrently from different threads for
  // different i. One ParallelFor at a time per pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::vector<size_t>* order = nullptr);

  // Degree of parallelism to use by default: the NOCTUA_THREADS environment variable if
  // set to a positive integer, otherwise std::thread::hardware_concurrency() (>= 1).
  static int DefaultThreads();

 private:
  struct Batch;

  void WorkerLoop();

  const int threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a new batch
  std::condition_variable done_cv_;   // ParallelFor waits here for workers to detach
  Batch* batch_ = nullptr;            // the active batch, null when idle
  uint64_t batch_seq_ = 0;            // bumped per batch so workers notice new work
  bool shutdown_ = false;

  // Started by the first ParallelFor; declared after the state they use.
  std::vector<std::thread> workers_;
};

}  // namespace noctua

#endif  // SRC_SUPPORT_THREAD_POOL_H_
