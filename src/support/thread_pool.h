// A small work-stealing thread pool for embarrassingly parallel verification work.
//
// Design notes:
//  - Each worker owns a deque; tasks are pushed round-robin and idle workers steal from
//    the back of a victim's deque. For the verifier's workload (a few hundred
//    independent SMT checks of wildly varying cost) stealing keeps all cores busy even
//    when one worker draws several expensive pairs in a row.
//  - The caller participates: ParallelFor runs tasks on the calling thread too, so a
//    pool of N threads uses N cores, not N+1, and `threads == 1` degenerates to a plain
//    serial loop with no thread ever spawned (important for deterministic baselines).
//  - Tasks are indexed, not futures: ParallelFor(n, fn) invokes fn(i) for every
//    i in [0, n) exactly once and returns when all are done. Results are written by the
//    caller into pre-sized slots, which keeps output ordering independent of the
//    execution interleaving.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
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

  // Cumulative scheduling statistics across all ParallelFor batches this pool ran.
  // `steals` counts tasks a participant popped from another participant's deque — a
  // direct measure of how unevenly the dealt work was sized. Callers that want the
  // numbers for one region snapshot stats() before and after. (The pool does not depend
  // on noctua::obs; the verifier bridges these into its counters.)
  struct Stats {
    uint64_t tasks = 0;
    uint64_t steals = 0;
  };
  Stats stats() const {
    return Stats{tasks_.load(std::memory_order_relaxed),
                 steals_.load(std::memory_order_relaxed)};
  }

  // Runs fn(i) for every i in [0, n) across the pool (including the calling thread) and
  // blocks until all invocations return. `order` optionally gives the dispatch order
  // (a permutation of [0, n)); earlier entries are started first — the hook for
  // cheapest-first scheduling. fn must be safe to call concurrently from different
  // threads for different i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::vector<size_t>* order = nullptr);

  // Degree of parallelism to use by default: the NOCTUA_THREADS environment variable if
  // set to a positive integer, otherwise std::thread::hardware_concurrency() (>= 1).
  static int DefaultThreads();

 private:
  struct Batch;

  void WorkerLoop(size_t worker_index);
  void StartWorkers();

  const int threads_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a new batch
  std::condition_variable done_cv_;   // ParallelFor waits here for batch completion
  Batch* batch_ = nullptr;            // the active batch, null when idle
  uint64_t batch_seq_ = 0;            // bumped per batch so workers notice new work
  bool shutdown_ = false;

  std::atomic<uint64_t> tasks_{0};    // tasks executed, all batches
  std::atomic<uint64_t> steals_{0};   // cross-deque pops, all batches
};

}  // namespace noctua

#endif  // SRC_SUPPORT_THREAD_POOL_H_
