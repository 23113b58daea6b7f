// Dependency-free fork-join thread pool for the simulator's embarrassingly
// parallel hot paths (the distinct SM slices of core::time_inferences,
// tuner sweeps, serving sweep points, L2 runs).
//
// Determinism contract: parallel_map returns results in input-index order
// and the reduction sites built on it break ties by candidate order, so an
// N-thread run produces bit-identical output to a 1-thread run. A pool of
// size 1 spawns no workers and executes on the calling thread; a run()
// issued from inside a pool task executes inline (nested fan-out cannot
// deadlock and needs no re-entrant queue). Inline means serial on that one
// worker: a fan-out nested inside another runs without the pool, so
// callers flatten their work into one run() instead (as time_inferences
// does for all of its jobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace vitbit {

class ThreadPool {
 public:
  // `threads` >= 1 (checked); the pool owns threads-1 workers and the
  // calling thread participates in every run().
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  // Executes fn(0) .. fn(n-1) across the pool and blocks until all have
  // finished. If any invocation throws, the exception with the lowest
  // index is rethrown after the whole batch drains (deterministic across
  // thread counts).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  // run() collecting fn's results into a vector in index order.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    std::vector<std::invoke_result_t<Fn&, std::size_t>> out(n);
    run(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // std::thread::hardware_concurrency with a floor of 1 (the value the
  // --threads flag defaults to).
  static int default_threads();

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;       // next unclaimed index
    std::size_t completed = 0;  // finished (or failed) invocations
  };

  void worker_loop();
  void execute_tasks();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a job (or stop) is pending
  std::condition_variable done_cv_;  // run(): the current job drained
  Job job_;
  bool stop_ = false;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
};

// parallel_map that tolerates a missing pool: serial in index order when
// `pool` is null, pooled otherwise. Call sites stay on one code path for
// every thread count, which is what makes the determinism contract cheap
// to uphold.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  if (pool != nullptr) return pool->parallel_map(n, fn);
  std::vector<std::invoke_result_t<Fn&, std::size_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
  return out;
}

}  // namespace vitbit
