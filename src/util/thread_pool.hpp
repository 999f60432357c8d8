// A process-wide worker pool used to execute virtual-GPU kernels and
// host-side parallel loops for real (the timing of those operations is
// modeled separately; see vgpu/device.hpp).
//
// parallel_for is a fully joining (structured) operation in the spirit
// of CP.23/CP.25 of the C++ Core Guidelines: no work escapes a call, and
// an exception thrown by a chunk is rethrown on the caller.
//
// A launch costs next to nothing when small and little when not:
//
// - Grain. A range of at most `grain` indices runs as body(0, n) on the
//   caller with no hand-off, and chunks are never smaller than `grain`.
//   Most launches of a small-patch AMR step (boundary strips, per-patch
//   copies) take this path.
// - Inline when the pool is taken. A call made while the pool runs
//   another launch — a nested call from inside a chunk, or a concurrent
//   call from a second thread such as another simulated rank — runs
//   inline on its caller instead of waiting for the pool.
// - Lock-free hand-off. The job lives on the caller's stack and is
//   published through an atomic pointer and an epoch counter; workers
//   and the caller claim chunks from an atomic counter. Idle workers
//   spin on the epoch for a bounded time, then park on a condition
//   variable, so back-to-back launches find them awake and an idle
//   process does not keep its cores busy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ramr::util {

/// Fixed-size worker pool executing blocking parallel-for loops.
class ThreadPool {
 public:
  /// Smallest range split across threads, in indices, for the per-cell
  /// kernels that use the default. Chosen by measurement: on bench_suite's
  /// kh_smallpatch (4-vCPU VM), host cell updates per second are flat for
  /// grains from 128 to 2048 and fall from 4096 up; the top of the flat
  /// range hands off the fewest chunks.
  static constexpr std::int64_t kDefaultGrain = 2048;

  /// Creates `workers` threads (defaults to hardware concurrency).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const { return static_cast<unsigned>(threads_.size()); }

  /// Executes body(begin, end) over [0, n) split into contiguous chunks
  /// of at least `grain` indices, and blocks until every chunk completed.
  /// Runs body(0, n) on the caller when n <= grain, when called from
  /// inside a chunk, or when another launch holds the pool.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& body,
                    std::int64_t grain = kDefaultGrain);

  /// The process-wide pool shared by every virtual device and host
  /// executor. Created on first use.
  static ThreadPool& global();

 private:
  /// One launch. Lives on the publishing caller's stack, which does not
  /// return before every worker has stopped touching it.
  struct Job {
    const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
    std::int64_t n = 0;
    std::int64_t chunk = 0;
    std::int64_t chunks = 0;
    std::atomic<std::int64_t> next{0};  // next chunk index to claim
    std::atomic<std::int64_t> done{0};  // chunks finished
    std::atomic<bool> failed{false};    // set once, by the first throw
    std::exception_ptr error;           // written by whoever set `failed`
  };

  /// Runs the launch across the pool and returns true, or returns false
  /// without running anything when the pool is held by another launch.
  bool try_dispatch(std::int64_t n, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);
  static void run_chunks(Job& job);
  void worker_loop(std::uint64_t seen_epoch);

  std::atomic<bool> busy_{false};        // a launch owns the pool
  std::atomic<Job*> job_{nullptr};       // the published launch, if any
  std::atomic<std::uint64_t> epoch_{0};  // bumped once per publication
  std::atomic<int> active_{0};           // workers that may touch *job_
  std::atomic<bool> stop_{false};
  std::mutex park_mutex_;                // guards parking on park_cv_
  std::condition_variable park_cv_;
  std::vector<std::thread> threads_;     // last: joins before the rest dies
};

}  // namespace ramr::util
