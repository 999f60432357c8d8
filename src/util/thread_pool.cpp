#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace ramr::util {

namespace {

// How long an idle worker polls the epoch before it parks: long enough to
// bridge the host work between the launches of one stage, short enough
// that an idle process gives its cores back.
constexpr std::chrono::microseconds kSpinWindow{100};

// Chunks per thread (workers plus the caller) for large ranges, so a
// straggler's last chunk is a small share of the launch.
constexpr std::int64_t kChunksPerThread = 4;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins until pred() holds, yielding the core between polls once the
// wait outlasts a short burst.
template <typename Pred>
void spin_until(Pred pred) {
  for (int i = 0; !pred(); ++i) {
    if (i < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  // The epoch each worker starts from is fixed here, before the thread
  // runs: a worker that read it on its own could miss a bump made before
  // it started (the destructor's wake included) and sleep forever.
  const std::uint64_t start = epoch_.load();
  for (unsigned w = 0; w < workers; ++w) {
    threads_.emplace_back([this, start] { worker_loop(start); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  park_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain) {
  if (n <= 0) {
    return;
  }
  if (n <= grain || !try_dispatch(n, grain, body)) {
    body(0, n);
  }
}

bool ThreadPool::try_dispatch(
    std::int64_t n, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t workers = static_cast<std::int64_t>(threads_.size());
  // A nested call (a chunk's body runs while its launch holds the pool)
  // or a concurrent caller finds the pool busy and runs inline; a pool
  // of one worker would only contend with its caller.
  if (workers <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
    return false;
  }

  const std::int64_t target = kChunksPerThread * (workers + 1);
  Job job;
  job.body = &body;
  job.n = n;
  job.chunk = std::max({grain, std::int64_t{1}, (n + target - 1) / target});
  job.chunks = (n + job.chunk - 1) / job.chunk;

  job_.store(&job);
  epoch_.fetch_add(1);
  // Taking the park mutex orders the epoch bump before any worker's
  // parked predicate check, so no wake is lost.
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  park_cv_.notify_all();

  // The caller claims chunks like any worker.
  run_chunks(job);
  spin_until([&] {
    return job.done.load(std::memory_order_acquire) == job.chunks;
  });

  // Unpublish, then wait out workers that may still hold a pointer to
  // this stack frame. Paired with the workers' increment-then-load, the
  // sequentially consistent store/load pair makes a late worker either
  // be counted here or see the cleared pointer.
  job_.store(nullptr);
  spin_until([&] { return active_.load() == 0; });
  busy_.store(false, std::memory_order_release);

  if (job.failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(job.error);
  }
  return true;
}

void ThreadPool::run_chunks(Job& job) {
  while (true) {
    const std::int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) {
      return;
    }
    const std::int64_t begin = c * job.chunk;
    const std::int64_t end = std::min(begin + job.chunk, job.n);
    try {
      (*job.body)(begin, end);
    } catch (...) {
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.error = std::current_exception();
      }
    }
    // Release: the chunk's writes (and a recorded error) are visible to
    // the caller once it sees the count.
    job.done.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::worker_loop(std::uint64_t seen_epoch) {
  using Clock = std::chrono::steady_clock;
  auto woken = [&] { return stop_.load() || epoch_.load() != seen_epoch; };
  while (true) {
    if (!woken()) {
      const auto deadline = Clock::now() + kSpinWindow;
      for (int i = 0; !woken(); ++i) {
        if ((i & 63) != 63) {
          cpu_relax();
        } else if (Clock::now() < deadline) {
          std::this_thread::yield();
        } else {
          std::unique_lock<std::mutex> lock(park_mutex_);
          park_cv_.wait(lock, woken);
          break;
        }
      }
    }
    if (stop_.load()) {
      return;
    }
    seen_epoch = epoch_.load();
    active_.fetch_add(1);
    if (Job* job = job_.load()) {
      run_chunks(*job);
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace ramr::util
