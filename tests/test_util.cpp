// Unit tests for the util module: error handling, array views, the
// thread pool and statistics helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "util/array_view.hpp"
#include "util/error.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"

namespace ramr {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    RAMR_REQUIRE(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(RAMR_REQUIRE(2 + 2 == 4, "impossible"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(RAMR_FAIL("boom"), util::Error);
}

TEST(ArrayView, GlobalIndexing) {
  std::vector<double> storage(20, 0.0);
  // View covering i in [3, 7], j in [-1, 2]: width 5, height 4.
  util::View v(storage.data(), 3, -1, 5, 4);
  v(3, -1) = 1.0;
  v(7, 2) = 2.0;
  EXPECT_DOUBLE_EQ(storage.front(), 1.0);
  EXPECT_DOUBLE_EQ(storage.back(), 2.0);
  EXPECT_TRUE(v.contains(5, 0));
  EXPECT_FALSE(v.contains(8, 0));
  EXPECT_FALSE(v.contains(3, 3));
}

TEST(ArrayView, RowMajorLayout) {
  std::vector<double> storage(6);
  std::iota(storage.begin(), storage.end(), 0.0);
  util::View v(storage.data(), 0, 0, 3, 2);
  EXPECT_DOUBLE_EQ(v(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(v(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(v(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(v(2, 1), 5.0);
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndSingleElementRanges) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { count = -100; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](std::int64_t b, std::int64_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  util::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(10, [&](std::int64_t bb, std::int64_t ee) {
        total += (ee - bb);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, SequentialReuse) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) {
        local += i;
      }
      sum += local;
    });
    ASSERT_EQ(sum.load(), 1000 * 999 / 2);
  }
}

TEST(ThreadPool, TwoCallersShareOnePool) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 3 * util::ThreadPool::kDefaultGrain;
  constexpr int kRounds = 1000;
  std::vector<std::atomic<int>> hits_a(n);
  std::vector<std::atomic<int>> hits_b(n);
  auto caller = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
    }
  };
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits_a[static_cast<std::size_t>(i)].load(), kRounds) << i;
    ASSERT_EQ(hits_b[static_cast<std::size_t>(i)].load(), kRounds) << i;
  }
}

TEST(ThreadPool, RangesAtTheGrainCoverEveryIndexOnce) {
  util::ThreadPool pool(4);
  for (std::int64_t grain : {std::int64_t{1}, std::int64_t{7},
                             util::ThreadPool::kDefaultGrain}) {
    for (std::int64_t n : {grain, grain + 1}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<int> calls{0};
      pool.parallel_for(
          n,
          [&](std::int64_t b, std::int64_t e) {
            ++calls;
            for (std::int64_t i = b; i < e; ++i) {
              hits[static_cast<std::size_t>(i)].fetch_add(1);
            }
          },
          grain);
      for (const auto& h : hits) {
        ASSERT_EQ(h.load(), 1) << "grain " << grain << " n " << n;
      }
      if (n == grain) {
        EXPECT_EQ(calls.load(), 1) << "a range of one grain runs inline";
      }
    }
  }
}

TEST(ThreadPool, ChunksAreNeverSmallerThanTheGrain) {
  util::ThreadPool pool(4);
  constexpr std::int64_t grain = 100;
  constexpr std::int64_t n = 1000;
  std::atomic<int> short_chunks{0};
  pool.parallel_for(
      n,
      [&](std::int64_t b, std::int64_t e) {
        if (e - b < grain && e != n) {
          ++short_chunks;
        }
      },
      grain);
  EXPECT_EQ(short_chunks.load(), 0);
}

TEST(ThreadPool, BackToBackLaunchesComplete) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 3 * util::ThreadPool::kDefaultGrain;
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 100000; ++round) {
    pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), n * 100000);
}

TEST(ThreadPool, BuildAndDestroyWithoutLaunching) {
  for (int i = 0; i < 200; ++i) {
    util::ThreadPool pool(4);
  }
}

TEST(ThreadPool, NestedCallRunsOnTheChunksThread) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 64 * util::ThreadPool::kDefaultGrain;
  std::atomic<int> moved{0};
  pool.parallel_for(n, [&](std::int64_t, std::int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(n, [&](std::int64_t, std::int64_t) {
      if (std::this_thread::get_id() != outer) {
        ++moved;
      }
    });
  });
  EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPool, ChunkExceptionReachesTheCaller) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 16 * util::ThreadPool::kDefaultGrain;
  EXPECT_THROW(pool.parallel_for(n,
                                 [&](std::int64_t b, std::int64_t) {
                                   if (b > 0) {
                                     throw util::Error("chunk failed");
                                   }
                                 }),
               util::Error);
  // The pool is usable afterwards.
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) { total += e - b; });
  EXPECT_EQ(total.load(), n);
}

TEST(RunningStats, Accumulates) {
  util::RunningStats s;
  for (double x : {3.0, 1.0, 2.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  util::RunningStats a;
  util::RunningStats b;
  util::RunningStats all;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 0.7 - 2.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RelDiff, BasicProperties) {
  EXPECT_DOUBLE_EQ(util::rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(util::rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_GT(util::rel_diff(0.0, 1.0), 0.99);
}

}  // namespace
}  // namespace ramr
