#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace parsgd {
namespace {

TEST(ThreadPool, CoversWholeRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SumMatchesSequential) {
  ThreadPool pool(3);
  std::vector<long> data(5000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long> total{0};
  pool.parallel_for(data.size(), [&](std::size_t lo, std::size_t hi) {
    long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 5000L * 4999 / 2);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(6);
  EXPECT_EQ(pool.size(), 6u);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, OversubscribedParallelFor) {
  // n >> workers: the pool splits into kChunksPerWorker chunks per worker
  // (one functor call each) and still covers every index exactly once.
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    calls.fetch_add(1);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(calls.load(),
            static_cast<int>(4 * ThreadPool::kChunksPerWorker));
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionFromMiddleChunk) {
  ThreadPool pool(4);
  const std::size_t n = 1600;
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.parallel_for(n,
                        [&](std::size_t lo, std::size_t hi) {
                          calls.fetch_add(1);
                          if (lo <= n / 2 && n / 2 < hi) {
                            throw std::runtime_error("mid-chunk failure");
                          }
                        }),
      std::runtime_error);
  // The job drains fully even after an error: every chunk still ran.
  EXPECT_EQ(calls.load(),
            static_cast<int>(4 * ThreadPool::kChunksPerWorker));
  std::atomic<int> ok{0};
  pool.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(ok.load(), static_cast<int>(n));
}

TEST(ThreadPool, InterleavedSmallAndLargeParallelFor) {
  // Alternate a one-element-per-chunk job with an oversubscribed one: the
  // dispatch state each job resets must not leak into the next.
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> visits(3);
    pool.parallel_for(3, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
    });
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<long>(hi - lo));
    });
    ASSERT_EQ(sum.load(), 1000);
  }
}

TEST(ThreadPool, ChunksAreTakenFifo) {
  // The single atomic ticket counter hands chunks out front-to-back, so
  // every participating thread observes strictly increasing chunk starts.
  ThreadPool pool(4);
  std::mutex m;
  std::map<std::thread::id, std::vector<std::size_t>> starts;
  pool.parallel_for(4096, [&](std::size_t lo, std::size_t) {
    std::lock_guard<std::mutex> lock(m);
    starts[std::this_thread::get_id()].push_back(lo);
  });
  for (const auto& [tid, seq] : starts) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1], seq[i]);
    }
  }
}

TEST(ThreadPool, ShutdownImmediatelyAfterJobs) {
  // Destruction races the workers' job epilogue: parallel_for returns as
  // soon as the last chunk is drained, while workers may still be between
  // deregistering and re-parking. Tear the pool down right at that window,
  // many times, with work still warm in every lane.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    pool.parallel_for(256, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<int>(hi - lo));
    });
    pool.parallel_for(pool.size(), [](std::size_t, std::size_t) {});
    ASSERT_EQ(sum.load(), 256);
  }  // ~ThreadPool while workers may not have parked yet
}

TEST(ThreadPool, ResubmissionAfterEscapedExceptionStress) {
  // An exception escaping a chunk must leave the pool reusable: the error
  // slot is cleared on the next publish and the generation handshake is
  // intact. Alternate throwing and clean jobs to shake out stale state.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t lo, std::size_t) {
                            if (lo == 0) throw std::runtime_error("chunk");
                          }),
        std::runtime_error);
    std::atomic<int> ok{0};
    pool.parallel_for(64, [&](std::size_t lo, std::size_t hi) {
      ok.fetch_add(static_cast<int>(hi - lo));
    });
    ASSERT_EQ(ok.load(), 64);
  }
}

TEST(ThreadPool, ChunksAreDisjointAndOrdered) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(103, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 103u);
}

}  // namespace
}  // namespace parsgd
