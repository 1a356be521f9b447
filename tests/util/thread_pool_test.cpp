#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snnmap::util {
namespace {

TEST(ThreadPool, ResolveZeroIsAtLeastOne) {
  EXPECT_GE(ThreadPool::resolve(0), 1u);
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(7), 7u);
}

TEST(ThreadPool, SizeMatchesRequest) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, ResolveClampsAbsurdRequests) {
  // A config-file "-1" reaches resolve() as ~0u after the unsigned cast;
  // it must clamp to the cap instead of trying to spawn billions of threads.
  EXPECT_EQ(ThreadPool::resolve(~0u), ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::resolve(ThreadPool::kMaxThreads + 1),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::resolve(ThreadPool::kMaxThreads),
            ThreadPool::kMaxThreads);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  pool.parallel_for(kN, [&](std::uint32_t, std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPool, BlocksAreContiguousAndDeterministic) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 100;
  // worker_of[i] must be identical across runs: the index -> worker mapping
  // is a pure function of (n, size()), never of scheduling.
  std::vector<std::uint32_t> first(kN), second(kN);
  for (auto* out : {&first, &second}) {
    pool.parallel_for(kN, [&](std::uint32_t worker, std::size_t i) {
      (*out)[i] = worker;
    });
  }
  EXPECT_EQ(first, second);
  // Contiguous: the worker id never decreases along the index range.
  for (std::size_t i = 1; i < kN; ++i) {
    EXPECT_LE(first[i - 1], first[i]) << "index " << i;
  }
  EXPECT_EQ(first.front(), 0u);
  EXPECT_EQ(first.back(), 2u);
}

TEST(ThreadPool, SingleWorkerRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  bool same_thread = false;
  pool.parallel_blocks(10, [&](std::uint32_t worker, std::size_t begin,
                               std::size_t end) {
    same_thread = std::this_thread::get_id() == caller;
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<std::uint32_t>> hits(2);
  pool.parallel_for(2, [&](std::uint32_t, std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(hits[0].load(), 1u);
  EXPECT_EQ(hits[1].load(), 1u);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_blocks(0, [&](std::uint32_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::uint32_t, std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing job and runs the next one normally.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(100, [&](std::uint32_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, BackToBackJobsAccumulateCorrectly) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 512;
  std::vector<std::uint64_t> out(kN);
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(kN, [&](std::uint32_t, std::size_t i) {
      out[i] = i * static_cast<std::size_t>(round);
    });
    const auto sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
    EXPECT_EQ(sum, static_cast<std::uint64_t>(round) * (kN * (kN - 1) / 2));
  }
}

/// A per-index payload that is cheap but not trivially order-independent:
/// a seeded stream of doubles summed in sequence.
std::vector<double> map_payload(std::size_t i) {
  Rng rng(1000 + i);
  std::vector<double> out(1 + i % 7);
  double acc = 0.0;
  for (double& x : out) {
    acc += rng.uniform() * 0.1;
    x = acc;
  }
  return out;
}

TEST(ThreadPool, MapSlotsAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 97;
  const auto serial = ThreadPool(1).map(kN, map_payload);
  ASSERT_EQ(serial.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(serial[i], map_payload(i)) << "slot " << i;
  }
  for (const std::uint32_t threads : {3u, 8u}) {
    EXPECT_EQ(ThreadPool(threads).map(kN, map_payload), serial)
        << threads << " threads";
  }
}

TEST(ThreadPool, MapOfZeroItemsIsEmpty) {
  ThreadPool pool(4);
  bool called = false;
  const auto out = pool.map(0, [&](std::size_t i) {
    called = true;
    return i;
  });
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MapWithFewerItemsThanWorkers) {
  ThreadPool pool(8);
  const auto out = pool.map(3, [](std::size_t i) { return 10 * i + 1; });
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 11, 21}));
}

TEST(ThreadPool, MapRethrowsExceptions) {
  for (const std::uint32_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.map(50,
                          [](std::size_t i) -> int {
                            if (i == 31) throw std::runtime_error("boom");
                            return static_cast<int>(i);
                          }),
                 std::runtime_error)
        << threads << " threads";
    // The pool survives and maps the next job normally.
    EXPECT_EQ(pool.map(4, [](std::size_t i) { return i; }),
              (std::vector<std::size_t>{0, 1, 2, 3}));
  }
}

}  // namespace
}  // namespace snnmap::util
