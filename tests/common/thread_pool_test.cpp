#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace ft2 {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadInlineMode) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // inline mode spawns no workers
  int sum = 0;
  pool.parallel_for(5, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(3, 3, [&](std::size_t) { called = true; });
  pool.parallel_for(5, 2, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 31) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  // parallel_for acts as a barrier for queued work on the same pool only if
  // workers pick it up; poll briefly instead.
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 64, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPool, LargeRangeChunking) {
  ThreadPool pool(7);
  std::vector<std::atomic<char>> seen(100001);
  pool.parallel_for(1, 100001, [&](std::size_t i) { seen[i] = 1; });
  std::size_t count = 0;
  for (std::size_t i = 1; i < seen.size(); ++i) count += seen[i] ? 1 : 0;
  EXPECT_EQ(count, 100000u);
}

/// Overwrites the stack region the previous parallel_for frame used, so a
/// worker that still touches that call's completion state reads garbage.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[4096];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

// Many back-to-back short parallel_for calls: each call's completion state
// lives on the caller's stack, so a worker still touching it after the
// caller returns shows up here as a crash, a hang or an ASan report.
TEST(ThreadPoolStress, ManyShortParallelForsComplete) {
  ThreadPool pool(4);
  std::size_t total = 0;
  for (std::size_t call = 0; call < 20000; ++call) {
    const std::size_t n = 1 + call % 9;
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, n, [&](std::size_t i) { sum += i + 1; });
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "call " << call;
    scribble_stack();
    total += sum.load();
  }
  EXPECT_GT(total, 0u);
}

TEST(ThreadPoolStress, ExceptionsPropagateUnderRepeatedCalls) {
  ThreadPool pool(4);
  for (std::size_t call = 0; call < 2000; ++call) {
    const std::size_t n = 2 + call % 7;
    const std::size_t bad = call % n;
    EXPECT_THROW(pool.parallel_for(0, n,
                                   [&](std::size_t i) {
                                     if (i == bad) throw Error("boom");
                                   }),
                 Error)
        << "call " << call;
    // The pool stays usable after a throwing call.
    std::atomic<std::size_t> hits{0};
    pool.parallel_for(0, n, [&](std::size_t) { ++hits; });
    ASSERT_EQ(hits.load(), n) << "call " << call;
  }
}

}  // namespace
}  // namespace ft2
