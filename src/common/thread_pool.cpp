#include "common/thread_pool.hpp"

#include <exception>

#include "common/env.hpp"

namespace ft2 {

namespace {
thread_local bool tl_on_worker_thread = false;
}  // namespace

bool ThreadPool::on_worker_thread() { return tl_on_worker_thread; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads <= 1) return;  // inline-execution mode
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tl_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = workers_.empty() ? 1 : workers_.size();
  // Nested use (a pool task calling parallel_for) runs inline: blocking a
  // worker on the queue it is supposed to drain can deadlock once every
  // worker waits. Inline execution keeps results identical — partitioning
  // never affects per-index arithmetic.
  if (workers == 1 || n == 1 || tl_on_worker_thread) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const std::size_t chunks = std::min(workers, n);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  // Completion state lives on this stack frame, so the last worker must
  // finish touching it before the caller can return: `remaining` is only
  // read and written under done_mutex, and the final notify happens before
  // that lock is released.
  std::size_t remaining = chunks;
  std::exception_ptr error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    submit([&, lo, hi] {
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      std::lock_guard lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_size("FT2_THREADS", 0));
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace ft2
