// Minimal worker pool for the source-parallel path search.
//
// Deliberately tiny: a task queue, a condition variable, a wait_idle()
// barrier, and grow_to() for a long-lived pool whose callers ask for
// different thread counts.  Tasks are opaque std::function<void()>; callers that need
// dynamic load balancing pull work items through their own atomic index
// (see PathFinder::run), which keeps the queue short-lived and the pool
// reusable for any embarrassingly parallel stage.
#pragma once

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace sasta::util {

/// Names the calling thread for gdb/htop/perf (no-op off Linux).  Names are
/// truncated to the 15-char kernel limit.
inline void set_current_thread_name(const char* name) {
#if defined(__linux__)
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s", name);
  pthread_setname_np(pthread_self(), buf);
#else
  (void)name;
#endif
}

class ThreadPool {
 public:
  /// Usable hardware concurrency (never 0, even when the runtime cannot
  /// determine it).
  static unsigned hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Resolves a user-facing thread-count knob: 0 means "all hardware
  /// threads", anything else is taken literally.
  static unsigned resolve(int requested) {
    return requested <= 0 ? hardware_threads()
                          : static_cast<unsigned>(requested);
  }

  /// Workers name themselves "<name_prefix><index>" (e.g. sasta-w3) so
  /// traces, gdb, and htop show which pool thread is which.
  explicit ThreadPool(unsigned num_threads = 0,
                      const char* name_prefix = "sasta-w")
      : name_prefix_(name_prefix) {
    grow_to(num_threads == 0 ? hardware_threads() : num_threads);
  }

  /// Starts workers until the pool has at least `num_threads`; never
  /// stops any.  Safe to call while tasks run.
  void grow_to(unsigned num_threads) {
    std::lock_guard<std::mutex> lk(grow_mu_);
    for (unsigned i = size(); i < num_threads; ++i) {
      threads_.emplace_back([this, i] {
        char name[16];
        std::snprintf(name, sizeof(name), "%s%u", name_prefix_, i);
        set_current_thread_name(name);
        worker_loop();
      });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Enqueues a task.  Tasks must not call wait_idle() themselves.
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    task_ready_.notify_one();
  }

  /// Blocks until the queue is drained and every worker is idle.
  void wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        task_ready_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // only reachable when stopping
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lk(mu_);
        --active_;
        if (queue_.empty() && active_ == 0) idle_.notify_all();
      }
    }
  }

  const char* name_prefix_;
  std::mutex grow_mu_;  ///< serializes grow_to (threads_ is owner-side)
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  unsigned active_ = 0;
  bool stopping_ = false;
};

}  // namespace sasta::util
