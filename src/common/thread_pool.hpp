// Fixed-size thread pool with a parallel_for helper.
//
// Used by the search drivers to evaluate independent accelerator
// configurations concurrently (e.g. the homogeneous baseline sweep and the
// search-time benchmark), and by the Monte-Carlo robustness evaluation to
// build trial fabrics and run (trial, sample-chunk) items concurrently.
// Work items must be independent; the pool provides no ordering guarantees beyond
// wait()/parallel_for joining all tasks.
//
// parallel_for is safe to call concurrently from several threads and to
// nest (a pool task may itself call parallel_for on the same pool): each
// call owns its iteration state, the calling thread participates in
// draining its own items, and completion is tracked per call — never
// through the pool-global task count.
//
// Instrumented (src/obs): queue depth is exported as the
// `autohet_pool_queue_depth` gauge and a `pool_queue_depth` trace counter
// track; each task runs inside a `pool_task` span and feeds the
// `autohet_pool_task_latency_ns` histogram.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autohet::common {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw; exceptions escaping a task
  /// terminate the program (there is no result channel to carry them).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Do not call from
  /// inside a pool task (it would count itself); use parallel_for for
  /// nested fan-out.
  void wait();

  /// Runs fn(i) for i in [begin, end) across the pool and blocks until done.
  /// The caller drains items too, so progress is guaranteed even when every
  /// worker is busy — which makes nested and concurrent calls safe (and the
  /// single-worker pool degrade to a plain loop on the calling thread).
  /// Items are claimed one at a time from a shared cursor, so a slow item
  /// never holds a whole pre-carved chunk hostage.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end): across `pool` when one is given and
/// there are two or more items, else as a plain loop on the calling thread.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace autohet::common
