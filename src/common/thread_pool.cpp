#include "common/thread_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace autohet::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    // Published under the lock so the gauge's last value always reflects
    // the latest queue state (depths from racing submits/workers would
    // otherwise land out of order).
    OBS_GAUGE_SET("autohet_pool_queue_depth", queue_.size());
    OBS_TRACE_COUNTER("pool_queue_depth", queue_.size());
  }
  OBS_COUNTER_ADD("autohet_pool_tasks_total", 1);
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // Per-call state on the caller's stack, shared with the helper tasks via
  // shared_ptr (a helper may still be waking up after the call returned).
  // The caller claims and runs items itself, so the call completes even if
  // no worker ever picks a helper up — the property that makes nested and
  // concurrent parallel_for calls deadlock-free.
  struct State {
    std::atomic<std::size_t> next;
    std::size_t end;
    const std::function<void(std::size_t)>* fn;
    std::atomic<std::size_t> done{0};
    std::size_t total;
    std::mutex m;
    std::condition_variable cv;
  };
  auto st = std::make_shared<State>();
  st->next.store(begin, std::memory_order_relaxed);
  st->end = end;
  st->fn = &fn;
  st->total = end - begin;

  const auto drain = [](const std::shared_ptr<State>& s) {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->end) break;
      (*s->fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    // The finisher (done == total) must notify under the lock so the caller
    // cannot miss the wake-up between its predicate check and its wait.
    if (s->done.fetch_add(ran, std::memory_order_acq_rel) + ran == s->total) {
      std::lock_guard<std::mutex> lock(s->m);
      s->cv.notify_all();
    }
  };

  // The caller handles one item's worth of work itself, so at most n - 1
  // helpers are useful; capping at the worker count bounds queue traffic.
  const std::size_t helpers =
      std::min(workers_.size(), st->total - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([st, drain] { drain(st); });
  }
  drain(st);
  std::unique_lock<std::mutex> lock(st->m);
  st->cv.wait(lock, [&] {
    return st->done.load(std::memory_order_acquire) == st->total;
  });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      OBS_GAUGE_SET("autohet_pool_queue_depth", queue_.size());
      OBS_TRACE_COUNTER("pool_queue_depth", queue_.size());
    }
    {
      OBS_SPAN("pool_task");
      OBS_SCOPED_LATENCY("autohet_pool_task_latency_ns");
      task();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && end > begin + 1) {
    pool->parallel_for(begin, end, fn);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace autohet::common
