// Fixed-size thread pool — the execution substrate of the query engine.
//
// Two ways in, one set of workers:
//
//  * submit() — classic future-returning task queue, used for coarse
//    independent jobs (bulk ingest, snapshot loads, tests). One
//    mutex-guarded FIFO; a task is one heap-allocated closure.
//  * run_spans() — batch-reservation execution for the query engine's hot
//    path. The caller describes a whole batch as `spans` numbered work
//    units and every participant (the caller plus any workers that wake)
//    claims spans by a single atomic fetch_add until the counter passes the
//    end. No per-span closure, no per-span future, no queue traffic: the
//    batch descriptor lives on the caller's stack, workers join it straight
//    from their wait loop, and completion is one latch (an in-flight count
//    plus one condition variable) per batch. The caller always participates,
//    so a batch finishes even if every worker is busy elsewhere — and on a
//    one-thread pool run_spans degenerates to a plain loop.
//
// Deliberately work-stealing-free: spans within a batch are near-uniform
// and the reservation counter is itself the load balancer (a slow worker
// simply claims fewer spans). Workers are spawned once at construction and
// joined at destruction. Workers keep no per-batch state: a span's
// scratch is whatever its thread owns (the query engine keeps it in a
// thread_local), so batches on one pool never share scratch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fmeter::obs {
class MetricsRegistry;
}  // namespace fmeter::obs

namespace fmeter::exec {

class TaskPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit TaskPool(std::size_t num_threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs `fn(span)` exactly once for every span in [0, spans) —
  /// unless `stop` trips (below). The calling thread participates and
  /// blocks until the batch completes; idle workers join concurrently.
  /// `fn` must therefore be safe to invoke from multiple threads on
  /// distinct spans. Exceptions thrown by `fn` are latched (first one
  /// wins), the remaining spans are abandoned, and the exception rethrows
  /// on the caller once every participant has left the batch. Reentrant: a
  /// worker calling run_spans() mid-span executes the nested batch
  /// entirely on its own thread (no deadlock, no nested join), which is
  /// exactly the inline fallback the query engine wants.
  ///
  /// `stop`, when non-null, is the batch's cooperative abandon flag: it is
  /// checked before every span claim, and once it reads true the remaining
  /// unclaimed spans are never executed (spans already running finish on
  /// their own). The query engine sets it when a deadline expires or a
  /// query is cancelled mid-batch, so an expired batch releases its
  /// workers after at most one span's worth of work instead of draining
  /// every remaining cell. Unlike the exception latch, a stop is not an
  /// error: run_spans returns normally and the caller decides what the
  /// skipped spans mean.
  ///
  /// Returns the number of pool workers that joined this batch (0 when the
  /// caller ran it solo) — the batch's share of tasks_executed().
  std::size_t run_spans(std::size_t spans,
                        const std::function<void(std::size_t span)>& fn,
                        const std::atomic<bool>* stop = nullptr);

  /// Number of submit() tasks picked up by a worker plus the number of
  /// times a worker joined a run_spans() batch (counted before any work
  /// runs). Lets tests assert that degenerate inputs cause no dispatch.
  std::size_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// run_spans() batches started (whether or not any worker joined).
  std::uint64_t span_batches() const noexcept {
    return span_batches_.load(std::memory_order_relaxed);
  }
  /// Spans executed across all run_spans() batches, by anyone.
  std::uint64_t spans_reserved() const noexcept {
    return spans_reserved_.load(std::memory_order_relaxed);
  }
  /// Spans executed by calling threads (the caller's share of the work —
  /// spans_reserved() minus the sum of worker_span_counts()).
  std::uint64_t caller_spans() const noexcept {
    return caller_spans_.load(std::memory_order_relaxed);
  }
  /// Per-worker span execution counts, indexed by worker.
  /// A heavily skewed vector on a multi-core host means workers are being
  /// starved; on one core it is legitimately lopsided.
  std::vector<std::uint64_t> worker_span_counts() const;

  /// submit() tasks currently waiting for a worker (mutex-guarded read).
  std::size_t queue_depth() const;

  /// Registers a scrape-time collector that refreshes this pool's gauges
  /// (fmeter_taskpool_queue_depth, _spans_reserved, _worker_utilization, …)
  /// in `registry`. Idempotent per pool; the collector is deregistered in
  /// the destructor, so a scrape never touches a dead pool. shared() calls
  /// this on the global registry automatically.
  void publish_metrics(obs::MetricsRegistry& registry);

  /// True iff the calling thread is one of *this* pool's workers. Blocking
  /// on subtasks from inside a worker would deadlock a fixed-size pool, so
  /// the query engine uses this to fall back to inline execution when a
  /// search is issued from within a pool task.
  bool current_thread_is_worker() const noexcept;

  /// Enqueues `fn` and returns a future for its result; a throwing task
  /// stores the exception in the future instead of taking the pool down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using Result = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("TaskPool: submit after shutdown");
      }
      queue_.push([task] { (*task)(); });
    }
    ready_.notify_one();
    return future;
  }

  /// Process-wide pool sized to the CPUs this process may run on (its
  /// affinity mask, so taskset and container cpusets count), created on first
  /// use. Query engines default to it so that every SignatureDatabase does
  /// not spawn its own threads.
  static TaskPool& shared();

 private:
  /// One run_spans() batch. Lives on the caller's stack; listed in
  /// `batches_` only while spans remain unclaimed, so workers discover it
  /// under mutex_ and the caller can delist it before waiting out the
  /// stragglers (after delisting, in_flight can only fall).
  struct SpanBatch {
    std::atomic<std::size_t> next{0};    ///< the reservation counter
    std::size_t total = 0;               ///< spans in [0, total)
    const std::function<void(std::size_t)>* fn = nullptr;
    const std::atomic<bool>* stop = nullptr;  ///< optional abandon flag
    std::atomic<std::size_t> in_flight{0};  ///< workers currently inside
    std::atomic<std::size_t> joined{0};     ///< workers that ever joined
    std::mutex done_mutex;
    std::condition_variable done;        ///< signaled when in_flight hits 0
    std::exception_ptr error;            ///< first failure, under done_mutex
  };

  void worker_loop(std::size_t worker_index);
  /// Claims spans off `batch` until exhausted or a failure is latched;
  /// returns how many spans this participant executed.
  static std::uint64_t drain_spans(SpanBatch& batch);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::vector<SpanBatch*> batches_;  // active span batches, FIFO service
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::atomic<std::size_t> tasks_executed_{0};
  std::atomic<std::uint64_t> span_batches_{0};
  std::atomic<std::uint64_t> spans_reserved_{0};
  std::atomic<std::uint64_t> caller_spans_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> worker_spans_;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::size_t metrics_token_ = 0;
  bool stopping_ = false;
};

}  // namespace fmeter::exec
