#include "exec/task_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace fmeter::exec {
namespace {

/// Which pool (if any) owns the current thread, and that worker's stable
/// index. Set once per worker at startup; never cleared — worker threads
/// live exactly as long as their pool's worker_loop.
thread_local const TaskPool* tls_owning_pool = nullptr;
thread_local std::size_t tls_worker_index = 0;

/// CPUs this process may run on: its affinity mask (taskset, a
/// container's cpuset) where the platform exposes one, else the hardware
/// thread count. Sizing by the mask keeps a pool restricted to 2 of 64
/// cores from spawning 64 workers that only contend for the 2.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    const int masked = CPU_COUNT(&cpus);
    if (masked > 0) return static_cast<std::size_t>(masked);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

bool TaskPool::current_thread_is_worker() const noexcept {
  return tls_owning_pool == this;
}

TaskPool::TaskPool(std::size_t num_threads) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  worker_spans_ = std::make_unique<std::atomic<std::uint64_t>[]>(count);
  workers_.reserve(count);
  batches_.reserve(4);  // one slot per concurrent run_spans caller, amortized
  try {
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread creation can fail under resource pressure; wind down whatever
    // already started so the half-built pool does not leak threads.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (auto& worker : workers_) worker.join();
    throw;
  }
}

TaskPool::~TaskPool() {
  // Deregister the metrics collector first. remove_collector blocks until
  // any in-flight scrape invocation has returned, so after this no scrape
  // can call back into a pool that is tearing down.
  if (metrics_registry_ != nullptr) {
    metrics_registry_->remove_collector(metrics_token_);
    metrics_registry_ = nullptr;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::uint64_t TaskPool::drain_spans(SpanBatch& batch) {
  std::uint64_t executed = 0;
  for (;;) {
    // Cooperative abandon: once the batch's stop flag trips, park the
    // counter (like the error path) so no participant claims another span.
    // Spans already running finish normally; the caller interprets the
    // never-claimed remainder.
    if (batch.stop != nullptr &&
        batch.stop->load(std::memory_order_relaxed)) {
      batch.next.store(batch.total, std::memory_order_relaxed);
      break;
    }
    // Uniqueness of each claim is the fetch_add itself; relaxed order is
    // enough because participants only ever touch the spans they claimed,
    // and completion hand-off synchronizes through in_flight/done_mutex.
    const std::size_t span = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (span >= batch.total) break;
    try {
      (*batch.fn)(span);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(batch.done_mutex);
        if (!batch.error) batch.error = std::current_exception();
      }
      // Abandon the remaining spans: park the counter at the end so every
      // other participant's next claim fails and the batch winds down.
      batch.next.store(batch.total, std::memory_order_relaxed);
      ++executed;
      break;
    }
    ++executed;
  }
  return executed;
}

std::size_t TaskPool::run_spans(
    std::size_t spans,
    const std::function<void(std::size_t)>& fn,
    const std::atomic<bool>* stop) {
  if (spans == 0) return 0;
  span_batches_.fetch_add(1, std::memory_order_relaxed);
  SpanBatch batch;
  batch.total = spans;
  batch.fn = &fn;
  batch.stop = stop;

  // A worker re-entering (a search issued from inside a pool task), a
  // one-thread pool, or a single span: nothing to hand out — the calling
  // thread runs the whole batch without ever listing it.
  const bool is_worker = current_thread_is_worker();
  const bool solo = is_worker || spans <= 1 || size() <= 1;
  if (!solo) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // During shutdown nothing new is listed (workers are draining out);
      // the caller still completes the batch itself below.
      if (!stopping_) batches_.push_back(&batch);
    }
    ready_.notify_all();
  }

  const std::uint64_t mine = drain_spans(batch);
  spans_reserved_.fetch_add(mine, std::memory_order_relaxed);
  if (is_worker) {
    worker_spans_[tls_worker_index].fetch_add(mine, std::memory_order_relaxed);
  } else {
    caller_spans_.fetch_add(mine, std::memory_order_relaxed);
  }

  if (!solo) {
    {
      // Delist first: afterwards no new worker can discover the batch, so
      // in_flight is monotonically falling and the wait below is race-free.
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = std::find(batches_.begin(), batches_.end(), &batch);
      if (it != batches_.end()) batches_.erase(it);
    }
    std::unique_lock<std::mutex> lock(batch.done_mutex);
    batch.done.wait(lock, [&batch] {
      return batch.in_flight.load(std::memory_order_acquire) == 0;
    });
  }
  if (batch.error) std::rethrow_exception(batch.error);
  return batch.joined.load(std::memory_order_relaxed);
}

void TaskPool::worker_loop(std::size_t worker_index) {
  tls_owning_pool = this;
  tls_worker_index = worker_index;
  for (;;) {
    SpanBatch* batch = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] {
        return stopping_ || !queue_.empty() || !batches_.empty();
      });
      if (!batches_.empty()) {
        batch = batches_.front();
        if (batch->next.load(std::memory_order_relaxed) >= batch->total) {
          // Exhausted but not yet delisted by its caller; retire it here so
          // the next batch in line gets served.
          batches_.erase(batches_.begin());
          continue;
        }
        // Joining is announced under mutex_, so a caller that has delisted
        // its batch can rely on in_flight only ever decreasing.
        batch->in_flight.fetch_add(1, std::memory_order_acquire);
        batch->joined.fetch_add(1, std::memory_order_relaxed);
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      } else {
        // Queue and batch list are both drained even when stopping:
        // submitted futures must resolve and listed batches must complete.
        if (stopping_) return;
        continue;  // spurious wakeup
      }
    }
    if (batch != nullptr) {
      // A join counts as one executed task whatever its span share turns
      // out to be — the scheduling event is what dispatch assertions count.
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t executed = drain_spans(*batch);
      worker_spans_[worker_index].fetch_add(executed,
                                            std::memory_order_relaxed);
      spans_reserved_.fetch_add(executed, std::memory_order_relaxed);
      {
        // Decrement under the batch's own mutex: the caller's predicate
        // runs under it too, so it cannot observe zero and destroy the
        // stack-resident batch while this worker still holds a reference.
        const std::lock_guard<std::mutex> lock(batch->done_mutex);
        if (batch->in_flight.fetch_sub(1, std::memory_order_release) == 1) {
          batch->done.notify_all();
        }
      }
      continue;
    }
    // Count before invoking so the increment is visible to anyone who has
    // observed the task's future resolve.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();  // packaged_task captures any exception into the future
  }
}

std::vector<std::uint64_t> TaskPool::worker_span_counts() const {
  std::vector<std::uint64_t> counts(workers_.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = worker_spans_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::size_t TaskPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void TaskPool::publish_metrics(obs::MetricsRegistry& registry) {
  // mutex_ makes the check-and-claim atomic: concurrent callers must not
  // both pass the null check and register duplicate collectors. Holding it
  // across registration is safe — no path holds the registry's lock while
  // waiting on mutex_ (collectors run outside it, remove_collector's wait
  // releases it).
  const std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_registry_ != nullptr) return;  // already publishing
  // Handles resolve now (may allocate); the collector only stores values.
  obs::Gauge& workers = registry.gauge(
      "fmeter_taskpool_workers", "Worker threads in the task pool");
  obs::Gauge& depth = registry.gauge(
      "fmeter_taskpool_queue_depth", "submit() tasks waiting for a worker");
  obs::Gauge& batches = registry.gauge(
      "fmeter_taskpool_span_batches", "run_spans() batches started");
  obs::Gauge& reserved = registry.gauge(
      "fmeter_taskpool_spans_reserved", "Spans executed across all batches");
  obs::Gauge& executed = registry.gauge(
      "fmeter_taskpool_tasks_executed",
      "Worker pickups: submit() tasks plus batch joins");
  obs::Gauge& utilization = registry.gauge(
      "fmeter_taskpool_worker_utilization",
      "Fraction of spans executed by pool workers (rest ran on callers)");
  metrics_registry_ = &registry;
  metrics_token_ = registry.add_collector([this, &workers, &depth, &batches,
                                           &reserved, &executed,
                                           &utilization] {
    workers.set(static_cast<double>(size()));
    depth.set(static_cast<double>(queue_depth()));
    batches.set(static_cast<double>(span_batches()));
    const std::uint64_t spans = spans_reserved();
    reserved.set(static_cast<double>(spans));
    executed.set(static_cast<double>(tasks_executed()));
    const std::uint64_t callers = caller_spans();
    utilization.set(spans == 0 ? 0.0
                               : static_cast<double>(spans - callers) /
                                     static_cast<double>(spans));
  });
}

TaskPool& TaskPool::shared() {
  static TaskPool pool(usable_cpus());
  // The shared pool outlives every scrape site in practice; publishing here
  // means any binary that touches the pool exports its utilization for free.
  static const bool published = [] {
    pool.publish_metrics(obs::MetricsRegistry::global());
    return true;
  }();
  (void)published;
  return pool;
}

}  // namespace fmeter::exec
