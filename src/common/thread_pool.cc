#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/fault.h"
#include "common/trace.h"

namespace disc {

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t queue_capacity)
    : queue_capacity_(std::max<std::size_t>(1, queue_capacity)) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::size_t ThreadPool::DefaultThreadCount() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return stopping_ || queue_.size() < queue_capacity_;
    });
    if (stopping_) {
      // Dropping the task destroys its packaged_task; the caller's future
      // then reports broken_promise rather than hanging.
      return;
    }
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    // The packaged_task wrapper captures any exception into the future.
    task();
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

/// One in-flight RunBatch: the shared task body, the count of queued or
/// running indices, and the first exception a task threw. All fields are
/// guarded by the pool mutex except `task`, which is immutable while the
/// batch lives.
struct WorkStealingPool::Batch {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t pending = 0;
  std::exception_ptr error;
  /// `pool.task` fault site, resolved once per batch (null = faults off).
  FaultInjector::Site* fault = nullptr;
};

/// One in-flight ParallelFor: a fixed chunk layout over [begin, end) plus
/// claim/completion cursors. Lives on the owner's stack; the owner removes
/// it from the pool's group list before waiting out the last in-flight
/// chunks, and no worker touches it after its final `done` increment (made
/// under the pool mutex), so the stack lifetime is safe.
struct WorkStealingPool::NestedGroup {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::size_t next = 0;  ///< next chunk index to claim
  std::size_t done = 0;  ///< chunks fully executed
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
};

WorkStealingPool::WorkStealingPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  deques_.resize(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t WorkStealingPool::DefaultThreadCount() {
  return ThreadPool::DefaultThreadCount();
}

void WorkStealingPool::RunTask(std::unique_lock<std::mutex>& lock,
                               QueuedTask item, bool stolen) {
  ++stats_.tasks;
  if (stolen) ++stats_.steals;
  lock.unlock();
  std::exception_ptr error;
  try {
    if (item.batch->fault != nullptr) {
      // A kError fault has no status channel at a task boundary, so its
      // Status is dropped; latency/cancel/kill kinds still take effect (a
      // kill surfaces through the batch error like any task exception).
      (void)item.batch->fault->Hit();
    }
    (*item.batch->task)(item.index);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error != nullptr && item.batch->error == nullptr) {
    item.batch->error = error;
  }
  if (--item.batch->pending == 0) progress_.notify_all();
}

bool WorkStealingPool::RunNestedChunk(std::unique_lock<std::mutex>& lock,
                                      NestedGroup* group) {
  NestedGroup* g = nullptr;
  if (group != nullptr) {
    if (group->next < group->chunks) g = group;
  } else {
    for (NestedGroup* candidate : nested_) {
      if (candidate->next < candidate->chunks) {
        g = candidate;
        break;
      }
    }
  }
  if (g == nullptr) return false;
  const std::size_t index = g->next++;
  ++stats_.nested_chunks;
  const std::size_t chunk_begin = g->begin + index * g->grain;
  const std::size_t chunk_end = std::min(g->end, chunk_begin + g->grain);
  const auto* body = g->body;
  lock.unlock();
  // `body` must not throw (ParallelFor contract); the scan chunks it runs
  // are plain arithmetic loops.
  (*body)(chunk_begin, chunk_end, index);
  lock.lock();
  if (++g->done == g->chunks) progress_.notify_all();
  return true;
}

void WorkStealingPool::WorkerLoop(std::size_t self) {
  const std::size_t w = deques_.size();  // sized before any thread starts
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // 1. Own deque, front: this worker's hardest remaining task.
    if (!deques_[self].empty()) {
      QueuedTask item = deques_[self].front();
      deques_[self].pop_front();
      RunTask(lock, item, /*stolen=*/false);
      continue;
    }
    // 2. Steal from the back of a victim deque (its cheapest queued task),
    //    victims scanned round-robin from this worker's index.
    bool stole = false;
    for (std::size_t offset = 1; offset < w; ++offset) {
      std::deque<QueuedTask>& victim = deques_[(self + offset) % w];
      if (!victim.empty()) {
        QueuedTask item = victim.back();
        victim.pop_back();
        RunTask(lock, item, /*stolen=*/true);
        stole = true;
        break;
      }
    }
    if (stole) continue;
    // 3. No batch work anywhere: help a straggler's nested scan chunks.
    if (RunNestedChunk(lock, nullptr)) continue;
    if (stopping_) return;
    // The park below is the steal_idle wall phase: when the profiler is
    // attached, meter how long this worker sat without runnable work. The
    // clock reads happen only when attached, so a detached pool pays one
    // atomic load per park.
    WallPhaseProfiler* profiler = GlobalWallProfiler();
    if (profiler != nullptr) {
      const std::uint64_t parked_ns = TraceNowNs();
      work_ready_.wait(lock);
      profiler->Add(TracePhase::kStealIdle, TraceNowNs() - parked_ns);
    } else {
      work_ready_.wait(lock);
    }
  }
}

void WorkStealingPool::RunBatch(const std::vector<std::size_t>& order,
                                const std::function<void(std::size_t)>& task) {
  if (order.empty()) return;
  Batch batch;
  batch.task = &task;
  batch.fault = FaultSiteFor("pool.task");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch.pending = order.size();
    // Priority round-robin: order[k] goes to the back of deque k mod W, so
    // every deque holds its share in descending priority and the fronts
    // collectively cover the W hardest tasks.
    const std::size_t w = workers_.size();
    for (std::size_t k = 0; k < order.size(); ++k) {
      deques_[k % w].push_back(QueuedTask{&batch, order[k]});
    }
    work_ready_.notify_all();
    progress_.wait(lock, [&] { return batch.pending == 0; });
  }
  if (batch.error != nullptr) std::rethrow_exception(batch.error);
}

void WorkStealingPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks < 2 || workers_.size() < 2) {
    body(begin, end, 0);
    return;
  }
  NestedGroup group;
  group.begin = begin;
  group.end = end;
  group.grain = grain;
  group.chunks = chunks;
  group.body = &body;
  std::unique_lock<std::mutex> lock(mutex_);
  nested_.push_back(&group);
  work_ready_.notify_all();
  // The caller works its own group dry (it never adopts another group's
  // chunks, keeping nesting deadlock-free)...
  while (RunNestedChunk(lock, &group)) {
  }
  // ...then retires the group so no further worker discovers it, and waits
  // out the chunks other workers still have in flight.
  nested_.erase(std::find(nested_.begin(), nested_.end(), &group));
  progress_.wait(lock, [&] { return group.done == group.chunks; });
}

WorkStealingPool::SchedStats WorkStealingPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t WorkStealingPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const std::deque<QueuedTask>& d : deques_) depth += d.size();
  return depth;
}

}  // namespace disc
