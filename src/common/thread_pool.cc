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
