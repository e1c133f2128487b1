#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace acbm::util {

namespace {
/// Publishes a lane's queue depth as a per-lane counter track
/// ("lane.depth.<id>"). Disarmed this is one relaxed load + branch; callers
/// hold the pool mutex, so the depth read is exact.
void trace_lane_depth(std::size_t lane_id, std::size_t depth) {
  obs::counter("pool", "lane.depth", static_cast<std::int32_t>(lane_id),
               static_cast<std::uint64_t>(depth));
}
}  // namespace

ThreadPool::Queue::Queue(ThreadPool& pool) : pool_(pool) {
  const std::lock_guard<std::mutex> lock(pool_.mutex_);
  lane_id_ = pool_.next_lane_id_++;
  pool_.queues_.push_back(this);
}

ThreadPool::Queue::~Queue() {
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  // Drain this lane before unregistering: a session tearing down must not
  // leave its tasks running against freed state. This thread runs the jobs
  // still queued itself (on a zero-worker pool nobody else ever would),
  // then waits for the ones already running elsewhere.
  while (!jobs_.empty()) {
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    --pool_.queued_total_;
    pool_.run_job(lock, job, "task");
  }
  pool_.lane_drained_.wait(lock, [this] { return in_flight_ == 0; });
  auto& queues = pool_.queues_;
  queues.erase(std::find(queues.begin(), queues.end(), this));
  if (pool_.rr_next_ >= queues.size()) {
    pool_.rr_next_ = 0;
  }
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(0, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(Queue& queue, std::function<void()> task,
                        TaskGroup* group) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue.jobs_.push_back(Job{std::move(task), group, &queue});
    ++queue.in_flight_;
    ++queued_total_;
    trace_lane_depth(queue.lane_id_, queue.jobs_.size());
    if (group != nullptr) {
      ++group->pending_;
      // Wake a helping waiter of this group; notified under the mutex so the
      // group cannot be destroyed between the count update and the notify.
      group->done_or_work_.notify_all();
    }
  }
  work_available_.notify_one();
}

void ThreadPool::wait(TaskGroup& group) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Every waiter helps (on a zero-worker pool it is the only thread: the
  // tasks run here or nowhere).
  for (;;) {
    if (group.pending_ == 0) {
      if (group.first_error_ != nullptr) {
        std::exception_ptr error = std::exchange(group.first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
      }
      return;
    }
    Job job;
    if (take_group_job_locked(group, job)) {
      // Run a queued task of this group instead of parking the thread.
      // Lanes are scanned in dispatch order and each lane front-to-back, so
      // group-relative FIFO (the wavefront's ordering contract) holds for
      // helped tasks too.
      run_job(lock, job, "help");
      continue;
    }
    // Every task of the group is already running on some other thread;
    // park until one finishes (or a new group task arrives to help with).
    group.done_or_work_.wait(lock);
  }
}

int ThreadPool::resolve_thread_count(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (requested < 0) {
    return 1;  // nonsense input degrades to serial, never to oversubscription
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::Job ThreadPool::pop_next_locked() {
  assert(queued_total_ > 0);
  const std::size_t lanes = queues_.size();
  const std::size_t start = rr_next_ < lanes ? rr_next_ : 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    Queue* queue = queues_[(start + i) % lanes];
    if (!queue->jobs_.empty()) {
      // Advance the cursor past the served lane: strict round-robin across
      // lanes that hold work, FIFO within each lane.
      rr_next_ = (start + i + 1) % lanes;
      Job job = std::move(queue->jobs_.front());
      queue->jobs_.pop_front();
      --queued_total_;
      trace_lane_depth(queue->lane_id_, queue->jobs_.size());
      return job;
    }
  }
  assert(false && "queued_total_ > 0 but no lane holds a job");
  return Job{};
}

bool ThreadPool::take_group_job_locked(const TaskGroup& group, Job& out) {
  for (Queue* queue : queues_) {
    auto it =
        std::find_if(queue->jobs_.begin(), queue->jobs_.end(),
                     [&group](const Job& j) { return j.group == &group; });
    if (it != queue->jobs_.end()) {
      out = std::move(*it);
      queue->jobs_.erase(it);
      --queued_total_;
      trace_lane_depth(queue->lane_id_, queue->jobs_.size());
      return true;
    }
  }
  return false;
}

void ThreadPool::run_job(std::unique_lock<std::mutex>& lock, Job& job,
                         const char* span_name) {
  lock.unlock();
  std::exception_ptr error;
  try {
    obs::Span span("pool", span_name);
    job.fn();
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (job.group != nullptr) {
    if (error != nullptr && job.group->first_error_ == nullptr) {
      job.group->first_error_ = std::move(error);
    }
    if (--job.group->pending_ == 0) {
      job.group->done_or_work_.notify_all();
    }
  }
  if (--job.queue->in_flight_ == 0) {
    lane_drained_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    {
      // The park span measures idle-worker time; its end event pairs up
      // inside the export only when the worker actually woke up again, so
      // workers still parked at export simply drop the open span.
      obs::Span park("pool", "park");
      work_available_.wait(lock,
                           [this] { return stopping_ || queued_total_ > 0; });
    }
    if (queued_total_ == 0) {
      return;  // stopping_ and drained
    }
    Job job = pop_next_locked();
    run_job(lock, job, "task");
  }
}

void ReadyCounter::publish(std::uint64_t value) {
  // seq_cst on the value-store / waiters-load pair (and their counterparts
  // in wait_for) forbids the store-load reordering that would let a
  // publisher miss a consumer mid-parking AND that consumer miss the new
  // value — the classic lost-wakeup interleaving.
  std::uint64_t cur = value_.load();
  while (cur < value && !value_.compare_exchange_weak(cur, value)) {
  }
  if (waiters_.load() > 0) {
    // The lock orders this wakeup against a consumer that passed the
    // predicate check but has not finished parking yet.
    const std::lock_guard<std::mutex> lock(mutex_);
    advanced_.notify_all();
  }
}

void ReadyCounter::wait_for(std::uint64_t value) {
  // Bounded spin: wavefront neighbours usually trail by microseconds, so a
  // few polls avoid the syscall entirely in the common case.
  for (int spin = 0; spin < 64; ++spin) {
    if (value_.load(std::memory_order_acquire) >= value) {
      return;
    }
  }
  waiters_.fetch_add(1);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    advanced_.wait(lock, [this, value] { return value_.load() >= value; });
  }
  waiters_.fetch_sub(1);
}

}  // namespace acbm::util
