#pragma once
// A small fixed-size worker pool for the encoder's parallel stages.
//
// Design constraints, in order:
//   1. FIFO dispatch *per lane*: tasks of one Queue start in submission
//      order. The wavefront scheduler in codec::EncoderPipeline relies on
//      this to guarantee that a macroblock row's predecessor row is always
//      running or finished before the row itself starts (no deadlock in the
//      dependency waits), and the frame pipeline relies on it to guarantee
//      that the task publishing a reference row is dispatched before any
//      task that parks on it.
//   2. Fair multi-session scheduling: when several Queues hold work (one
//      per concurrent encode/decode session), the dispatcher round-robins
//      across them, so one saturating session cannot starve the others.
//   3. No task futures or result plumbing — callers use a TaskGroup wait as
//      the stage barrier and write results into pre-sized arrays.
//
// Tasks carry no worker identity: any thread may run any task, so state a
// task touches is either its own or safe to share (the encoding pipeline
// runs one session's estimator in every row task).
//
// A thread that waits on a group HELPS: it runs the group's queued tasks
// itself. A pool of ZERO workers starts no threads at all: its tasks run
// only on whichever thread calls wait(group) for them, in lane-FIFO order.
// This is the single-threaded encoder's executor — the same task graph as
// N workers, without any thread hand-off.
//
// Tasks may throw. An exception escaping a task is captured (never
// std::terminate): the first error of a TaskGroup is latched on the group
// and rethrown by the wait(group) barrier once the group's count drains.
// Later errors of the same batch are dropped — first error wins — and the
// batch always runs to completion so barrier counting stays intact; an
// ungrouped task's error has no barrier to surface at and is dropped. It
// is the caller's job (codec::EncoderPipeline does this) to make sure a
// task that throws still publishes whatever progress its siblings park on.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acbm::util {

class ThreadPool;

/// Completion tracker for a batch of tasks submitted to a ThreadPool.
///
/// A TaskGroup barrier covers only the tasks submitted with it, so
/// independent batches — the stages of two different frames, or two
/// sessions sharing one pool — can wait without observing each other.
/// A group belongs to one pool at a time; reuse is fine once a wait has
/// returned (the pending count is back to zero).
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class ThreadPool;
  std::size_t pending_ = 0;  ///< guarded by the owning pool's mutex
  /// First exception a task of this group threw; guarded by the pool mutex,
  /// consumed (rethrown and cleared) by the wait(group) that drains it.
  std::exception_ptr first_error_;
  /// Woken (under the pool mutex) when pending_ drops to zero or a new task
  /// joins the group — the latter lets a helping waiter pick it up.
  std::condition_variable done_or_work_;
};

class ThreadPool {
 public:
  class Queue;

 private:
  /// One unit of queued work plus its bookkeeping tags.
  struct Job {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    Queue* queue = nullptr;
  };

 public:
  /// An independent FIFO lane of the pool — one per encode/decode session.
  /// Jobs within a lane start in submission order; the dispatcher
  /// round-robins across lanes that hold work. The destructor runs the
  /// lane's still-queued jobs itself and blocks until the running ones have
  /// finished, then unregisters the lane, so a Queue may simply be
  /// destroyed together with its session. Must not outlive the pool.
  class Queue {
   public:
    explicit Queue(ThreadPool& pool);
    ~Queue();
    Queue(const Queue&) = delete;
    Queue& operator=(const Queue&) = delete;

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    std::deque<Job> jobs_;       ///< guarded by pool_.mutex_
    std::size_t in_flight_ = 0;  ///< queued + running jobs of this lane
    /// Stable id for observability: the "pool.lane.depth.<id>" counter
    /// track this lane's queue depth is published under (obs/trace.hpp).
    /// Monotone per pool, never reused, so a session's lane keeps one
    /// identity across a trace even as other lanes come and go.
    std::size_t lane_id_ = 0;
  };

  /// Spawns `threads` workers; `threads` <= 0 starts none (tasks then run
  /// inside wait(group) on the waiting thread — see the header comment).
  explicit ThreadPool(int threads);

  /// Joins the workers. Every lane must already be gone (Queue drains).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task on `queue`, optionally tagged with `group` so a
  /// wait(group) barrier covers it.
  void submit(Queue& queue, std::function<void()> task,
              TaskGroup* group = nullptr);

  /// Blocks until every task tagged with `group` has finished, then rethrows
  /// (and clears) the first error a task of the group threw. The wait
  /// HELPS: it runs queued tasks of that group (in lane order) instead of
  /// parking, so a task may submit subtasks and wait for them without
  /// deadlocking the pool, and a zero-worker pool makes progress at all.
  /// Only the waited group's tasks are helped — stealing unrelated work
  /// could park this thread on a dependency that is itself queued behind it.
  void wait(TaskGroup& group);

  /// Picks a worker count: `requested` if positive, the hardware
  /// concurrency (at least 1) for 0, and 1 (serial) for negative values.
  [[nodiscard]] static int resolve_thread_count(int requested);

 private:
  void worker_loop();
  /// Pops the next job round-robin across lanes. Requires queued_total_ > 0
  /// and the pool mutex held.
  Job pop_next_locked();
  /// Removes the first queued job of `group` (lanes in registration order,
  /// each front to back) into `out`; false when none is queued. Requires
  /// the pool mutex held.
  bool take_group_job_locked(const TaskGroup& group, Job& out);
  /// Runs `job` with `lock` released, latches its error on its group, and
  /// does the post-run bookkeeping (counts, group completion, lane-drain
  /// wakeups). `lock` must hold the pool mutex on entry and exit.
  void run_job(std::unique_lock<std::mutex>& lock, Job& job,
               const char* span_name);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  /// Woken when a lane drains (Queue::~Queue waits on it).
  std::condition_variable lane_drained_;
  std::vector<Queue*> queues_;    ///< registered lanes
  std::size_t rr_next_ = 0;       ///< round-robin cursor into queues_
  std::size_t next_lane_id_ = 0;  ///< observability lane ids (never reused)
  std::size_t queued_total_ = 0;  ///< jobs queued across all lanes
  bool stopping_ = false;
};

/// A monotonic progress counter with parked waiters. The encoder pipeline
/// keeps one per macroblock row for the intra-frame wavefront and one per
/// reconstruction parity for the cross-frame reference gate, and publishes
/// CUMULATIVE values into both (a 64-bit value never wraps over a stream),
/// so no counter is ever reset or reallocated per frame, and a stale waiter
/// can never be released early by a later frame reusing small values.
/// publish() takes the running maximum, so callers may publish out of order.
///
/// The wait is a parked condition-variable wait after a short bounded spin
/// — under contention (more rows in flight than cores, busy machines)
/// blocked rows sleep instead of burning a core on yield loops. The fast
/// path is a lock-free acquire load; publish only takes the mutex when a
/// waiter is (or may be) parked. Cache-line aligned so neighbouring rows'
/// counters in an array do not false-share.
class alignas(64) ReadyCounter {
 public:
  /// Raises the counter to at least `value` and wakes parked waiters.
  void publish(std::uint64_t value);

  /// Blocks until the counter reaches at least `value`.
  void wait_for(std::uint64_t value);

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<int> waiters_{0};  ///< parked (or parking) consumers
  std::mutex mutex_;
  std::condition_variable advanced_;
};

}  // namespace acbm::util
