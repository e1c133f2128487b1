// util::ThreadPool: task completion, the TaskGroup barrier, the helping
// waiter, FIFO dispatch per lane, the zero-worker (inline) pool, and
// thread-count resolution — the properties the encoding pipeline is built
// on — plus util::ReadyCounter, the progress counter its wavefront and
// reference gate park on.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace acbm::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit(lane, [&count] {
      count.fetch_add(1, std::memory_order_relaxed);
    }, &group);
  }
  pool.wait(group);
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SizeIsTheWorkerCountAndZeroStartsNoThreads) {
  ThreadPool inline_pool(0);
  EXPECT_EQ(inline_pool.size(), 0);
  ThreadPool negative(-3);  // clamps to zero workers, never throws
  EXPECT_EQ(negative.size(), 0);
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, WaitOnEmptyGroupReturns) {
  ThreadPool pool(2);
  TaskGroup group;
  pool.wait(group);  // must not block
  ThreadPool inline_pool(0);
  inline_pool.wait(group);
  SUCCEED();
}

TEST(ThreadPool, GroupIsReusableAcrossBatches) {
  ThreadPool pool(2);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.submit(lane, [&count] { count.fetch_add(1); }, &group);
    }
    pool.wait(group);
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, OutsideWaiterRunsTheGroupsTasks) {
  // With every worker busy, a thread from outside the pool that waits on a
  // group runs the group's tasks itself instead of parking.
  ThreadPool pool(2);
  ThreadPool::Queue lane(pool);
  TaskGroup blockers;
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.submit(lane, [&] {
      blocked.fetch_add(1);
      while (!release.load()) {
        std::this_thread::yield();
      }
    }, &blockers);
  }
  while (blocked.load() < 2) {
    std::this_thread::yield();
  }
  TaskGroup group;
  std::vector<std::thread::id> seen;
  for (int i = 0; i < 3; ++i) {
    pool.submit(lane, [&seen] { seen.push_back(std::this_thread::get_id()); },
                &group);
  }
  pool.wait(group);
  const std::thread::id waiter = std::this_thread::get_id();
  EXPECT_EQ(seen, (std::vector<std::thread::id>{waiter, waiter, waiter}));
  release.store(true);
  pool.wait(blockers);
}

TEST(ThreadPool, SingleThreadExecutesInSubmissionOrder) {
  // FIFO dispatch is part of the contract (the wavefront scheduler depends
  // on it); with one worker, dispatch order IS completion order.
  ThreadPool pool(1);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit(lane, [&order, &done, i] {
      order.push_back(i);
      done.fetch_add(1);
    }, &group);
  }
  // Poll before waiting: a waiting thread would help, running tasks
  // alongside the worker, and the worker's order is what this test observes.
  while (done.load() < 50) {
    std::this_thread::yield();
  }
  pool.wait(group);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(5), 5);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count(-2), 1);  // degrade to serial
}

TEST(ThreadPool, QueueLanesPreserveFifoWithinALane) {
  // Two lanes on one worker: within each lane, completion order must equal
  // submission order regardless of how the dispatcher interleaves lanes.
  ThreadPool pool(1);
  ThreadPool::Queue a(pool);
  ThreadPool::Queue b(pool);
  TaskGroup group;
  std::mutex m;
  std::vector<std::pair<int, int>> order;  // (lane, seq)
  for (int i = 0; i < 20; ++i) {
    pool.submit(a, [&, i] {
      const std::lock_guard<std::mutex> lock(m);
      order.emplace_back(0, i);
    }, &group);
    pool.submit(b, [&, i] {
      const std::lock_guard<std::mutex> lock(m);
      order.emplace_back(1, i);
    }, &group);
  }
  // Poll before waiting, as above: only the worker may run the tasks.
  while (true) {
    const std::lock_guard<std::mutex> lock(m);
    if (order.size() == 40) {
      break;
    }
  }
  pool.wait(group);
  int next[2] = {0, 0};
  for (const auto& [lane, seq] : order) {
    EXPECT_EQ(seq, next[lane]) << "lane " << lane;
    ++next[lane];
  }
  EXPECT_EQ(next[0], 20);
  EXPECT_EQ(next[1], 20);
}

TEST(ThreadPool, RoundRobinSharesWorkersAcrossSaturatingLanes) {
  // Fair scheduling: a lane that enqueues a burst of work must not monopolise
  // the single worker while another lane holds queued tasks — with both
  // lanes full, dispatch alternates. Verify no lane ever gets more than one
  // task ahead while the other still has work queued (strict alternation on
  // one worker once both backlogs exist).
  ThreadPool pool(1);
  ThreadPool::Queue greedy(pool);
  ThreadPool::Queue modest(pool);
  std::mutex m;
  std::vector<int> order;
  std::atomic<int> done{0};
  // Stall the worker so both lanes build a backlog before dispatch starts.
  std::atomic<bool> go{false};
  pool.submit(greedy, [&] {
    while (!go.load()) {
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 50; ++i) {
    pool.submit(greedy, [&] {
      const std::lock_guard<std::mutex> lock(m);
      order.push_back(0);
      done.fetch_add(1);
    });
  }
  for (int i = 0; i < 10; ++i) {
    pool.submit(modest, [&] {
      const std::lock_guard<std::mutex> lock(m);
      order.push_back(1);
      done.fetch_add(1);
    });
  }
  go.store(true);
  // Poll instead of waiting on a group: a waiting thread would help, and
  // the dispatcher's order is what this test observes.
  while (done.load() < 60) {
    std::this_thread::yield();
  }
  ASSERT_EQ(order.size(), 60u);
  // The modest lane's 10 tasks must all complete within the first ~20
  // dispatches (alternation), not after the greedy lane's 50.
  int modest_done = 0;
  for (std::size_t i = 0; i < 21 && i < order.size(); ++i) {
    modest_done += order[i] == 1 ? 1 : 0;
  }
  EXPECT_EQ(modest_done, 10)
      << "round-robin should interleave the modest lane's tasks";
}

TEST(ThreadPool, TaskGroupWaitCoversOnlyItsOwnTasks) {
  ThreadPool pool(2);
  ThreadPool::Queue lane(pool);
  TaskGroup mine;
  TaskGroup other;
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> release_blocker{false};
  std::atomic<int> mine_done{0};
  // An unrelated long-running task (another group): wait(mine) must not
  // wait for it.
  pool.submit(lane, [&] {
    blocker_running.store(true);
    while (!release_blocker.load()) {
      std::this_thread::yield();
    }
  }, &other);
  while (!blocker_running.load()) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 8; ++i) {
    pool.submit(lane, [&] { mine_done.fetch_add(1); }, &mine);
  }
  pool.wait(mine);
  EXPECT_EQ(mine_done.load(), 8);
  EXPECT_FALSE(release_blocker.load());  // returned while the blocker runs
  release_blocker.store(true);
  pool.wait(other);
}

TEST(ThreadPool, WorkerWaitingOnGroupHelpsItsTasks) {
  // A pool task that submits subtasks and waits for them must make progress
  // even when every other worker is busy — the wait helps. One worker makes
  // this deadlock-or-help: parking would hang forever.
  ThreadPool pool(1);
  ThreadPool::Queue lane(pool);
  TaskGroup outer;
  std::atomic<int> subtasks_done{0};
  std::atomic<bool> parent_done{false};
  pool.submit(lane, [&] {
    TaskGroup group;
    for (int i = 0; i < 4; ++i) {
      pool.submit(lane, [&] { subtasks_done.fetch_add(1); }, &group);
    }
    pool.wait(group);
    parent_done.store(true);
  }, &outer);
  pool.wait(outer);
  EXPECT_EQ(subtasks_done.load(), 4);
  EXPECT_TRUE(parent_done.load());
}

// ------------------------------------------------------- failure paths ---
// Tasks may throw: the pool must capture the exception (never terminate),
// run the rest of the batch so barrier counting stays intact, and rethrow
// the first captured error from the matching wait. These are the primitives
// the encoding pipeline's session-isolation guarantees stand on.

TEST(ThreadPool, ThrowingTaskIsCapturedAndWaitRethrowsOnce) {
  ThreadPool pool(2);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  std::atomic<int> survivors{0};
  pool.submit(lane, [] { throw std::runtime_error("boom"); }, &group);
  for (int i = 0; i < 8; ++i) {
    pool.submit(lane, [&survivors] { survivors.fetch_add(1); }, &group);
  }
  try {
    pool.wait(group);
    FAIL() << "wait(group) swallowed the task error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The rest of the batch still ran, the error was consumed, and the group
  // is fully reusable.
  EXPECT_EQ(survivors.load(), 8);
  pool.submit(lane, [&survivors] { survivors.fetch_add(1); }, &group);
  pool.wait(group);  // must not rethrow again
  EXPECT_EQ(survivors.load(), 9);
}

TEST(ThreadPool, WaitGroupRethrowsFirstErrorOfItsGroupOnly) {
  // One worker makes "first" deterministic; a second group's error must not
  // leak into the first group's wait.
  ThreadPool pool(1);
  ThreadPool::Queue lane(pool);
  TaskGroup bad;
  TaskGroup good;
  std::atomic<int> done{0};
  pool.submit(lane, [&done] {
    done.fetch_add(1);
    throw std::runtime_error("boom0");
  }, &bad);
  pool.submit(lane, [&done] {
    done.fetch_add(1);
    throw std::runtime_error("boom1");
  }, &bad);
  pool.submit(lane, [&done] { done.fetch_add(1); }, &good);
  // Let the worker start every task before waiting: a helping waiter could
  // otherwise run boom1 alongside boom0 and latch it first.
  while (done.load() < 3) {
    std::this_thread::yield();
  }
  try {
    pool.wait(bad);
    FAIL() << "wait(group) swallowed the task error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom0") << "first captured error must win";
  }
  pool.wait(good);  // must return cleanly: its group had no error
  EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPool, ThrowInsideHelpingWaitIsCaptured) {
  // A worker task waits on its own subtask group; with one worker the wait
  // must help, which means the throwing subtask runs INSIDE wait(group) on
  // the helping thread — the capture must work on that path too, and the
  // error must surface to the parent task, not escape into the worker loop.
  ThreadPool pool(1);
  ThreadPool::Queue lane(pool);
  TaskGroup outer;
  std::atomic<bool> parent_saw_error{false};
  std::atomic<int> siblings_done{0};
  pool.submit(lane, [&] {
    TaskGroup group;
    pool.submit(lane, [] { throw std::runtime_error("subtask boom"); },
                &group);
    for (int i = 0; i < 3; ++i) {
      pool.submit(lane, [&siblings_done] { siblings_done.fetch_add(1); },
                  &group);
    }
    try {
      pool.wait(group);
    } catch (const std::runtime_error& e) {
      parent_saw_error.store(std::string(e.what()) == "subtask boom");
    }
  }, &outer);
  pool.wait(outer);
  EXPECT_TRUE(parent_saw_error.load());
  EXPECT_EQ(siblings_done.load(), 3) << "siblings must run despite the throw";
}

TEST(ThreadPool, ThrowAfterPublicationDoesNotStrandCounterWaiters) {
  // The pipeline's wavefront rows publish their full row range before
  // rethrowing, so a downstream row parked on the ReadyCounter is released
  // and the error still reaches the group wait. Model exactly that shape.
  ThreadPool pool(2);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  ReadyCounter rows;
  std::atomic<bool> downstream_ran{false};
  pool.submit(lane, [&] {
    rows.publish(1);  // poison-publish, then fail
    throw std::runtime_error("row boom");
  }, &group);
  pool.submit(lane, [&] {
    rows.wait_for(1);  // must be released by the publish above
    downstream_ran.store(true);
  }, &group);
  try {
    pool.wait(group);
    FAIL() << "wait(group) swallowed the row error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "row boom");
  }
  EXPECT_TRUE(downstream_ran.load());
}

TEST(ThreadPool, DestructionDrainsPoisonedQueuedTasks) {
  // A poisoned session's lane may still hold throwing tasks when the pool
  // goes down; the lane's destructor must run them all without terminating
  // and without hanging (ungrouped, nobody could consume their errors).
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    ThreadPool::Queue lane(pool);
    for (int i = 0; i < 16; ++i) {
      pool.submit(lane, [&done, i] {
        done.fetch_add(1);
        if (i % 3 == 0) {
          throw std::runtime_error("queued boom");
        }
      });
    }
    // No barrier: destruction races dispatch of the poisoned backlog.
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, QueueDestructorDrainsItsLane) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  {
    ThreadPool::Queue lane(pool);
    for (int i = 0; i < 40; ++i) {
      pool.submit(lane, [&count] { count.fetch_add(1); });
    }
    // No barrier: ~Queue must block until the lane is empty.
  }
  EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPool, QueueDestructionBlocksWhileTasksArePark) {
  // A session tears its Queue down while the frame pipeline's tasks are
  // parked on a ReadyCounter (waiting for reference rows). ~Queue must
  // block until those tasks are released and run to completion — returning
  // early would free per-session state out from under live tasks.
  ThreadPool pool(2);
  ReadyCounter gate;
  std::atomic<int> finished{0};
  std::atomic<bool> destroyed{false};
  auto lane = std::make_unique<ThreadPool::Queue>(pool);
  for (int i = 0; i < 4; ++i) {
    pool.submit(*lane, [&] {
      gate.wait_for(1);
      finished.fetch_add(1);
    });
  }
  std::thread destroyer([&] {
    lane.reset();
    destroyed.store(true);
  });
  // Give the destructor ample time to (incorrectly) return while every
  // worker is still parked on the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load());
  gate.publish(1);
  destroyer.join();
  EXPECT_TRUE(destroyed.load());
  EXPECT_EQ(finished.load(), 4);
}

TEST(ReadyCounter, PublishIsARunningMax) {
  ReadyCounter counter;
  counter.publish(5);
  counter.publish(3);  // out-of-order publication must not regress
  EXPECT_EQ(counter.value(), 5u);
  counter.wait_for(4);  // already satisfied: must not block
  counter.publish(9);
  EXPECT_EQ(counter.value(), 9u);
}

TEST(ReadyCounter, ParkedWaiterWakesAtThreshold) {
  ReadyCounter counter;
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    counter.wait_for(10);
    released.store(true);
  });
  counter.publish(9);
  EXPECT_FALSE(released.load());
  counter.publish(10);
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(ReadyCounter, HighBitValuesNeverRegressOrMiscompare) {
  // The counter is cumulative over a whole stream, so the contract leans on
  // u64 never wrapping — but the comparisons must stay correct arbitrarily
  // close to the top of the range (a signed compare or a narrowing cast
  // would break exactly here, releasing waiters early or parking forever).
  ReadyCounter counter;
  const std::uint64_t high = std::uint64_t{1} << 63;
  counter.publish(high);
  counter.wait_for(high - 1);  // satisfied: must not block
  counter.publish(high - 1);   // late lower publish must not regress
  EXPECT_EQ(counter.value(), high);

  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    counter.wait_for(max);
    released.store(true);
  });
  counter.publish(max - 1);
  EXPECT_FALSE(released.load());
  counter.publish(max);
  waiter.join();
  EXPECT_TRUE(released.load());
  counter.publish(0);  // running max holds at the very top
  EXPECT_EQ(counter.value(), max);
}

TEST(ReadyCounter, WaiterNeverWakesBelowItsThreshold) {
  // Many waiters at distinct thresholds, released by single-step publishes:
  // every waiter must observe its own threshold met at wake-up — a notify
  // that releases the wrong (higher-threshold) waiter shows up here.
  ReadyCounter counter;
  std::atomic<int> early{0};
  std::vector<std::thread> waiters;
  for (std::uint64_t threshold = 1; threshold <= 16; ++threshold) {
    waiters.emplace_back([&, threshold] {
      counter.wait_for(threshold);
      if (counter.value() < threshold) {
        early.fetch_add(1);
      }
    });
  }
  for (std::uint64_t step = 1; step <= 16; ++step) {
    counter.publish(step);
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(counter.value(), 16u);
}

// --- per-row ReadyCounters: the encoder's wavefront -------------------

TEST(ReadyCounter, PerRowCountersAreIndependent) {
  std::vector<ReadyCounter> rows(2);
  rows[0].publish(5);
  rows[0].wait_for(5);  // must not block
  rows[0].wait_for(3);
  EXPECT_EQ(rows[0].value(), 5u);
  EXPECT_EQ(rows[1].value(), 0u);
}

TEST(ReadyCounter, WavefrontOrderingHoldsOnPool) {
  // The encoder's exact usage pattern: one counter per row, row by waits
  // for row by-1 to lead by two columns, and every frame publishes
  // cumulative values (frame·cols + done) into the same counters, which are
  // never reset. Verify the dependency is never observed violated — in
  // particular that a later frame is never released by the previous
  // frame's final values.
  constexpr int kRows = 8;
  constexpr int kCols = 32;
  constexpr int kFrames = 3;
  std::vector<ReadyCounter> progress(kRows);
  std::atomic<int> violations{0};
  ThreadPool pool(4);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  for (std::uint64_t frame = 0; frame < kFrames; ++frame) {
    const std::uint64_t base = frame * kCols;
    for (int by = 0; by < kRows; ++by) {
      pool.submit(lane, [&, by, base] {
        for (int bx = 0; bx < kCols; ++bx) {
          if (by > 0) {
            const std::uint64_t need =
                base + static_cast<std::uint64_t>(std::min(bx + 2, kCols));
            progress[static_cast<std::size_t>(by) - 1].wait_for(need);
            if (progress[static_cast<std::size_t>(by) - 1].value() < need) {
              violations.fetch_add(1);
            }
          }
          progress[static_cast<std::size_t>(by)].publish(
              base + static_cast<std::uint64_t>(bx) + 1);
        }
      }, &group);
    }
    pool.wait(group);
  }
  EXPECT_EQ(violations.load(), 0);
  for (const ReadyCounter& row : progress) {
    EXPECT_EQ(row.value(), static_cast<std::uint64_t>(kFrames * kCols));
  }
}

TEST(ReadyCounter, ManyWaitersAllRelease) {
  ReadyCounter counter;
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (std::uint64_t i = 0; i < 8; ++i) {
    waiters.emplace_back([&, i] {
      counter.wait_for(i + 1);
      released.fetch_add(1);
    });
  }
  for (std::uint64_t step = 1; step <= 8; ++step) {
    counter.publish(step);
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(released.load(), 8);
}

// --- zero-worker pool: tasks run inside the waiting thread --------------

TEST(ZeroWorkerPool, WaitFromNonPoolThreadRunsTheGroup) {
  ThreadPool pool(0);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  std::atomic<int> count{0};
  std::set<std::thread::id> threads;
  for (int i = 0; i < 10; ++i) {
    pool.submit(lane, [&] {
      count.fetch_add(1);
      threads.insert(std::this_thread::get_id());
    }, &group);
  }
  EXPECT_EQ(count.load(), 0) << "nothing runs before someone waits";
  // Helping works from any thread, not only the one that submitted.
  std::thread helper([&] { pool.wait(group); });
  helper.join();
  EXPECT_EQ(count.load(), 10);
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_NE(*threads.begin(), std::this_thread::get_id());
}

TEST(ZeroWorkerPool, RunsEachLaneInFifoOrder) {
  ThreadPool pool(0);
  ThreadPool::Queue a(pool);
  ThreadPool::Queue b(pool);
  TaskGroup group;
  std::vector<std::pair<int, int>> order;  // (lane, seq)
  for (int i = 0; i < 10; ++i) {
    pool.submit(a, [&order, i] { order.emplace_back(0, i); }, &group);
    pool.submit(b, [&order, i] { order.emplace_back(1, i); }, &group);
  }
  pool.wait(group);
  int next[2] = {0, 0};
  for (const auto& [lane, seq] : order) {
    EXPECT_EQ(seq, next[lane]) << "lane " << lane;
    ++next[lane];
  }
  EXPECT_EQ(next[0], 10);
  EXPECT_EQ(next[1], 10);
}

TEST(ZeroWorkerPool, NestedSubmitAndWaitDoesNotDeadlock) {
  // The encoder's shape: a frame task submits row tasks and waits for them
  // from inside the outer wait.
  ThreadPool pool(0);
  ThreadPool::Queue lane(pool);
  TaskGroup outer;
  std::vector<int> order;
  pool.submit(lane, [&] {
    TaskGroup inner;
    for (int i = 0; i < 4; ++i) {
      pool.submit(lane, [&order, i] { order.push_back(i); }, &inner);
    }
    pool.wait(inner);
    order.push_back(100);
  }, &outer);
  pool.wait(outer);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100}));
}

TEST(ZeroWorkerPool, WaitRethrowsTheFirstTaskError) {
  ThreadPool pool(0);
  ThreadPool::Queue lane(pool);
  TaskGroup group;
  int after = 0;
  pool.submit(lane, [] { throw std::runtime_error("inline boom"); }, &group);
  pool.submit(lane, [] { throw std::runtime_error("second boom"); }, &group);
  pool.submit(lane, [&after] { ++after; }, &group);
  try {
    pool.wait(group);
    FAIL() << "wait(group) swallowed the task error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inline boom");
  }
  EXPECT_EQ(after, 1) << "the batch must still run to completion";
  pool.wait(group);  // consumed: must not rethrow again
}

TEST(ZeroWorkerPool, QueueDestructorRunsItsQueuedTasks) {
  ThreadPool pool(0);
  int count = 0;
  {
    ThreadPool::Queue lane(pool);
    for (int i = 0; i < 5; ++i) {
      pool.submit(lane, [&count] { ++count; });
    }
  }
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace acbm::util
