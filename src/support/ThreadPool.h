//===- support/ThreadPool.h - Work-stealing task pool -----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the analysis session. Each worker
/// owns a deque of tasks: it pops from the front of its own deque and, when
/// empty, steals from the back of a sibling's. Submissions are distributed
/// round-robin so a session's per-lane window/shard tasks start spread
/// out even before stealing kicks in.
///
/// The pool is deliberately minimal — no futures, no priorities. Callers
/// submit fire-and-forget closures and synchronize with wait(), which
/// blocks until every submitted task (including tasks submitted *by*
/// running tasks) has finished. Task exceptions are not propagated; session
/// tasks report failures through their own result slots.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_THREADPOOL_H
#define RAPID_SUPPORT_THREADPOOL_H

#include "obs/Metrics.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rapid {

class TraceRecorder;

/// Work-stealing pool of \p NumThreads workers.
class ThreadPool {
public:
  /// Creates a pool with \p NumThreads workers; 0 means
  /// defaultConcurrency().
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. Safe to call from worker threads (a task may fan
  /// out further tasks).
  void submit(std::function<void()> Task);

  /// Blocks until all submitted tasks have completed.
  void wait();

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Tasks executed since construction (telemetry for benches).
  uint64_t tasksExecuted() const;

  /// Tasks obtained by stealing from a sibling's deque (telemetry).
  uint64_t tasksStolen() const;

  /// Tasks that let an exception escape (contained by the worker loop so
  /// the pool survives; the task's own result slot stays unset).
  uint64_t tasksFailed() const;

  /// std::thread::hardware_concurrency() with a floor of 1.
  static unsigned defaultConcurrency();

  /// Attaches observability (obs/): subsequent submissions and executions
  /// update \p Obs's instruments — "tasks", "steals", "task_wait_ns"
  /// (submit-to-start latency), "run_ns", "queue_depth_peak" — and, when
  /// \p Rec is non-null, each worker lazily binds a "pool:worker<I>"
  /// timeline track and wraps every task it runs in a "task" span (stage
  /// spans recorded from inside the task nest within it). Call right
  /// after construction, before the first submit; a disabled scope and a
  /// null recorder keep the zero-cost disabled path (null handles, no
  /// clock reads).
  void attachTelemetry(const MetricsScope &Obs, TraceRecorder *Rec);

private:
  /// A queued task plus its submit timestamp (0 unless task-wait timing
  /// is enabled — the clock is only read when someone will consume it).
  struct Item {
    std::function<void()> Fn;
    uint64_t SubmitNs = 0;
  };
  struct WorkerQueue {
    std::deque<Item> Tasks;
    std::mutex Lock;
  };

  void workerLoop(unsigned Self);
  bool popOwn(unsigned Self, Item &Task);
  bool stealOther(unsigned Self, Item &Task);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  // Observability handles (null/zero until attachTelemetry). The recorder
  // pointer is atomic because workers read it while attach may still be
  // running; everything else is only written by attachTelemetry before
  // the first submit.
  Counter TasksCtr;
  Counter StealsCtr;
  Counter TaskWaitNs;
  Counter RunNs;
  HighWater QueueDepthPeak;
  std::atomic<TraceRecorder *> Rec{nullptr};

  mutable std::mutex StateLock;
  std::condition_variable WorkAvailable; ///< Signals queued work or stop.
  std::condition_variable AllIdle;       ///< Signals Pending hitting zero.
  uint64_t Pending = 0;                  ///< Queued + running tasks.
  uint64_t Queued = 0;                   ///< Tasks not yet claimed.
  uint64_t Executed = 0;
  uint64_t Stolen = 0;
  uint64_t Failed = 0;
  unsigned NextQueue = 0; ///< Round-robin submission cursor.
  bool Stopping = false;
};

} // namespace rapid

#endif // RAPID_SUPPORT_THREADPOOL_H
