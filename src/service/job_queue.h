// Bounded admission queue for the fp8qd service (docs/SERVICE.md).
//
// Admission control is the service's overload story: the queue holds at
// most `capacity` jobs, and a submit that arrives when it is full is
// rejected immediately with a queue_full error rather than buffered --
// the client sees back-pressure instead of unbounded latency. Dispatch
// order is priority-then-FIFO: pop_best() returns the highest-priority
// queued job, oldest first within a priority, which is deterministic for
// any submission history.
//
// Not internally synchronized: the Server guards it with its own mutex
// (the queue is touched from the poll loop and the executor thread, both
// under that lock). Linear scans are fine -- capacity is O(64), and each
// job behind it runs for milliseconds to minutes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace fp8q::service {

/// One submitted job, shared between the queue, the id table, the
/// executor and any waiting result responses. All fields are guarded by
/// the Server's mutex after submission.
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::uint64_t submit_ns = 0;  ///< obs_now_ns() at admission
  std::uint64_t start_ns = 0;   ///< when the executor picked it up
  std::uint64_t finish_ns = 0;  ///< when it reached a terminal state
  std::string report_json;      ///< report JSON (state == kDone)
  std::string error;            ///< failure reason (kFailed/kExpired/kCancelled)
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits a job; false when the queue is at capacity (caller rejects).
  bool push(std::shared_ptr<Job> job);

  /// Removes and returns the best queued job: max priority, then earliest
  /// admission. nullptr when empty.
  [[nodiscard]] std::shared_ptr<Job> pop_best();

  /// Removes a specific queued job (cancel path). nullptr when `id` is
  /// not in the queue (already running, finished, or never admitted).
  [[nodiscard]] std::shared_ptr<Job> remove(std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    std::uint64_t seq = 0;  ///< admission order, for FIFO within a priority
    std::shared_ptr<Job> job;
  };

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace fp8q::service
