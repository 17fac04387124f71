#include "ingest/update_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace qrank {

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kAddEdge:
      return "add";
    case UpdateKind::kRemoveEdge:
      return "remove";
    case UpdateKind::kVisit:
      return "visit";
  }
  return "unknown";
}

UpdateQueue::UpdateQueue(UpdateQueueOptions options)
    : options_(options) {}

Status UpdateQueue::Push(UpdateEvent event) {
  ReleasableMutexLock lock(&mu_);
  if (closed_) {
    return Status::FailedPrecondition("update queue is closed");
  }
  if (events_.size() >= options_.capacity) {
    if (options_.backpressure == BackpressurePolicy::kReject) {
      ++rejected_;
      return Status::OutOfRange("update queue at capacity");
    }
    while (!closed_ && events_.size() >= options_.capacity) {
      not_full_.Wait(&mu_);
    }
    if (closed_) {
      return Status::FailedPrecondition("update queue closed while blocked");
    }
  }
  event.sequence = ++enqueued_;
  event.enqueue_time = std::chrono::steady_clock::now();
  events_.push_back(event);
  max_depth_ = std::max<uint64_t>(max_depth_, events_.size());
  const bool wake = ShouldWakeLocked();
  lock.Release();
  if (wake) not_empty_.NotifyOne();
  return Status::OK();
}

bool UpdateQueue::ShouldWakeLocked() {
  if (!waiter_.active) return false;
  if (events_.size() < waiter_.min_depth) {
    if (waiter_.policy == nullptr) return false;
    const auto deadline =
        FlushDeadline(*waiter_.policy, BatchSpanLocked(waiter_.pending));
    if (deadline >= waiter_.deadline) return false;
  }
  // One wake per wait: the consumer re-registers if it sleeps again.
  waiter_.active = false;
  return true;
}

ArrivalSpan UpdateQueue::BatchSpanLocked(const ArrivalSpan& pending) const {
  ArrivalSpan span = pending;
  if (!events_.empty()) {
    // Enqueue times are stamped under mu_, so the deque is time-ordered.
    span.Merge({events_.size(), events_.front().enqueue_time,
                events_.back().enqueue_time});
  }
  return span;
}

size_t UpdateQueue::PopWhen(Waiter w, size_t max_events,
                            std::vector<UpdateEvent>* out) {
  ReleasableMutexLock lock(&mu_);
  for (;;) {
    if (closed_ || events_.size() >= w.min_depth) break;
    if (w.policy != nullptr) {
      w.deadline = FlushDeadline(*w.policy, BatchSpanLocked(w.pending));
    }
    if (std::chrono::steady_clock::now() >= w.deadline) break;
    QRANK_DCHECK(!waiter_.active) << "UpdateQueue: two consumers blocked";
    waiter_ = w;
    waiter_.active = true;
    if (w.deadline == std::chrono::steady_clock::time_point::max()) {
      not_empty_.Wait(&mu_);
    } else {
      not_empty_.WaitUntil(&mu_, w.deadline);
    }
    waiter_.active = false;
  }
  const size_t n = std::min(max_events, events_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(events_.front());
    events_.pop_front();
  }
  dequeued_ += n;
  lock.Release();
  if (n > 0) {
    // Several producers can be parked on one drain; wake them all.
    not_full_.NotifyAll();
  }
  return n;
}

size_t UpdateQueue::PopBatch(size_t max_events, std::chrono::nanoseconds wait,
                             std::vector<UpdateEvent>* out) {
  Waiter w;
  w.deadline = std::chrono::steady_clock::now() + wait;
  return PopWhen(w, max_events, out);
}

size_t UpdateQueue::PopDue(const BatchPolicy& policy,
                           const ArrivalSpan& pending,
                           std::vector<UpdateEvent>* out) {
  const size_t room = policy.max_events > pending.events
                          ? policy.max_events - pending.events
                          : size_t{1};
  Waiter w;
  // A full queue cannot reach `room`; it is as due as it can get.
  w.min_depth = std::min(room, options_.capacity);
  w.policy = &policy;
  w.pending = pending;
  return PopWhen(w, room, out);
}

void UpdateQueue::Close() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
  }
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

bool UpdateQueue::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

size_t UpdateQueue::depth() const {
  MutexLock lock(&mu_);
  return events_.size();
}

UpdateQueueStats UpdateQueue::Stats() const {
  MutexLock lock(&mu_);
  UpdateQueueStats stats;
  stats.capacity = options_.capacity;
  stats.depth = events_.size();
  stats.enqueued = enqueued_;
  stats.dequeued = dequeued_;
  stats.rejected = rejected_;
  stats.max_depth = max_depth_;
  stats.closed = closed_;
  return stats;
}

}  // namespace qrank
