// Bounded multi-producer update queue: the front door of the continuous
// ingest pipeline.
//
// The paper's central complaint is that rankings are computed from stale
// snapshots; the ingest subsystem (src/ingest/) closes the gap by
// turning edge and visit events into servable score-bundle generations
// continuously. UpdateQueue is the arrival edge of that loop: crawler /
// frontend threads Push edge-add, edge-remove and visit events; the
// IngestService consumer drains them in batches. Every accepted event is
// stamped with a strictly increasing sequence number and its enqueue
// time — the sequence is what the no-lost-updates contract is audited
// against, and the timestamp is where the update-to-servable latency
// measurement starts.
//
// The queue is bounded. When full, the configured BackpressurePolicy
// decides: kBlock parks the producer until the consumer frees space
// (ingest cannot silently fall behind), kReject fails the Push with
// OutOfRange and counts it (callers that prefer load-shedding). Close()
// wakes every parked producer and consumer; pushes after Close fail
// FailedPrecondition while pops keep draining whatever is queued, so a
// shutdown with a non-empty queue loses nothing.
//
// Consumer wake-ups. A blocked consumer registers what it waits for —
// a depth, and a deadline — and Push wakes it only when the push meets
// the depth or moves the deadline earlier, never once per event. The
// batching consumer (PopDue) waits for its batch to be due under the
// BatchPolicy: the batch reaching max_events, the age or quiet
// deadline of the events it holds plus those still queued, or Close().
// It sleeps until that deadline instead of polling.
//
// Thread model: any number of producers, and one consumer blocked in a
// pop at a time (mutex + two condition variables; IngestService is
// MPSC). Counter conservation (depth == enqueued - dequeued <=
// capacity) is checkable with the ingest.queue audit validator.

#ifndef QRANK_INGEST_UPDATE_QUEUE_H_
#define QRANK_INGEST_UPDATE_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/edge_list.h"
#include "ingest/batch_policy.h"

namespace qrank {

/// What happened out there on the web.
enum class UpdateKind : uint8_t {
  kAddEdge = 0,     // page src gained a link to page dst
  kRemoveEdge = 1,  // page src lost its link to page dst
  kVisit = 2,       // a user visited page src (dst unused)
};

const char* UpdateKindName(UpdateKind kind);

struct UpdateEvent {
  UpdateKind kind = UpdateKind::kAddEdge;
  NodeId src = 0;
  NodeId dst = 0;

  /// Assigned by the queue when the push is accepted: 1-based, strictly
  /// increasing across all producers. 0 = not yet enqueued.
  uint64_t sequence = 0;
  /// Assigned by the queue when the push is accepted; the update-to-
  /// servable latency clock starts here.
  std::chrono::steady_clock::time_point enqueue_time{};

  static UpdateEvent AddEdge(NodeId src, NodeId dst) {
    return {UpdateKind::kAddEdge, src, dst, 0, {}};
  }
  static UpdateEvent RemoveEdge(NodeId src, NodeId dst) {
    return {UpdateKind::kRemoveEdge, src, dst, 0, {}};
  }
  static UpdateEvent Visit(NodeId page) {
    return {UpdateKind::kVisit, page, 0, 0, {}};
  }
};

/// What Push does when the queue is at capacity.
enum class BackpressurePolicy {
  kBlock,   // wait for space (or for Close)
  kReject,  // fail with OutOfRange and count the rejection
};

struct UpdateQueueOptions {
  size_t capacity = 1 << 16;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

/// Monotonic counters; conservation (depth == enqueued - dequeued,
/// depth <= capacity) is what the ingest.queue audit validator checks.
struct UpdateQueueStats {
  uint64_t capacity = 0;
  uint64_t depth = 0;      // events currently queued
  uint64_t enqueued = 0;   // accepted pushes
  uint64_t dequeued = 0;   // events handed to consumers
  uint64_t rejected = 0;   // kReject pushes refused at capacity
  uint64_t max_depth = 0;  // high-water mark
  bool closed = false;
};

class UpdateQueue {
 public:
  explicit UpdateQueue(UpdateQueueOptions options = {});
  UpdateQueue(const UpdateQueue&) = delete;
  UpdateQueue& operator=(const UpdateQueue&) = delete;

  /// Enqueues `event`, assigning its sequence and enqueue_time. At
  /// capacity: blocks (kBlock) or returns OutOfRange (kReject). After
  /// Close — including producers woken from a blocked Push by Close —
  /// returns FailedPrecondition.
  Status Push(UpdateEvent event);

  /// Pops up to `max_events` events, appending to `*out` in sequence
  /// order. Blocks up to `wait` for the first event; returns the number
  /// popped (0 on timeout, or when the queue is closed and drained —
  /// distinguish via closed()/depth()).
  size_t PopBatch(size_t max_events, std::chrono::nanoseconds wait,
                  std::vector<UpdateEvent>* out);

  /// The batching consumer's pop. `pending` is the span of the events
  /// the caller already holds. Blocks until the batch they form with
  /// the queued events is due under `policy` — it reaches max_events
  /// (or the queue fills), or its FlushDeadline passes — or the queue
  /// is closed. Then pops up to max_events - pending.events events (at
  /// least 1), appending to `*out` in sequence order, and returns how
  /// many. The caller decides the flush reason from what it then holds.
  size_t PopDue(const BatchPolicy& policy, const ArrivalSpan& pending,
                std::vector<UpdateEvent>* out);

  /// Closes the queue: wakes every blocked producer (their Push fails)
  /// and consumer. Queued events remain poppable; a shutdown with a
  /// non-empty queue is drained, not dropped. Idempotent.
  void Close();

  bool closed() const;
  size_t depth() const;
  UpdateQueueStats Stats() const;

 private:
  // What the blocked consumer waits for. Push wakes it once the queue
  // holds `min_depth` events or, with a batch policy, once the batch's
  // FlushDeadline moves before `deadline`; a wake clears `active`.
  struct Waiter {
    bool active = false;
    size_t min_depth = 1;
    const BatchPolicy* policy = nullptr;  // null: fixed deadline
    ArrivalSpan pending;
    std::chrono::steady_clock::time_point deadline;
  };

  /// Blocks until closed, `w.min_depth` queued events, or `w.deadline`
  /// (recomputed from the batch when `w.policy` is set), then pops up
  /// to `max_events` events into `*out`.
  size_t PopWhen(Waiter w, size_t max_events, std::vector<UpdateEvent>* out)
      QRANK_EXCLUDES(mu_);
  /// `pending` plus the queued events' span.
  ArrivalSpan BatchSpanLocked(const ArrivalSpan& pending) const
      QRANK_REQUIRES(mu_);
  /// Push-side test: does the event just queued wake the consumer?
  bool ShouldWakeLocked() QRANK_REQUIRES(mu_);

  const UpdateQueueOptions options_;

  mutable Mutex mu_;
  CondVar not_full_;   // producers park here (kBlock)
  CondVar not_empty_;  // consumers park here
  std::deque<UpdateEvent> events_ QRANK_GUARDED_BY(mu_);
  uint64_t enqueued_ QRANK_GUARDED_BY(mu_) = 0;
  uint64_t dequeued_ QRANK_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ QRANK_GUARDED_BY(mu_) = 0;
  uint64_t max_depth_ QRANK_GUARDED_BY(mu_) = 0;
  bool closed_ QRANK_GUARDED_BY(mu_) = false;
  Waiter waiter_ QRANK_GUARDED_BY(mu_);
};

}  // namespace qrank

#endif  // QRANK_INGEST_UPDATE_QUEUE_H_
