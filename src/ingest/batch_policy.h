// BatchPolicy: when a pending batch of update events ends and becomes
// one generation.
//
// Three triggers end a batch (DueReason):
//   * full  — it holds max_events events (size bound);
//   * age   — its oldest event has waited max_age (staleness bound);
//   * quiet — it holds >= 8 events and none has arrived for
//             QuietGap = max(max_age / 8, 8 x the batch's mean
//             inter-arrival gap).
// The caller adds a fourth reason, drain: the queue is closed and
// nothing more can arrive.
//
// Why a quiet trigger. max_age trades batching efficiency against
// staleness, but once every event of a burst is queued the rest of the
// linger buys no batching at all: a 2,048-event burst queued within a
// few ms would otherwise sit out all 50 ms of the default max_age. The
// quiet trigger ends such a batch a short silence after its last event.
//
// Why the quiet gap scales with max_age and with the batch's own rate.
// The silence is judged against the batch's mean inter-arrival gap: a
// Poisson stream leaves a gap of 8 mean gaps with probability
// e^-8 ~ 3e-4, so a steady stream at any rate almost never ends a
// batch early. The floor max_age / 8 ties the trigger to the one knob
// callers already set, so there is no new knob: a policy that lingers
// long also waits long for silence, and a policy that switches age
// flushes off with an hour-long max_age switches quiet flushes off with
// it. The >= 8 events guard keeps the mean gap from being read off one
// or two arrivals.
//
// The rule reads only an ArrivalSpan (event count, oldest and newest
// enqueue time), so the accumulator (for the events it holds) and the
// queue (for those plus the events still queued) evaluate the same
// function: the consumer sleeps until FlushDeadline and is woken early
// only when a push could move it.

#ifndef QRANK_INGEST_BATCH_POLICY_H_
#define QRANK_INGEST_BATCH_POLICY_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace qrank {

struct BatchPolicy {
  /// Flush once this many events have been absorbed.
  size_t max_events = 4096;
  /// Flush once the oldest absorbed event has waited this long — the
  /// batching half of the bounded-staleness SLO (the other half is the
  /// compute+publish time itself). An eighth of it is the quiet
  /// trigger's shortest silence.
  std::chrono::nanoseconds max_age = std::chrono::milliseconds(50);
};

/// Which trigger ended a batch.
enum class FlushReason : uint8_t {
  kNone = 0,  // not due
  kFull,      // max_events reached
  kAge,       // oldest event waited max_age
  kQuiet,     // the stream went quiet
  kDrain,     // the queue closed with the batch not otherwise due
};

/// Enqueue times of a batch's events: all the time triggers read.
struct ArrivalSpan {
  using TimePoint = std::chrono::steady_clock::time_point;

  uint64_t events = 0;
  TimePoint oldest{};
  TimePoint newest{};

  /// Adds one event (any order).
  void Add(TimePoint enqueue_time);
  /// Adds every event of `other`.
  void Merge(const ArrivalSpan& other);
};

/// The silence that ends a batch of `span` events: max(max_age / 8,
/// 8 x mean inter-arrival gap). Meaningful for spans of >= 2 events.
std::chrono::nanoseconds QuietGap(const BatchPolicy& policy,
                                  const ArrivalSpan& span);

/// The trigger (full, then age, then quiet) that makes `span` due at
/// `now`; kNone when none does. Never kDrain.
FlushReason DueReason(const BatchPolicy& policy, const ArrivalSpan& span,
                      ArrivalSpan::TimePoint now);

/// The earliest time the age or quiet trigger fires for `span`, or
/// TimePoint::max() when neither can (an empty span). The full trigger
/// is not a time and is left to the caller.
ArrivalSpan::TimePoint FlushDeadline(const BatchPolicy& policy,
                                     const ArrivalSpan& span);

}  // namespace qrank

#endif  // QRANK_INGEST_BATCH_POLICY_H_
