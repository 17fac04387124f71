#include "ingest/batch_policy.h"

#include <algorithm>

namespace qrank {

namespace {

using TimePoint = ArrivalSpan::TimePoint;

// A quiet flush needs this many events, so that the mean gap is not
// read off one or two arrivals.
constexpr uint64_t kQuietMinEvents = 8;

// t + d, clamped to TimePoint::max() (an hour-long max_age is common,
// and callers may pass nanoseconds::max() to mean "never").
TimePoint AddSaturating(TimePoint t, std::chrono::nanoseconds d) {
  return d >= TimePoint::max() - t ? TimePoint::max() : t + d;
}

bool QuietEligible(const ArrivalSpan& span) {
  return span.events >= kQuietMinEvents;
}

}  // namespace

void ArrivalSpan::Add(TimePoint enqueue_time) {
  if (events == 0 || enqueue_time < oldest) oldest = enqueue_time;
  if (events == 0 || enqueue_time > newest) newest = enqueue_time;
  ++events;
}

void ArrivalSpan::Merge(const ArrivalSpan& other) {
  if (other.events == 0) return;
  if (events == 0) {
    *this = other;
    return;
  }
  oldest = std::min(oldest, other.oldest);
  newest = std::max(newest, other.newest);
  events += other.events;
}

std::chrono::nanoseconds QuietGap(const BatchPolicy& policy,
                                  const ArrivalSpan& span) {
  const std::chrono::nanoseconds floor = policy.max_age / 8;
  if (span.events < 2) return floor;
  const std::chrono::nanoseconds mean_gap =
      (span.newest - span.oldest) / static_cast<int64_t>(span.events - 1);
  return std::max(floor, 8 * mean_gap);
}

FlushReason DueReason(const BatchPolicy& policy, const ArrivalSpan& span,
                      TimePoint now) {
  if (span.events == 0) return FlushReason::kNone;
  if (span.events >= policy.max_events) return FlushReason::kFull;
  if (now - span.oldest >= policy.max_age) return FlushReason::kAge;
  if (QuietEligible(span) && now - span.newest >= QuietGap(policy, span)) {
    return FlushReason::kQuiet;
  }
  return FlushReason::kNone;
}

TimePoint FlushDeadline(const BatchPolicy& policy, const ArrivalSpan& span) {
  if (span.events == 0) return TimePoint::max();
  const TimePoint age = AddSaturating(span.oldest, policy.max_age);
  if (!QuietEligible(span)) return age;
  return std::min(age, AddSaturating(span.newest, QuietGap(policy, span)));
}

}  // namespace qrank
