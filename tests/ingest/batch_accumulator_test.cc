// BatchAccumulator contract: last-writer-wins coalescing reconciled
// against the base graph (dedup, add-then-remove cancellation, ghost
// removes, duplicate adds), exact size/age/quiet flush boundaries, the
// quiet trigger under seeded Poisson and burst traffic on an injected
// clock, visit coalescing — and the property the streaming oracle
// rests on: the emitted delta is invariant under every permutation of
// Absorb calls and equals the net of sequential replay.

#include "ingest/batch_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"

namespace qrank {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

CsrGraph MakeGraph(NodeId n, std::vector<Edge> edges) {
  return CsrGraph::FromEdges(n, edges).value();
}

// Events in tests bypass the queue, so stamp sequence/time by hand.
UpdateEvent At(UpdateEvent event, uint64_t sequence,
               steady_clock::time_point when = steady_clock::now()) {
  event.sequence = sequence;
  event.enqueue_time = when;
  return event;
}

TEST(BatchAccumulatorTest, DuplicateAddsCoalesceToOneDelta) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 1));
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 2));
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 3));
  FlushedBatch batch = acc.Flush(MakeGraph(2, {})).value();
  ASSERT_EQ(batch.delta.added.size(), 1u);
  EXPECT_EQ(batch.delta.added[0], (Edge{0, 1}));
  EXPECT_TRUE(batch.delta.removed.empty());
  EXPECT_EQ(batch.num_events, 3u);
  EXPECT_EQ(batch.num_adds, 3u);
  EXPECT_EQ(batch.first_sequence, 1u);
  EXPECT_EQ(batch.last_sequence, 3u);
}

TEST(BatchAccumulatorTest, AddThenRemoveOfNewEdgeCancels) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 1));
  acc.Absorb(At(UpdateEvent::RemoveEdge(0, 1), 2));
  FlushedBatch batch = acc.Flush(MakeGraph(2, {})).value();
  // Edge never existed and the last word was "remove": net nothing.
  EXPECT_TRUE(batch.delta.empty());
  EXPECT_EQ(batch.num_events, 2u);
}

TEST(BatchAccumulatorTest, RemoveThenAddOfExistingEdgeCancels) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::RemoveEdge(0, 1), 1));
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 2));
  // Last word is "add" and the base already has the edge: no-op.
  FlushedBatch batch = acc.Flush(MakeGraph(2, {{0, 1}})).value();
  EXPECT_TRUE(batch.delta.empty());
}

TEST(BatchAccumulatorTest, GhostRemoveAndDuplicateAddAreNoOps) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::RemoveEdge(3, 4), 1));  // never existed
  acc.Absorb(At(UpdateEvent::AddEdge(0, 1), 2));     // already in base
  FlushedBatch batch = acc.Flush(MakeGraph(5, {{0, 1}})).value();
  // Neither survives reconciliation, so ApplyDelta's exactness contract
  // (removals exist, additions absent) holds by construction.
  EXPECT_TRUE(batch.delta.empty());
  EXPECT_EQ(batch.delta.old_num_nodes, 5u);
  EXPECT_EQ(batch.delta.new_num_nodes, 5u);
}

TEST(BatchAccumulatorTest, SelfLoopsCountButProduceNoIntent) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::AddEdge(2, 2), 1));
  FlushedBatch batch = acc.Flush(MakeGraph(3, {})).value();
  EXPECT_TRUE(batch.delta.empty());
  EXPECT_EQ(batch.num_events, 1u);  // still covered + latency-measured
  EXPECT_EQ(batch.last_sequence, 1u);
}

TEST(BatchAccumulatorTest, AddedEdgeBeyondBaseGrowsNodeCount) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::AddEdge(1, 6), 1));
  FlushedBatch batch = acc.Flush(MakeGraph(3, {{0, 1}})).value();
  EXPECT_EQ(batch.delta.old_num_nodes, 3u);
  EXPECT_EQ(batch.delta.new_num_nodes, 7u);
  ASSERT_EQ(batch.delta.added.size(), 1u);
  EXPECT_EQ(batch.delta.added[0], (Edge{1, 6}));
}

TEST(BatchAccumulatorTest, VisitsCoalesceIntoSortedCounts) {
  BatchAccumulator acc;
  acc.Absorb(At(UpdateEvent::Visit(5), 1));
  acc.Absorb(At(UpdateEvent::Visit(2), 2));
  acc.Absorb(At(UpdateEvent::Visit(5), 3));
  FlushedBatch batch = acc.Flush(MakeGraph(6, {})).value();
  ASSERT_EQ(batch.visits.size(), 2u);
  EXPECT_EQ(batch.visits[0], (std::pair<NodeId, uint64_t>{2, 1}));
  EXPECT_EQ(batch.visits[1], (std::pair<NodeId, uint64_t>{5, 2}));
  EXPECT_EQ(batch.num_visits, 3u);
}

TEST(BatchAccumulatorTest, SizeFlushBoundaryIsExact) {
  BatchPolicy policy;
  policy.max_events = 3;
  policy.max_age = std::chrono::hours(1);  // age can never trigger here
  BatchAccumulator acc(policy);
  const steady_clock::time_point now = steady_clock::now();
  EXPECT_FALSE(acc.ShouldFlush(now));  // empty never flushes
  acc.Absorb(At(UpdateEvent::Visit(0), 1, now));
  acc.Absorb(At(UpdateEvent::Visit(1), 2, now));
  EXPECT_FALSE(acc.ShouldFlush(now));  // 2 < 3
  acc.Absorb(At(UpdateEvent::Visit(2), 3, now));
  EXPECT_TRUE(acc.ShouldFlush(now));  // exactly max_events
}

TEST(BatchAccumulatorTest, AgeFlushBoundaryTracksOldestEvent) {
  BatchPolicy policy;
  policy.max_events = 1000;
  policy.max_age = milliseconds(50);
  BatchAccumulator acc(policy);
  const steady_clock::time_point t0 = steady_clock::now();
  acc.Absorb(At(UpdateEvent::Visit(0), 1, t0));
  // A newer event must not reset the staleness clock of the oldest.
  acc.Absorb(At(UpdateEvent::Visit(1), 2, t0 + milliseconds(40)));
  EXPECT_FALSE(acc.ShouldFlush(t0 + milliseconds(49)));
  EXPECT_TRUE(acc.ShouldFlush(t0 + milliseconds(50)));  // inclusive edge
  FlushedBatch batch = acc.Flush(MakeGraph(2, {})).value();
  EXPECT_EQ(batch.num_events, 2u);
  // Flush resets the age clock along with everything else.
  acc.Absorb(At(UpdateEvent::Visit(2), 3, t0 + milliseconds(60)));
  EXPECT_FALSE(acc.ShouldFlush(t0 + milliseconds(100)));
}

TEST(BatchAccumulatorTest, QuietFlushBoundaryTracksNewestEvent) {
  BatchPolicy policy;
  policy.max_events = 1000;
  policy.max_age = milliseconds(80);  // quiet floor: 10 ms
  BatchAccumulator acc(policy);
  const steady_clock::time_point t0 = steady_clock::now();
  // Seven events 1 ms apart: one short of the quiet trigger's minimum.
  for (uint64_t i = 0; i < 7; ++i) {
    acc.Absorb(At(UpdateEvent::Visit(0), i + 1, t0 + milliseconds(i)));
  }
  EXPECT_EQ(acc.DueReason(t0 + milliseconds(79)), FlushReason::kNone);
  acc.Absorb(At(UpdateEvent::Visit(0), 8, t0 + milliseconds(7)));
  // Mean gap 1 ms, so the gap is the 10 ms floor, counted from the
  // newest event.
  EXPECT_EQ(QuietGap(policy, acc.arrivals()), milliseconds(10));
  EXPECT_EQ(acc.DueReason(t0 + milliseconds(16)), FlushReason::kNone);
  EXPECT_EQ(acc.DueReason(t0 + milliseconds(17)), FlushReason::kQuiet);
  EXPECT_EQ(FlushDeadline(policy, acc.arrivals()), t0 + milliseconds(17));
  // Age is reported first once it is due too.
  EXPECT_EQ(acc.DueReason(t0 + milliseconds(80)), FlushReason::kAge);
}

TEST(BatchAccumulatorTest, QuietGapScalesWithMeanInterArrivalGap) {
  BatchPolicy policy;
  policy.max_age = milliseconds(800);  // floor 100 ms
  BatchAccumulator acc(policy);
  const steady_clock::time_point t0 = steady_clock::now();
  for (uint64_t i = 0; i < 9; ++i) {
    acc.Absorb(At(UpdateEvent::Visit(0), i + 1, t0 + milliseconds(20 * i)));
  }
  // Mean gap 20 ms: 8 x 20 = 160 ms beats the 100 ms floor.
  EXPECT_EQ(QuietGap(policy, acc.arrivals()), milliseconds(160));
  const steady_clock::time_point newest = t0 + milliseconds(160);
  EXPECT_FALSE(acc.ShouldFlush(newest + milliseconds(159)));
  EXPECT_EQ(acc.DueReason(newest + milliseconds(160)), FlushReason::kQuiet);
}

TEST(BatchAccumulatorTest, HourLongMaxAgeTurnsQuietFlushOff) {
  BatchPolicy policy;
  policy.max_events = 1 << 14;
  policy.max_age = std::chrono::hours(1);
  BatchAccumulator acc(policy);
  const steady_clock::time_point t0 = steady_clock::now();
  for (uint64_t i = 0; i < 500; ++i) {
    acc.Absorb(At(UpdateEvent::Visit(0), i + 1, t0));
  }
  // The quiet floor is max_age / 8 = 450 s: a 100 s silence is not one.
  EXPECT_FALSE(acc.ShouldFlush(t0 + std::chrono::seconds(100)));
  EXPECT_EQ(FlushDeadline(policy, acc.arrivals()),
            t0 + std::chrono::seconds(450));
}

TEST(BatchAccumulatorTest, FlushDeadlineSaturatesInsteadOfOverflowing) {
  BatchPolicy policy;
  policy.max_age = nanoseconds::max();
  BatchAccumulator acc(policy);
  EXPECT_EQ(FlushDeadline(policy, acc.arrivals()),
            steady_clock::time_point::max());  // empty: never
  acc.Absorb(At(UpdateEvent::Visit(0), 1, steady_clock::now()));
  EXPECT_EQ(FlushDeadline(policy, acc.arrivals()),
            steady_clock::time_point::max());
}

// Flush-rule traffic tests on an injected clock. A trace is a sorted
// list of arrival times; Replay feeds it through an accumulator the way
// the consumer does — a batch due before the next arrival flushes at
// its FlushDeadline, a full batch flushes on its last event — and
// records every flush.
struct TraceFlush {
  FlushReason reason;
  steady_clock::time_point at;
  uint64_t events;
};

std::vector<TraceFlush> Replay(const BatchPolicy& policy,
                               const std::vector<nanoseconds>& trace) {
  const steady_clock::time_point t0{};
  BatchAccumulator acc(policy);
  const CsrGraph base = MakeGraph(1, {});
  std::vector<TraceFlush> flushes;
  auto flush = [&](FlushReason reason, steady_clock::time_point at) {
    flushes.push_back({reason, at, acc.num_events()});
    EXPECT_TRUE(acc.Flush(base).ok());
  };
  uint64_t sequence = 0;
  for (const nanoseconds& offset : trace) {
    const steady_clock::time_point t = t0 + offset;
    if (acc.ShouldFlush(t)) {
      const steady_clock::time_point at =
          FlushDeadline(policy, acc.arrivals());
      flush(acc.DueReason(at), at);
    }
    acc.Absorb(At(UpdateEvent::Visit(0), ++sequence, t));
    if (acc.DueReason(t) == FlushReason::kFull) flush(FlushReason::kFull, t);
  }
  if (!acc.empty()) {
    const steady_clock::time_point at = FlushDeadline(policy, acc.arrivals());
    flush(acc.DueReason(at), at);
  }
  return flushes;
}

// The same trace under the size and age triggers alone.
size_t SizeAgeFlushes(const BatchPolicy& policy,
                      const std::vector<nanoseconds>& trace) {
  size_t flushes = 0;
  size_t held = 0;
  nanoseconds oldest{};
  for (const nanoseconds& t : trace) {
    if (held > 0 && t - oldest >= policy.max_age) {
      ++flushes;
      held = 0;
    }
    if (held++ == 0) oldest = t;
    if (held == policy.max_events) {
      ++flushes;
      held = 0;
    }
  }
  return flushes + (held > 0 ? 1 : 0);
}

TEST(BatchAccumulatorTrafficTest, PoissonStreamsRarelyEndBatchesEarly) {
  BatchPolicy policy;
  policy.max_events = 4096;
  policy.max_age = milliseconds(50);
  for (const double rate : {1.0, 10.0, 100.0, 1e3, 1e4, 1e5}) {
    Rng rng(static_cast<uint64_t>(rate) + 17);
    // Enough events for hundreds of batches at every rate.
    const size_t n = static_cast<size_t>(std::min(rate * 1000.0, 200000.0));
    std::vector<nanoseconds> trace;
    trace.reserve(n);
    double t_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t_s += rng.Exponential(rate);
      trace.push_back(nanoseconds(static_cast<int64_t>(t_s * 1e9)));
    }
    const std::vector<TraceFlush> flushes = Replay(policy, trace);
    const size_t baseline = SizeAgeFlushes(policy, trace);
    size_t quiet = 0;
    for (const TraceFlush& f : flushes) {
      quiet += f.reason == FlushReason::kQuiet ? 1 : 0;
    }
    EXPECT_LE(static_cast<double>(flushes.size()),
              1.05 * static_cast<double>(baseline))
        << rate << " events/s: " << flushes.size() << " flushes (" << quiet
        << " quiet) vs " << baseline << " under size/age alone";
  }
}

TEST(BatchAccumulatorTrafficTest, BurstFlushesAsOneBatchSoonAfterItEnds) {
  BatchPolicy policy;
  policy.max_events = 4096;
  policy.max_age = milliseconds(50);
  Rng rng(4096);
  std::vector<nanoseconds> trace;
  std::vector<std::pair<nanoseconds, size_t>> bursts;  // (last event, size)
  nanoseconds start{};
  for (size_t size = 8; size <= 4096; size *= 2) {
    for (int rep = 0; rep < 3; ++rep) {
      // `size` arrivals spread at random over at most 5 ms.
      std::vector<nanoseconds> burst;
      for (size_t i = 0; i < size; ++i) {
        burst.push_back(
            start + nanoseconds(static_cast<int64_t>(rng.UniformUint64(
                        static_cast<uint64_t>(milliseconds(5).count())))));
      }
      std::sort(burst.begin(), burst.end());
      trace.insert(trace.end(), burst.begin(), burst.end());
      bursts.push_back({burst.back(), size});
      // At least 100 ms of silence before the next burst.
      start = burst.back() + milliseconds(100) +
              microseconds(rng.UniformUint64(50000));
    }
  }
  const std::vector<TraceFlush> flushes = Replay(policy, trace);
  ASSERT_EQ(flushes.size(), bursts.size());
  const steady_clock::time_point t0{};
  for (size_t i = 0; i < bursts.size(); ++i) {
    const auto& [last, size] = bursts[i];
    EXPECT_EQ(flushes[i].events, size) << "burst " << i;
    EXPECT_LE(flushes[i].at,
              t0 + last + policy.max_age / 8 + milliseconds(1))
        << "burst " << i << " of " << size << " events";
    EXPECT_EQ(flushes[i].reason,
              size == policy.max_events ? FlushReason::kFull
                                        : FlushReason::kQuiet)
        << "burst " << i;
  }
}

TEST(BatchAccumulatorTest, FlushOfEmptyBatchFails) {
  BatchAccumulator acc;
  EXPECT_EQ(acc.Flush(MakeGraph(2, {})).status().code(),
            StatusCode::kFailedPrecondition);
}

// The property everything downstream leans on: the flushed delta
// depends only on the event *set* (sequences fix a total order), not on
// the order Absorb saw them — and it equals the net of replaying the
// events one at a time in sequence order. Sweeps all 720 permutations
// of a 6-event stream that exercises every reconciliation rule at once.
TEST(BatchAccumulatorTest, DeltaInvariantUnderAbsorbPermutations) {
  // Base: 4 nodes, edges 0->1 and 2->3 present.
  const CsrGraph base = MakeGraph(4, {{0, 1}, {2, 3}});
  const std::vector<UpdateEvent> stream = {
      At(UpdateEvent::RemoveEdge(0, 1), 1),  // remove existing ...
      At(UpdateEvent::AddEdge(0, 1), 2),     // ... then re-add: no-op
      At(UpdateEvent::AddEdge(1, 2), 3),     // plain new edge
      At(UpdateEvent::AddEdge(3, 0), 4),     // ...
      At(UpdateEvent::RemoveEdge(3, 0), 5),  // ... cancelled again
      At(UpdateEvent::RemoveEdge(2, 3), 6),  // remove existing, survives
  };

  // Reference: sequential replay over an explicit edge set.
  std::set<std::pair<NodeId, NodeId>> replay = {{0, 1}, {2, 3}};
  for (const UpdateEvent& e : stream) {
    if (e.kind == UpdateKind::kAddEdge) {
      replay.insert({e.src, e.dst});
    } else if (e.kind == UpdateKind::kRemoveEdge) {
      replay.erase({e.src, e.dst});
    }
  }

  std::vector<size_t> order = {0, 1, 2, 3, 4, 5};
  size_t permutations = 0;
  do {
    BatchAccumulator acc;
    for (size_t i : order) acc.Absorb(stream[i]);
    FlushedBatch batch = acc.Flush(base).value();
    ASSERT_EQ(batch.delta.added, (std::vector<Edge>{{1, 2}}))
        << "permutation " << permutations;
    ASSERT_EQ(batch.delta.removed, (std::vector<Edge>{{2, 3}}))
        << "permutation " << permutations;
    ASSERT_EQ(batch.first_sequence, 1u);
    ASSERT_EQ(batch.last_sequence, 6u);
    // Streaming net == sequential replay net.
    const CsrGraph applied = base.ApplyDelta(batch.delta).value();
    std::set<std::pair<NodeId, NodeId>> streamed;
    for (NodeId u = 0; u < applied.num_nodes(); ++u) {
      for (NodeId v : applied.OutNeighbors(u)) streamed.insert({u, v});
    }
    ASSERT_EQ(streamed, replay) << "permutation " << permutations;
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 720u);
}

}  // namespace
}  // namespace qrank
