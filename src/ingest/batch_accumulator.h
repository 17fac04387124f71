// BatchAccumulator: coalesces a run of update events into one exact
// GraphDelta batch under the size/age/quiet flush policy.
//
// The ingest loop amortizes the per-generation cost (CSR patch,
// incremental PageRank, bundle export, publish) over many events by
// batching. The accumulator absorbs events one at a time and, at flush,
// emits the *net* structural change as a GraphDelta that satisfies
// CsrGraph::ApplyDelta's exactness contract against the base graph.
//
// Coalescing is last-writer-wins per edge key, ordered by the queue's
// sequence numbers: for each (src, dst) the event with the highest
// sequence decides the batch's intent, which is then reconciled against
// the base graph —
//   * intent add,    edge absent in base  -> delta.added
//   * intent add,    edge present in base -> no-op (duplicate add)
//   * intent remove, edge present in base -> delta.removed
//   * intent remove, edge absent in base  -> no-op (ghost remove)
// so an add-then-remove of a new edge cancels to nothing inside the
// batch, duplicates dedup, and self-loops are dropped (CsrGraph never
// stores them). Because the winner is chosen by sequence — not by
// absorption order — the emitted delta is invariant under any
// permutation of Absorb calls (the property the batch_accumulator test
// sweeps), and the net of a batch equals the net of replaying its
// events sequentially, whatever the batch boundaries: the streaming
// pipeline converges to the same graph as an offline rebuild.
//
// Visit events coalesce into per-page counts. Node growth comes from
// surviving added edges only (max endpoint + 1); continuous ingest
// never shrinks the page set.
//
// Flush policy (batch_policy.h): DueReason fires when max_events events
// have been absorbed (size bound), when the oldest absorbed event has
// waited max_age (staleness bound), or when the stream has gone quiet —
// no arrival for max(max_age / 8, 8 x the batch's mean inter-arrival
// gap) once the batch holds >= 8 events. max_events and max_age are
// the two knobs that trade batching efficiency against the
// update-to-servable SLO; the quiet gap derives from max_age, so a
// burst ends its batch a few ms after its last event while a steady
// stream of any rate almost never ends one early.
//
// Not thread-safe: owned and driven by the single IngestService
// consumer thread.

#ifndef QRANK_INGEST_BATCH_ACCUMULATOR_H_
#define QRANK_INGEST_BATCH_ACCUMULATOR_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "graph/graph_delta.h"
#include "ingest/batch_policy.h"
#include "ingest/update_queue.h"

namespace qrank {

/// One coalesced batch, ready for the apply -> rank -> export -> publish
/// generation step.
struct FlushedBatch {
  /// Net structural change vs the flush-time base graph. Satisfies
  /// ApplyDelta's contract by construction.
  GraphDelta delta;
  /// Coalesced visit counts, sorted by page id.
  std::vector<std::pair<NodeId, uint64_t>> visits;

  /// Sequence range covered by this batch (inclusive). Batches cover
  /// contiguous, gap-free ranges; publishing the batch makes every
  /// event with sequence <= last_sequence servable.
  uint64_t first_sequence = 0;
  uint64_t last_sequence = 0;

  /// Raw events absorbed (before coalescing), by kind.
  uint64_t num_events = 0;
  uint64_t num_adds = 0;
  uint64_t num_removes = 0;
  uint64_t num_visits = 0;

  /// Which trigger ended the batch; set by the caller of Flush, which
  /// alone knows about a drain.
  FlushReason reason = FlushReason::kNone;

  /// Enqueue timestamp of every absorbed event — the per-event start
  /// points of the update-to-servable latency measurement.
  std::vector<std::chrono::steady_clock::time_point> enqueue_times;
};

class BatchAccumulator {
 public:
  explicit BatchAccumulator(BatchPolicy policy = {});

  /// Absorbs one event (last-writer-wins by event.sequence).
  void Absorb(const UpdateEvent& event);

  bool empty() const { return arrivals_.events == 0; }
  size_t num_events() const { return arrivals_.events; }
  size_t num_edge_events() const { return num_adds_ + num_removes_; }
  const BatchPolicy& policy() const { return policy_; }
  /// Enqueue times of the pending events (what the time triggers read).
  const ArrivalSpan& arrivals() const { return arrivals_; }

  /// The trigger that makes the pending batch due at `now`, or kNone.
  /// Always kNone while empty.
  FlushReason DueReason(std::chrono::steady_clock::time_point now) const {
    return qrank::DueReason(policy_, arrivals_, now);
  }
  /// True when the size, age or quiet trigger says the pending batch
  /// should be emitted now. Always false while empty.
  bool ShouldFlush(std::chrono::steady_clock::time_point now) const {
    return DueReason(now) != FlushReason::kNone;
  }

  /// Emits the pending batch as a net delta against `base` and resets
  /// the accumulator. FailedPrecondition when empty.
  Result<FlushedBatch> Flush(const CsrGraph& base);

 private:
  struct EdgeIntent {
    uint64_t sequence = 0;
    UpdateKind kind = UpdateKind::kAddEdge;
  };

  BatchPolicy policy_;
  // Keyed by (src << 32) | dst; NodeId is 32-bit so the key is exact.
  std::unordered_map<uint64_t, EdgeIntent> edge_intents_;
  std::unordered_map<NodeId, uint64_t> visit_counts_;
  uint64_t first_sequence_ = 0;
  uint64_t last_sequence_ = 0;
  uint64_t num_adds_ = 0;
  uint64_t num_removes_ = 0;
  uint64_t num_visits_ = 0;
  ArrivalSpan arrivals_;
  std::vector<std::chrono::steady_clock::time_point> enqueue_times_;
};

}  // namespace qrank

#endif  // QRANK_INGEST_BATCH_ACCUMULATOR_H_
