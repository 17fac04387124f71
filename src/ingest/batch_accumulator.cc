#include "ingest/batch_accumulator.h"

#include <algorithm>

namespace qrank {

namespace {

uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | static_cast<uint64_t>(dst);
}

}  // namespace

BatchAccumulator::BatchAccumulator(BatchPolicy policy) : policy_(policy) {}

void BatchAccumulator::Absorb(const UpdateEvent& event) {
  if (empty() || event.sequence < first_sequence_) {
    first_sequence_ = event.sequence;
  }
  last_sequence_ = std::max(last_sequence_, event.sequence);
  arrivals_.Add(event.enqueue_time);
  enqueue_times_.push_back(event.enqueue_time);

  switch (event.kind) {
    case UpdateKind::kVisit:
      ++num_visits_;
      visit_counts_[event.src] += 1;
      return;
    case UpdateKind::kAddEdge:
      ++num_adds_;
      break;
    case UpdateKind::kRemoveEdge:
      ++num_removes_;
      break;
  }
  // Self-loops carry no endorsement and are never stored in a CsrGraph;
  // the event still counts toward the batch (it is covered and its
  // latency measured) but produces no intent.
  if (event.src == event.dst) return;
  EdgeIntent& intent = edge_intents_[EdgeKey(event.src, event.dst)];
  if (intent.sequence <= event.sequence) {
    intent.sequence = event.sequence;
    intent.kind = event.kind;
  }
}

Result<FlushedBatch> BatchAccumulator::Flush(const CsrGraph& base) {
  if (empty()) {
    return Status::FailedPrecondition("flush of an empty batch");
  }
  FlushedBatch batch;
  const NodeId base_nodes = base.num_nodes();
  NodeId new_nodes = base_nodes;
  for (const auto& [key, intent] : edge_intents_) {
    const NodeId src = static_cast<NodeId>(key >> 32);
    const NodeId dst = static_cast<NodeId>(key & 0xffffffffu);
    const bool in_base =
        src < base_nodes && dst < base_nodes && base.HasEdge(src, dst);
    if (intent.kind == UpdateKind::kAddEdge && !in_base) {
      batch.delta.added.push_back({src, dst});
      new_nodes = std::max(new_nodes, std::max(src, dst) + 1);
    } else if (intent.kind == UpdateKind::kRemoveEdge && in_base) {
      batch.delta.removed.push_back({src, dst});
    }
  }
  std::sort(batch.delta.added.begin(), batch.delta.added.end());
  std::sort(batch.delta.removed.begin(), batch.delta.removed.end());
  batch.delta.old_num_nodes = base_nodes;
  batch.delta.new_num_nodes = new_nodes;

  batch.visits.assign(visit_counts_.begin(), visit_counts_.end());
  std::sort(batch.visits.begin(), batch.visits.end());

  batch.first_sequence = first_sequence_;
  batch.last_sequence = last_sequence_;
  batch.num_events = arrivals_.events;
  batch.num_adds = num_adds_;
  batch.num_removes = num_removes_;
  batch.num_visits = num_visits_;
  batch.enqueue_times = std::move(enqueue_times_);

  edge_intents_.clear();
  visit_counts_.clear();
  enqueue_times_.clear();
  first_sequence_ = last_sequence_ = 0;
  num_adds_ = num_removes_ = num_visits_ = 0;
  arrivals_ = {};
  return batch;
}

}  // namespace qrank
