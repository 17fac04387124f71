// UpdateQueue contract: sequence stamping, FIFO batch pops, the
// batching consumer's due-time pop, both backpressure policies,
// drain-on-close, and the MPSC stress the TSan job runs — 4 producers
// x 10k events against a batching consumer with full
// counter-conservation accounting at the end.

#include "ingest/update_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "audit/audit.h"

namespace qrank {
namespace {

using std::chrono::milliseconds;

TEST(UpdateQueueTest, PushStampsStrictlyIncreasingSequences) {
  UpdateQueue queue;
  std::vector<UpdateEvent> out;
  ASSERT_TRUE(queue.Push(UpdateEvent::AddEdge(1, 2)).ok());
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(7)).ok());
  ASSERT_TRUE(queue.Push(UpdateEvent::RemoveEdge(1, 2)).ok());
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_EQ(queue.PopBatch(10, milliseconds(0), &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].sequence, 1u);
  EXPECT_EQ(out[1].sequence, 2u);
  EXPECT_EQ(out[2].sequence, 3u);
  EXPECT_EQ(out[0].kind, UpdateKind::kAddEdge);
  EXPECT_EQ(out[1].kind, UpdateKind::kVisit);
  EXPECT_EQ(out[1].src, 7u);
  EXPECT_EQ(out[2].kind, UpdateKind::kRemoveEdge);
  // The latency clock was started on every accepted event.
  for (const UpdateEvent& e : out) {
    EXPECT_NE(e.enqueue_time, std::chrono::steady_clock::time_point{});
  }
}

TEST(UpdateQueueTest, PopBatchRespectsMaxEventsAndKeepsOrder) {
  UpdateQueue queue;
  for (NodeId i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.Push(UpdateEvent::Visit(i)).ok());
  }
  std::vector<UpdateEvent> out;
  EXPECT_EQ(queue.PopBatch(4, milliseconds(0), &out), 4u);
  EXPECT_EQ(queue.PopBatch(4, milliseconds(0), &out), 4u);
  EXPECT_EQ(queue.PopBatch(4, milliseconds(0), &out), 2u);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].sequence, i + 1);
    EXPECT_EQ(out[i].src, static_cast<NodeId>(i));
  }
}

TEST(UpdateQueueTest, PopBatchTimesOutOnEmptyQueue) {
  UpdateQueue queue;
  std::vector<UpdateEvent> out;
  EXPECT_EQ(queue.PopBatch(4, milliseconds(5), &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(queue.closed());
}

TEST(UpdateQueueTest, RejectPolicyFailsAtCapacityAndCounts) {
  UpdateQueueOptions options;
  options.capacity = 2;
  options.backpressure = BackpressurePolicy::kReject;
  UpdateQueue queue(options);
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(0)).ok());
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(1)).ok());
  const Status full = queue.Push(UpdateEvent::Visit(2));
  EXPECT_EQ(full.code(), StatusCode::kOutOfRange);
  UpdateQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.depth, 2u);
  // Rejected pushes consume no sequence number: the next accepted event
  // continues the gap-free numbering the coverage contract needs.
  std::vector<UpdateEvent> out;
  ASSERT_EQ(queue.PopBatch(1, milliseconds(0), &out), 1u);
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(3)).ok());
  out.clear();
  ASSERT_EQ(queue.PopBatch(2, milliseconds(0), &out), 2u);
  EXPECT_EQ(out.back().sequence, 3u);
}

TEST(UpdateQueueTest, BlockPolicyWaitsForConsumerSpace) {
  UpdateQueueOptions options;
  options.capacity = 1;
  options.backpressure = BackpressurePolicy::kBlock;
  UpdateQueue queue(options);
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(0)).ok());

  std::atomic<bool> second_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(UpdateEvent::Visit(1)).ok());
    second_done.store(true);
  });
  // The producer is parked at capacity until the consumer makes room.
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(second_done.load());

  std::vector<UpdateEvent> out;
  EXPECT_EQ(queue.PopBatch(1, milliseconds(100), &out), 1u);
  producer.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(UpdateQueueTest, CloseWakesBlockedProducerWithFailedPrecondition) {
  UpdateQueueOptions options;
  options.capacity = 1;
  UpdateQueue queue(options);
  ASSERT_TRUE(queue.Push(UpdateEvent::Visit(0)).ok());
  Status blocked_status;
  std::thread producer([&] {
    blocked_status = queue.Push(UpdateEvent::Visit(1));
  });
  std::this_thread::sleep_for(milliseconds(10));
  queue.Close();
  producer.join();
  EXPECT_EQ(blocked_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.Push(UpdateEvent::Visit(2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(UpdateQueueTest, CloseWithBacklogDrainsEverything) {
  UpdateQueue queue;
  for (NodeId i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Push(UpdateEvent::Visit(i)).ok());
  }
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.depth(), 100u);
  // A shutdown with a non-empty queue loses nothing: pops keep working.
  std::vector<UpdateEvent> out;
  size_t total = 0;
  while (size_t n = queue.PopBatch(7, milliseconds(0), &out)) total += n;
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(queue.depth(), 0u);
  UpdateQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.enqueued, stats.dequeued);
  EXPECT_TRUE(AuditIngestQueue(stats.capacity, stats.depth, stats.enqueued,
                               stats.dequeued, stats.rejected)
                  .ok());
}

// The batching consumer's pop returns when the batch is due, not per
// event: at once when the queue fills the batch's room; a quiet gap
// after a burst pushed while it sleeps (Push must move its deadline
// from "never" to the burst's); and on Close.
TEST(UpdateQueueTest, PopDueWaitsForRoomQuietDeadlineOrClose) {
  using std::chrono::steady_clock;
  BatchPolicy policy;
  policy.max_events = 4;
  policy.max_age = std::chrono::hours(1);
  std::vector<UpdateEvent> out;
  {
    UpdateQueue queue;
    for (NodeId i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue.Push(UpdateEvent::Visit(i)).ok());
    }
    ArrivalSpan pending;  // the caller already holds one event
    pending.Add(steady_clock::now());
    EXPECT_EQ(queue.PopDue(policy, pending, &out), 3u);
    EXPECT_EQ(queue.depth(), 3u);
  }
  {
    policy.max_events = 100;
    policy.max_age = milliseconds(400);  // quiet gap 50 ms
    UpdateQueue queue;
    steady_clock::time_point pushed;
    std::thread producer([&] {
      std::this_thread::sleep_for(milliseconds(10));
      for (NodeId i = 0; i < 8; ++i) {
        ASSERT_TRUE(queue.Push(UpdateEvent::Visit(i)).ok());
      }
      pushed = steady_clock::now();
    });
    out.clear();
    EXPECT_EQ(queue.PopDue(policy, ArrivalSpan{}, &out), 8u);
    const steady_clock::time_point popped = steady_clock::now();
    producer.join();
    EXPECT_GE(popped - pushed, milliseconds(45));
    EXPECT_LT(popped - pushed, milliseconds(350));  // well before age
  }
  {
    UpdateQueue queue;
    std::thread closer([&] {
      std::this_thread::sleep_for(milliseconds(10));
      queue.Close();
    });
    out.clear();
    EXPECT_EQ(queue.PopDue(policy, ArrivalSpan{}, &out), 0u);
    closer.join();
  }
}

// The stress the TSan job is for: 4 producers x 10k events racing a
// batching consumer through a deliberately tight (256-slot) queue, so
// blocking backpressure actually engages. Asserts per-producer FIFO,
// global sequence uniqueness, and counter conservation after drain.
TEST(UpdateQueueTest, MultiProducerStressKeepsEveryEvent) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10000;
  UpdateQueueOptions options;
  options.capacity = 256;
  options.backpressure = BackpressurePolicy::kBlock;
  UpdateQueue queue(options);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // src encodes the producer, dst the per-producer index, so the
        // consumer can check per-producer order end to end.
        ASSERT_TRUE(queue
                        .Push(UpdateEvent::AddEdge(
                            static_cast<NodeId>(p), static_cast<NodeId>(i)))
                        .ok());
      }
    });
  }

  std::vector<UpdateEvent> drained;
  drained.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    std::vector<UpdateEvent> out;
    while (drained.size() <
           static_cast<size_t>(kProducers) * kPerProducer) {
      out.clear();
      queue.PopBatch(128, milliseconds(2), &out);
      drained.insert(drained.end(), out.begin(), out.end());
    }
  });
  for (std::thread& t : producers) t.join();
  consumer.join();

  ASSERT_EQ(drained.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<uint8_t> seen(drained.size() + 1, 0);
  std::vector<int> next_index(kProducers, 0);
  uint64_t last_sequence = 0;
  for (const UpdateEvent& e : drained) {
    // Sequences: unique, in [1, N], and pops preserve queue order.
    ASSERT_GE(e.sequence, 1u);
    ASSERT_LE(e.sequence, drained.size());
    ASSERT_FALSE(seen[e.sequence]) << "duplicate sequence " << e.sequence;
    seen[e.sequence] = 1;
    ASSERT_GT(e.sequence, last_sequence);
    last_sequence = e.sequence;
    // Per-producer FIFO: producer p's events surface in push order.
    ASSERT_LT(e.src, static_cast<NodeId>(kProducers));
    ASSERT_EQ(e.dst, static_cast<NodeId>(next_index[e.src]));
    ++next_index[e.src];
  }
  UpdateQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.enqueued, drained.size());
  EXPECT_EQ(stats.dequeued, drained.size());
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_LE(stats.max_depth, options.capacity);
  EXPECT_TRUE(AuditIngestQueue(stats.capacity, stats.depth, stats.enqueued,
                               stats.dequeued, stats.rejected)
                  .ok());
}

}  // namespace
}  // namespace qrank
