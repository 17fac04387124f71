// Coordinator: fans a TopK query out to every shard worker, merges the
// per-shard exact top-k lists into the exact global top-k, and bounds
// tail latency with per-query deadlines + hedged requests.
//
// ## Exact-merge argument (the dist_oracle_test contract)
//
// Shards partition the bundle's rows (by site, shard_map.h), each
// worker returns its exact shard-local top-k under the same blended
// score and the same (score desc, global row asc) tie-break as the
// single-process engine, and the global top-k is contained in the
// union of shard top-k's (a page in the global top-k beats every page
// outside it, in particular all pages of its own shard outside the
// shard's top-k). The coordinator's k-way merge uses the identical
// comparator on global rows, so the merged list is element-for-element
// identical to QueryEngine::TopK on the unsharded bundle. Scores agree
// bitwise because both sides evaluate the same double expression
// alpha*q + (1-alpha)*pr on the same doubles.
//
// Exploration (Pandey per-slot promotion) survives distribution in two
// different ways:
//   * site queries route to the single owning shard with epsilon/seed
//     intact — the worker's posting group is identical (under the
//     monotone row translation) to the unsharded one, so the engine's
//     own exploration already matches the oracle.
//   * global queries are fanned out with epsilon forced to 0; after
//     the exact merge the coordinator replays the engine's exploration
//     loop verbatim (same Rng stream: one Bernoulli per slot, up to 8
//     uniform row draws checked against the evolving result rows),
//     then resolves the promoted rows' (page_id, quality, pagerank)
//     from the owning shards and computes the same blend. The replay
//     needs only row numbers, which the merge already has.
//
// ## Deadline / hedging state machine (per wave)
//
//     send primaries ──▶ poll ──▶ all settled? ──▶ merge (exact)
//          │ hedge_delay passes with shard(s) silent
//          ▼
//     send hedges (replica, or 2nd connection) ──▶ poll
//          │ deadline passes with shard(s) still silent
//          ▼
//     close every socket still in flight,
//     return partial results with degraded = true
//
// A canceled request's connection is closed rather than reused — the
// QRKF stream has no way to skip an abandoned response, so
// cancel-by-disconnect is what keeps request/response framing in sync
// and why no late answer can reach a later query. A channel whose
// connection was closed reconnects on its next request, which is also
// the worker-rejoin path.
//
// Thread model: there are no coordinator threads. The thread that
// calls TopK drives every shard socket itself: it connects and sends
// on non-blocking sockets, then waits in one poll(2) over the sockets
// still in flight, timed to the next of the hedge time and the
// deadline. A FrameReader per socket advances each response by
// whatever bytes have arrived, so a peer that stalls mid-frame holds
// up only its own socket, never the wave or that shard's hedge.
// Start, TopK and Stop are externally synchronized: call them from the
// thread that owns the Coordinator (or hand it over with a
// happens-before edge such as a thread join). Run one Coordinator per
// client thread, mirroring TopKScratch. The counters may be read from
// any thread.

#ifndef QRANK_DIST_COORDINATOR_H_
#define QRANK_DIST_COORDINATOR_H_

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "serve/query_engine.h"

namespace qrank {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Where shard s lives. With a replica, hedged requests go there;
/// without one they open a second connection to the primary (which
/// rescues a wedged connection, not a dead worker).
struct ShardAddress {
  ShardEndpoint primary;
  bool has_replica = false;
  ShardEndpoint replica;
};

struct CoordinatorOptions {
  /// Per-query budget; a shard that has not answered by then is
  /// canceled and the query returns degraded partial results.
  std::chrono::milliseconds query_deadline{250};
  /// How long a shard may stay silent before its hedge request fires.
  /// >= query_deadline disables hedging.
  std::chrono::milliseconds hedge_delay{60};
};

/// One distributed TopK answer. Reuse the instance across queries:
/// entries allocates only until it has seen the largest k.
struct DistTopKResult {
  std::vector<TopKEntry> entries;  // best first; rows are GLOBAL rows
  /// True when any target shard missed the deadline / dropped, or a
  /// global query had to skip or abandon exploration resolve.
  bool degraded = false;
  uint32_t shards_asked = 0;
  uint32_t shards_answered = 0;
  uint32_t hedges_fired = 0;
};

class Coordinator {
 public:
  /// `shards[s]` addresses shard s; shards.size() must equal
  /// map.num_shards.
  Coordinator(ShardMap map, std::vector<ShardAddress> shards,
              CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Prepares the channels and per-query scratch. No connections are
  /// opened yet — channels connect lazily on their first request and
  /// reconnect on the next request after a failure (the worker-rejoin
  /// path).
  Status Start() QRANK_EXCLUDES(mu_);

  /// Closes every connection; later TopK calls fail. Call it from the
  /// owner thread, never concurrently with TopK (see header comment).
  void Stop() QRANK_EXCLUDES(mu_);

  /// Distributed top-k. Exact (oracle-identical) when result->degraded
  /// is false; partial results otherwise. One call at a time per
  /// Coordinator (see header comment).
  Status TopK(const TopKQuery& query, DistTopKResult* result)
      QRANK_EXCLUDES(mu_);

  const ShardMap& shard_map() const { return map_; }

  uint64_t queries() const QRANK_EXCLUDES(mu_);
  uint64_t degraded_queries() const QRANK_EXCLUDES(mu_);
  uint64_t hedges_fired() const QRANK_EXCLUDES(mu_);

 private:
  /// One persistent request/response lane to a shard endpoint, driven
  /// by the TopK thread. Two channels per shard (primary =
  /// channels_[2s], hedge = channels_[2s+1]).
  struct Channel {
    enum class State : uint8_t {
      kIdle,        // not asked in this wave
      kConnecting,  // non-blocking connect in progress; frame not sent
      kAwaiting,    // request sent, response frame partly read
      kAnswered,    // recv_frame holds a complete, CRC-valid frame
      kFailed,      // connection closed; reconnects on next request
    };
    ShardEndpoint endpoint;
    Socket socket;
    std::vector<uint8_t> recv_frame;
    FrameReader reader;  // progress through recv_frame
    State state = State::kIdle;

    bool in_flight() const {
      return state == State::kConnecting || state == State::kAwaiting;
    }
  };

  /// Tracks one exploration promotion so an unresolvable row (owner
  /// shard degraded) can be rolled back to the deterministic entry.
  struct Promotion {
    size_t slot = 0;
    TopKEntry original;
    bool filled = false;
  };

  /// Per-query scratch, preallocated by Start: the fan-out, merge and
  /// exploration-replay paths are allocation-free after warm-up.
  struct QueryScratch {
    std::vector<uint8_t> request_frame;
    std::vector<uint8_t> resolve_frame;
    std::vector<std::vector<uint8_t>> shard_frames;  // slot per shard
    std::vector<uint8_t> shard_ok;                   // slot per shard
    std::vector<WireTopKResponse> responses;         // slot per shard
    std::vector<size_t> cursor;                      // slot per shard
    WireResolveRequest resolve_request;
    WireResolveResponse resolve_response;
    std::vector<Promotion> promotions;
    std::vector<pollfd> poll_fds;  // slot per channel
  };

  /// Sends `frame` on ch, connecting first if the channel has no
  /// connection (the connect may finish later, in RunWave's poll).
  void StartRequest(Channel* ch, const std::vector<uint8_t>& frame,
                    RpcDeadline deadline);

  /// Moves ch forward after poll reported its socket ready: finishes a
  /// connect and sends, or reads what has arrived of the response.
  void Advance(Channel* ch, const std::vector<uint8_t>& frame,
               RpcDeadline deadline);

  /// Fans `frame` to shards [shard_lo, shard_hi), hedging silent
  /// shards at hedge_time, and collects raw response frames into
  /// scratch_.shard_frames (empty = no transport-level answer) until
  /// every shard settled or `deadline`, then closes every connection
  /// still in flight. Returns the number of shards that answered.
  uint32_t RunWave(const std::vector<uint8_t>& frame, uint32_t shard_lo,
                   uint32_t shard_hi, RpcDeadline hedge_time,
                   RpcDeadline deadline, DistTopKResult* result)
      QRANK_EXCLUDES(mu_);

  /// Exact k-way merge of the decoded shard responses (shard_ok slots)
  /// into result->entries. Allocation-free after warm-up.
  void MergeResponses(uint32_t k, uint32_t shard_lo, uint32_t shard_hi,
                      DistTopKResult* result);

  /// Replays the engine's exploration loop over the merged rows, then
  /// resolves promoted rows via a resolve wave. Rolls back promotions
  /// it cannot resolve and marks the result degraded.
  void ApplyGlobalExploration(const TopKQuery& query, RpcDeadline deadline,
                              DistTopKResult* result) QRANK_EXCLUDES(mu_);

  const ShardMap map_;
  const std::vector<ShardAddress> shards_;
  const CoordinatorOptions options_;

  // Owner-thread state (Start/TopK/Stop, see header comment).
  std::vector<Channel> channels_;
  QueryScratch scratch_;
  uint64_t next_request_id_ = 1;

  mutable Mutex mu_;
  bool started_ QRANK_GUARDED_BY(mu_) = false;
  bool stopping_ QRANK_GUARDED_BY(mu_) = false;
  uint64_t queries_ QRANK_GUARDED_BY(mu_) = 0;
  uint64_t degraded_queries_ QRANK_GUARDED_BY(mu_) = 0;
  uint64_t hedges_fired_ QRANK_GUARDED_BY(mu_) = 0;
};

}  // namespace qrank

#endif  // QRANK_DIST_COORDINATOR_H_
