#include "dist/coordinator.h"

#include <poll.h>

#include "common/annotations.h"
#include "common/rng.h"

namespace qrank {
namespace {

/// The engine's result order on global rows: higher blended score
/// first, ties broken toward the lower row. Must mirror
/// query_engine.cc's Worse() for the exact-merge contract.
inline bool BetterEntry(const WireTopKEntry& a, const WireTopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.global_row < b.global_row;
}

}  // namespace

Coordinator::Coordinator(ShardMap map, std::vector<ShardAddress> shards,
                         CoordinatorOptions options)
    : map_(std::move(map)),
      shards_(std::move(shards)),
      options_(options) {}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (shards_.size() != map_.num_shards) {
    return Status::InvalidArgument(
        "coordinator needs one ShardAddress per shard: map has " +
        std::to_string(map_.num_shards) + ", got " +
        std::to_string(shards_.size()));
  }
  const uint32_t num_shards = map_.num_shards;
  MutexLock lock(&mu_);
  if (started_) return Status::FailedPrecondition("Coordinator already started");
  scratch_.shard_frames.resize(num_shards);
  scratch_.shard_ok.assign(num_shards, 0);
  scratch_.responses.resize(num_shards);
  scratch_.cursor.assign(num_shards, 0);
  scratch_.poll_fds.resize(size_t{num_shards} * 2);
  channels_.resize(size_t{num_shards} * 2);
  for (uint32_t s = 0; s < num_shards; ++s) {
    channels_[size_t{s} * 2].endpoint = shards_[s].primary;
    channels_[size_t{s} * 2 + 1].endpoint =
        shards_[s].has_replica ? shards_[s].replica : shards_[s].primary;
  }
  started_ = true;
  return Status::OK();
}

void Coordinator::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  for (Channel& ch : channels_) ch.socket.Close();
}

uint64_t Coordinator::queries() const {
  MutexLock lock(&mu_);
  return queries_;
}

uint64_t Coordinator::degraded_queries() const {
  MutexLock lock(&mu_);
  return degraded_queries_;
}

uint64_t Coordinator::hedges_fired() const {
  MutexLock lock(&mu_);
  return hedges_fired_;
}

void Coordinator::StartRequest(Channel* ch, const std::vector<uint8_t>& frame,
                               RpcDeadline deadline) {
  ch->state = Channel::State::kFailed;
  if (!ch->socket.valid()) {
    bool pending = false;
    Result<Socket> conn =
        Socket::StartConnect(ch->endpoint.host, ch->endpoint.port, &pending);
    if (!conn.ok()) return;
    ch->socket = std::move(conn).value();
    if (pending) {
      ch->state = Channel::State::kConnecting;
      return;
    }
  }
  // At most one request is outstanding per connection, so the frame
  // goes into an empty socket buffer and the send does not wait in
  // practice; the deadline bounds it when it does.
  if (!SendFrame(ch->socket, frame, deadline).ok()) {
    ch->socket.Close();
    return;
  }
  ch->reader.Begin(&ch->recv_frame);
  ch->state = Channel::State::kAwaiting;
}

void Coordinator::Advance(Channel* ch, const std::vector<uint8_t>& frame,
                          RpcDeadline deadline) {
  if (ch->state == Channel::State::kConnecting) {
    if (ch->socket.FinishConnect().ok()) {
      StartRequest(ch, frame, deadline);
      return;
    }
  } else {
    FrameHeader header;
    const Result<bool> done =
        ch->reader.ReadSome(ch->socket, &ch->recv_frame, &header);
    if (done.ok()) {
      if (done.value()) ch->state = Channel::State::kAnswered;
      return;
    }
  }
  // Refused, dead, or desynced stream: drop the connection so the
  // channel's next request reconnects (the worker-rejoin path).
  ch->socket.Close();
  ch->state = Channel::State::kFailed;
}

uint32_t Coordinator::RunWave(const std::vector<uint8_t>& frame,
                              uint32_t shard_lo, uint32_t shard_hi,
                              RpcDeadline hedge_time, RpcDeadline deadline,
                              DistTopKResult* result) {
  using State = Channel::State;
  for (uint32_t s = shard_lo; s < shard_hi; ++s) {
    channels_[size_t{s} * 2 + 1].state = State::kIdle;
    StartRequest(&channels_[size_t{s} * 2], frame, deadline);
  }

  // A shard is settled once a channel answered, or once its primary
  // failed and no rescue can come — hedging is off for this wave, or
  // the hedge was sent and failed too. Waiting longer on a failed
  // shard cannot produce an answer, so a fast connection refusal must
  // not stall the wave until the deadline.
  const bool hedging_enabled = hedge_time < deadline;
  bool hedged = false;
  const size_t c_lo = size_t{shard_lo} * 2;
  const size_t c_hi = size_t{shard_hi} * 2;
  for (;;) {
    // poll_fds[c] watches channel c; poll(2) skips the negative fds of
    // channels that are not in flight or whose shard has settled.
    uint32_t unsettled = 0;
    for (uint32_t s = shard_lo; s < shard_hi; ++s) {
      const State prim = channels_[size_t{s} * 2].state;
      const State hedge = channels_[size_t{s} * 2 + 1].state;
      const bool settled =
          prim == State::kAnswered || hedge == State::kAnswered ||
          (prim == State::kFailed &&
           (!hedging_enabled || hedge == State::kFailed));
      if (!settled) ++unsettled;
      for (size_t c = size_t{s} * 2; c < size_t{s} * 2 + 2; ++c) {
        const Channel& ch = channels_[c];
        scratch_.poll_fds[c] = pollfd{
            !settled && ch.in_flight() ? ch.socket.fd() : -1,
            static_cast<short>(ch.state == State::kConnecting ? POLLOUT
                                                              : POLLIN),
            0};
      }
    }
    if (unsettled == 0) break;

    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    if (!hedged && hedging_enabled && now >= hedge_time) {
      hedged = true;
      uint32_t fired = 0;
      for (uint32_t s = shard_lo; s < shard_hi; ++s) {
        if (channels_[size_t{s} * 2].state == State::kAnswered) continue;
        StartRequest(&channels_[size_t{s} * 2 + 1], frame, deadline);
        ++fired;
      }
      result->hedges_fired += fired;
      MutexLock lock(&mu_);
      hedges_fired_ += fired;
      continue;
    }

    const RpcDeadline wake =
        (!hedged && hedging_enabled) ? hedge_time : deadline;
    const int ready =
        ::poll(&scratch_.poll_fds[c_lo], c_hi - c_lo, PollTimeoutMs(wake));
    if (ready <= 0) continue;  // timeout or EINTR: re-check the clock
    for (size_t c = c_lo; c < c_hi; ++c) {
      if (scratch_.poll_fds[c].revents != 0) {
        Advance(&channels_[c], frame, deadline);
      }
    }
  }

  uint32_t answered = 0;
  for (uint32_t s = shard_lo; s < shard_hi; ++s) {
    scratch_.shard_frames[s].clear();
    for (size_t c = size_t{s} * 2; c < size_t{s} * 2 + 2; ++c) {
      Channel& ch = channels_[c];
      if (ch.state == State::kAnswered && scratch_.shard_frames[s].empty()) {
        scratch_.shard_frames[s].swap(ch.recv_frame);
        ++answered;
      } else if (ch.in_flight()) {
        // Abandoned mid-request: close the stream (see header on why
        // the connection cannot be reused).
        ch.socket.Close();
        ch.state = State::kFailed;
      }
    }
  }
  return answered;
}

QRANK_HOT void Coordinator::MergeResponses(uint32_t k, uint32_t shard_lo,
                                           uint32_t shard_hi,
                                           DistTopKResult* result) {
  for (uint32_t s = shard_lo; s < shard_hi; ++s) scratch_.cursor[s] = 0;
  result->entries.clear();
  while (result->entries.size() < k) {
    int best = -1;
    const WireTopKEntry* best_entry = nullptr;
    for (uint32_t s = shard_lo; s < shard_hi; ++s) {
      if (scratch_.shard_ok[s] == 0) continue;
      const std::vector<WireTopKEntry>& entries =
          scratch_.responses[s].entries;
      const size_t cur = scratch_.cursor[s];
      if (cur >= entries.size()) continue;
      if (best < 0 || BetterEntry(entries[cur], *best_entry)) {
        best = static_cast<int>(s);
        best_entry = &entries[cur];
      }
    }
    if (best < 0) break;
    ++scratch_.cursor[static_cast<size_t>(best)];
    // qrank-lint: allow(hot-alloc) amortized warm-up: grows to the
    // largest k the caller's reused DistTopKResult has seen, then 0.
    result->entries.push_back(TopKEntry{best_entry->global_row,
                                        best_entry->page_id,
                                        best_entry->score,
                                        best_entry->promoted != 0});
  }
}

void Coordinator::ApplyGlobalExploration(const TopKQuery& query,
                                         RpcDeadline deadline,
                                         DistTopKResult* result) {
  // Verbatim replay of QueryEngine's exploration loop (same Rng
  // stream, same draw/dup-check/attempt structure) over the merged
  // rows. Only row numbers matter here; page ids and scores of
  // promoted rows are resolved from the owning shards afterwards.
  std::vector<TopKEntry>& out = result->entries;
  const size_t out_size = out.size();
  const uint64_t n = map_.total_pages;
  const double eps = query.exploration_epsilon;
  scratch_.promotions.clear();
  Rng rng(query.exploration_seed);
  for (size_t j = 0; j < out_size; ++j) {
    if (!rng.Bernoulli(eps)) continue;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId row = static_cast<NodeId>(rng.UniformUint64(n));
      bool duplicate = false;
      for (size_t i = 0; i < out_size; ++i) {
        if (out[i].row == row) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      Promotion promo;
      promo.slot = j;
      promo.original = out[j];
      scratch_.promotions.push_back(promo);
      out[j] = TopKEntry{row, 0, 0.0, true};
      break;
    }
  }
  if (scratch_.promotions.empty()) return;

  // Resolve wave: every shard is asked; each returns the rows it owns.
  scratch_.resolve_request.request_id = next_request_id_++;
  scratch_.resolve_request.global_rows.clear();
  for (const Promotion& promo : scratch_.promotions) {
    scratch_.resolve_request.global_rows.push_back(out[promo.slot].row);
  }
  EncodeResolveRequest(scratch_.resolve_request, &scratch_.resolve_frame);
  const uint32_t answered = RunWave(scratch_.resolve_frame, 0,
                                    map_.num_shards, deadline, deadline,
                                    result);
  if (answered < map_.num_shards) result->degraded = true;

  const double alpha = query.blend_alpha;
  for (uint32_t s = 0; s < map_.num_shards; ++s) {
    const std::vector<uint8_t>& frame = scratch_.shard_frames[s];
    if (frame.empty()) continue;
    if (static_cast<FrameType>(frame[4]) != FrameType::kResolveResponse) {
      continue;
    }
    const Status decoded = DecodeResolveResponse(
        std::span<const uint8_t>(frame).subspan(kFrameHeaderBytes),
        &scratch_.resolve_response);
    if (!decoded.ok() ||
        scratch_.resolve_response.request_id !=
            scratch_.resolve_request.request_id ||
        scratch_.resolve_response.status !=
            static_cast<uint32_t>(StatusCode::kOk)) {
      continue;
    }
    for (const WireResolveEntry& e : scratch_.resolve_response.entries) {
      for (Promotion& promo : scratch_.promotions) {
        if (promo.filled || out[promo.slot].row != e.global_row) continue;
        out[promo.slot].page_id = e.page_id;
        out[promo.slot].score =
            alpha * e.quality + (1.0 - alpha) * e.pagerank;
        promo.filled = true;
      }
    }
  }

  for (const Promotion& promo : scratch_.promotions) {
    if (promo.filled) continue;
    // Owner shard degraded away mid-query: keep the deterministic
    // entry rather than serving a promotion with fabricated scores.
    out[promo.slot] = promo.original;
    result->degraded = true;
  }
}

Status Coordinator::TopK(const TopKQuery& query, DistTopKResult* result) {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) {
      return Status::FailedPrecondition("Coordinator is not running");
    }
    ++queries_;
  }
  if (!(query.blend_alpha >= 0.0 && query.blend_alpha <= 1.0)) {
    return Status::InvalidArgument("blend_alpha must be in [0, 1]");
  }
  if (!(query.exploration_epsilon >= 0.0 &&
        query.exploration_epsilon <= 1.0)) {
    return Status::InvalidArgument("exploration_epsilon must be in [0, 1]");
  }
  if (query.site != kAllSites && query.site >= map_.num_sites) {
    return Status::InvalidArgument("site out of range");
  }
  if (query.k > kMaxWireTopK) {
    return Status::InvalidArgument("k exceeds the wire cap");
  }

  result->entries.clear();
  result->degraded = false;
  result->shards_asked = 0;
  result->shards_answered = 0;
  result->hedges_fired = 0;

  const auto now = std::chrono::steady_clock::now();
  const RpcDeadline deadline = now + options_.query_deadline;
  const RpcDeadline hedge_time = now + options_.hedge_delay;

  const bool site_query = query.site != kAllSites;
  WireTopKRequest request;
  request.request_id = next_request_id_++;
  request.k = query.k;
  request.site = query.site;
  request.blend_alpha = query.blend_alpha;
  // Site queries run exploration on the owning worker (exact by row
  // translation); global queries replay it here after the merge.
  request.exploration_epsilon =
      site_query ? query.exploration_epsilon : 0.0;
  request.exploration_seed = query.exploration_seed;
  EncodeTopKRequest(request, &scratch_.request_frame);

  uint32_t shard_lo = 0;
  uint32_t shard_hi = map_.num_shards;
  if (site_query) {
    shard_lo = map_.ShardForSite(query.site);
    shard_hi = shard_lo + 1;
  }
  result->shards_asked = shard_hi - shard_lo;

  RunWave(scratch_.request_frame, shard_lo, shard_hi, hedge_time, deadline,
          result);

  // Decode the collected frames; a shard only counts as answered when
  // it produced a well-formed OK TopK response for this request.
  for (uint32_t s = shard_lo; s < shard_hi; ++s) {
    scratch_.shard_ok[s] = 0;
    const std::vector<uint8_t>& frame = scratch_.shard_frames[s];
    if (frame.empty()) continue;
    if (static_cast<FrameType>(frame[4]) != FrameType::kTopKResponse) {
      continue;
    }
    const Status decoded = DecodeTopKResponse(
        std::span<const uint8_t>(frame).subspan(kFrameHeaderBytes),
        &scratch_.responses[s]);
    if (!decoded.ok()) continue;
    const WireTopKResponse& resp = scratch_.responses[s];
    if (resp.request_id != request.request_id ||
        resp.status != static_cast<uint32_t>(StatusCode::kOk)) {
      continue;
    }
    scratch_.shard_ok[s] = 1;
    ++result->shards_answered;
  }
  if (result->shards_answered < result->shards_asked) {
    result->degraded = true;
  }

  MergeResponses(query.k, shard_lo, shard_hi, result);

  if (!site_query && query.exploration_epsilon > 0.0) {
    if (result->degraded) {
      // Partial merges cannot replay the oracle's exploration stream;
      // serve the deterministic partial results instead.
    } else {
      ApplyGlobalExploration(query, deadline, result);
    }
  }

  if (result->degraded) {
    MutexLock lock(&mu_);
    ++degraded_queries_;
  }
  return Status::OK();
}

}  // namespace qrank
