#include "ingest/ingest_service.h"

#include <algorithm>
#include <utility>

#include "audit/audit.h"
#include "common/logging.h"
#include "core/bundle_export.h"
#include "serve/score_bundle.h"

namespace qrank {

namespace {

// Compile-time audit level (src/audit/): level 1 re-checks queue
// counter conservation per batch; level 2 additionally re-validates
// every coalesced delta before ranking on it — the exact artifact the
// incremental fast path trusts blindly.
constexpr int kAuditLevel = QRANK_AUDIT_LEVEL;

double ToMillis(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t MillisToNanos(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1e6);
}

IngestStageStats SummarizeStage(const LatencyHistogram& h) {
  IngestStageStats s;
  s.count = h.count();
  s.p50_ms = h.PercentileNanos(0.50) * 1e-6;
  s.p90_ms = h.PercentileNanos(0.90) * 1e-6;
  s.p99_ms = h.PercentileNanos(0.99) * 1e-6;
  s.max_ms = h.max_nanos() * 1e-6;
  s.mean_ms = h.mean_nanos() * 1e-6;
  return s;
}

void CountFlush(FlushReason reason, IngestStats* stats) {
  switch (reason) {
    case FlushReason::kFull:
      ++stats->flushes_full;
      return;
    case FlushReason::kAge:
      ++stats->flushes_age;
      return;
    case FlushReason::kQuiet:
      ++stats->flushes_quiet;
      return;
    case FlushReason::kDrain:
      ++stats->flushes_drain;
      return;
    case FlushReason::kNone:
      return;
  }
}

}  // namespace

DeltaPageRankOptions DefaultIngestRankOptions() {
  DeltaPageRankOptions options;
  options.base.scale = ScaleConvention::kTotalMassN;
  return options;
}

IngestService::IngestService(CsrGraph initial_graph, SnapshotStore* store,
                             IngestOptions options)
    : options_(std::move(options)),
      store_(store),
      queue_(options_.queue),
      accumulator_(options_.batch),
      graph_(std::move(initial_graph)),
      rank_(options_.rank) {
  ExtendSiteColumn(graph_.num_nodes());
}

void IngestService::ExtendSiteColumn(NodeId num_pages) {
  if (!options_.site_of) return;
  for (NodeId p = static_cast<NodeId>(site_column_.size()); p < num_pages;
       ++p) {
    site_column_.push_back(options_.site_of(p));
  }
}

Result<std::unique_ptr<IngestService>> IngestService::Create(
    CsrGraph initial_graph, SnapshotStore* store, IngestOptions options) {
  if (store == nullptr) {
    return Status::InvalidArgument("IngestService needs a SnapshotStore");
  }
  if (options.queue.capacity == 0) {
    return Status::InvalidArgument("queue capacity must be >= 1");
  }
  if (options.batch.max_events == 0) {
    return Status::InvalidArgument("batch max_events must be >= 1");
  }
  if (options.batch.max_age <= std::chrono::nanoseconds::zero()) {
    return Status::InvalidArgument("batch max_age must be positive");
  }
  if (options.observation_window < 2) {
    return Status::InvalidArgument("observation window must be >= 2");
  }
  if (options.num_sites == 0) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  return std::unique_ptr<IngestService>(new IngestService(
      std::move(initial_graph), store, std::move(options)));
}

IngestService::~IngestService() {
  const Status ignored = Stop();
  (void)ignored;
}

Status IngestService::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) {
      return Status::FailedPrecondition("ingest service already started");
    }
    started_ = true;
  }
  if (options_.publish_initial && graph_.num_nodes() > 0) {
    // The tracker's first solve is its cold start (residual_push.h).
    ResidualPushStats solve;
    const auto t0 = std::chrono::steady_clock::now();
    QRANK_RETURN_NOT_OK(RecomputeScores(GraphDelta{}, &solve));
    const double solve_ms = ToMillis(std::chrono::steady_clock::now() - t0);
    // The initial generation runs inline — the stage threads don't
    // exist yet, and callers expect Start() to return with generation 1
    // servable.
    QRANK_RETURN_NOT_OK(
        RunExportJob(MakeExportJob(nullptr, solve, 0.0, solve_ms)));
  }
  {
    MutexLock lock(&mu_);
    running_ = true;
    active_stages_ = options_.pipelined ? 2 : 1;
  }
  consumer_ = std::thread([this] { RunLoop(); });
  if (options_.pipelined) {
    exporter_ = std::thread([this] { ExportLoop(); });
  }
  return Status::OK();
}

Status IngestService::Stop() {
  // Elect exactly one joiner under the lock; everyone else returns the
  // loop status. The joins happen outside mu_ — the stage threads take
  // mu_ on their way out, so joining under the lock would deadlock.
  bool winner = false;
  {
    MutexLock lock(&mu_);
    if (started_ && !stopped_) {
      stopped_ = true;
      winner = true;
    }
  }
  if (winner) {
    queue_.Close();
    // Join order matters: the consumer drains the queue then closes the
    // pipe; the exporter drains the pipe then exits.
    if (consumer_.joinable()) consumer_.join();
    if (exporter_.joinable()) exporter_.join();
  }
  return status();
}

void IngestService::RunLoop() {
  std::vector<UpdateEvent> events;
  Status st;
  for (;;) {
    events.clear();
    const size_t popped =
        queue_.PopDue(options_.batch, accumulator_.arrivals(), &events);
    for (const UpdateEvent& event : events) accumulator_.Absorb(event);
    const bool draining = queue_.closed() && queue_.depth() == 0;
    FlushReason reason =
        accumulator_.DueReason(std::chrono::steady_clock::now());
    if (reason == FlushReason::kNone && draining && !accumulator_.empty()) {
      reason = FlushReason::kDrain;
    }
    if (reason != FlushReason::kNone) {
      Result<FlushedBatch> flushed = accumulator_.Flush(graph_);
      if (!flushed.ok()) {
        st = flushed.status();
        break;
      }
      flushed->reason = reason;
      st = ProcessBatch(std::move(flushed).value());
      if (!st.ok()) break;
    }
    if (draining && popped == 0 && accumulator_.empty()) break;
  }
  // Upstream done (or failed): let queued jobs drain, then the exporter
  // exits on its own. A clean loop may still have inherited a pipe
  // Break the last Push raced past — surface it.
  pipe_.Close();
  if (st.ok()) st = pipe_.status();
  StageExit(st);
}

void IngestService::ExportLoop() {
  Status st;
  ExportJob job;
  while (pipe_.Pop(&job)) {
    st = RunExportJob(std::move(job));
    job = ExportJob{};
    if (!st.ok()) {
      // Tell the solve stage to stop producing for a dead publisher.
      pipe_.Break(st);
      break;
    }
  }
  StageExit(st);
}

void IngestService::StageExit(Status st) {
  MutexLock lock(&mu_);
  if (!st.ok() && loop_status_.ok()) loop_status_ = st;
  if (--active_stages_ <= 0) running_ = false;
  servable_cv_.NotifyAll();
}

Status IngestService::ProcessBatch(FlushedBatch batch) {
  const auto t_start = std::chrono::steady_clock::now();
  if constexpr (kAuditLevel >= 1) {
    const UpdateQueueStats qs = queue_.Stats();
    const AuditReport queue_audit = AuditIngestQueue(
        qs.capacity, qs.depth, qs.enqueued, qs.dequeued, qs.rejected);
    QRANK_CHECK(queue_audit.ok())
        << "update queue broke counter conservation: "
        << queue_audit.ToString();
  }
  if (!batch.delta.empty()) {
    QRANK_ASSIGN_OR_RETURN(CsrGraph next, graph_.ApplyDelta(batch.delta));
    if constexpr (kAuditLevel >= 2) {
      AuditReport delta_audit = AuditDelta(graph_, batch.delta, &next);
      delta_audit.Merge(AuditIngestBatch(graph_, batch.delta,
                                         batch.num_events,
                                         batch.num_adds + batch.num_removes));
      QRANK_CHECK(delta_audit.ok())
          << "coalesced batch [" << batch.first_sequence << ", "
          << batch.last_sequence
          << "] emitted an inconsistent delta: " << delta_audit.ToString();
    }
    graph_ = std::move(next);
  }
  const auto t_apply = std::chrono::steady_clock::now();

  ResidualPushStats solve;
  if (graph_.num_nodes() > 0) {
    const bool reuse =
        batch.delta.empty() && prev_converged_ && !observations_.empty();
    if (reuse) {
      // Unchanged graph: the previous vector is already this
      // generation's converged solution; append it as a fresh
      // observation (the estimator correctly reads the page as stable).
      observations_.push_back(observations_.back());
      if (observations_.size() > options_.observation_window) {
        observations_.pop_front();
      }
    } else {
      QRANK_RETURN_NOT_OK(RecomputeScores(batch.delta, &solve));
    }
  }
  const auto t_solve = std::chrono::steady_clock::now();

  ExportJob job = MakeExportJob(&batch, solve, ToMillis(t_apply - t_start),
                                ToMillis(t_solve - t_apply));
  if (!options_.pipelined) return RunExportJob(std::move(job));
  if (!pipe_.Push(std::move(job))) {
    // Only a Break can refuse the push (the consumer is the sole
    // closer); surface the exporter's failure as the loop status.
    const Status st = pipe_.status();
    return st.ok() ? Status::FailedPrecondition("export pipe closed") : st;
  }
  return Status::OK();
}

IngestService::ExportJob IngestService::MakeExportJob(
    FlushedBatch* batch, const ResidualPushStats& solve, double apply_ms,
    double solve_ms) {
  ExportJob job;
  job.num_pages = graph_.num_nodes();
  job.solve = solve;
  job.window.assign(observations_.begin(), observations_.end());
  job.apply_ms = apply_ms;
  job.solve_ms = solve_ms;
  if (batch != nullptr) {
    job.has_batch = true;
    job.sequence = batch->last_sequence;
    job.first_sequence = batch->first_sequence;
    job.last_sequence = batch->last_sequence;
    job.num_events = batch->num_events;
    job.num_adds = batch->num_adds;
    job.num_removes = batch->num_removes;
    job.num_visits = batch->num_visits;
    job.delta_changes = batch->delta.num_changes();
    job.delta_added = batch->delta.added.size();
    job.delta_removed = batch->delta.removed.size();
    job.reason = batch->reason;
    job.enqueue_times = std::move(batch->enqueue_times);
  }
  return job;
}

Status IngestService::RecomputeScores(const GraphDelta& delta,
                                      ResidualPushStats* solve) {
  auto scores = std::make_shared<std::vector<double>>();
  QRANK_ASSIGN_OR_RETURN(*solve, rank_.Solve(graph_, delta, scores.get()));
  prev_converged_ = solve->converged;
  observations_.push_back(std::move(scores));
  if (observations_.size() > options_.observation_window) {
    observations_.pop_front();
  }
  return Status::OK();
}

Status IngestService::RunExportJob(ExportJob job) {
  uint64_t generation = 0;
  std::vector<uint8_t> kept_image;
  const NodeId n = job.num_pages;
  const auto t_start = std::chrono::steady_clock::now();
  auto t_estimate = t_start;
  auto t_export = t_start;
  if (n > 0 && !job.window.empty()) {
    // Estimate stage: the Eq-1 quality column over the window snapshot.
    QRANK_ASSIGN_OR_RETURN(
        std::vector<double> quality,
        ComputeWindowQuality(job.window, options_.estimator));
    t_estimate = std::chrono::steady_clock::now();

    // Export stage: the writer builds the image (parallel sorts and
    // postings) and publishes it in process without a copy; the CRCs
    // are paid only for a kept image.
    ScoreBundleSource source;
    source.quality = std::move(quality);
    source.pagerank = *job.window.back();
    source.num_sites = options_.num_sites;
    if (options_.site_of) {
      ExtendSiteColumn(n);
      source.site_ids.assign(site_column_.begin(), site_column_.begin() + n);
    }
    {
      MutexLock lock(&mu_);
      source.creator_tag = static_cast<uint32_t>(counters_.generations + 1);
    }
    QRANK_ASSIGN_OR_RETURN(
        ScoreBundleWriter writer,
        ScoreBundleWriter::Create(std::move(source), options_.export_parallel));
    if (options_.keep_last_image) kept_image = writer.Serialize();
    QRANK_ASSIGN_OR_RETURN(LoadedBundle bundle, std::move(writer).Publish());
    t_export = std::chrono::steady_clock::now();

    // Publish stage: the ordered hot-swap.
    QRANK_ASSIGN_OR_RETURN(
        generation,
        store_->PublishOrdered(
            std::make_shared<const LoadedBundle>(std::move(bundle)),
            job.sequence));
  }
  const std::chrono::steady_clock::time_point publish_time =
      std::chrono::steady_clock::now();

  MutexLock lock(&mu_);
  if (generation > 0) {
    ++counters_.generations;
    if (options_.keep_last_image) last_image_ = std::move(kept_image);
  }
  stage_apply_.AddNanos(MillisToNanos(job.apply_ms));
  stage_solve_.AddNanos(MillisToNanos(job.solve_ms));
  stage_estimate_.AddNanos(MillisToNanos(ToMillis(t_estimate - t_start)));
  stage_export_.AddNanos(MillisToNanos(ToMillis(t_export - t_estimate)));
  stage_publish_.AddNanos(MillisToNanos(ToMillis(publish_time - t_export)));
  IngestGenerationInfo info;
  info.generation = generation;
  info.num_pages = n;
  info.rank_iterations =
      job.solve.residual_passes + job.solve.cold_iterations;
  info.rank_node_updates = job.solve.pushes;
  info.rank_edge_reads = job.solve.edge_reads;
  counters_.rank_node_updates += job.solve.pushes;
  counters_.rank_edge_reads += job.solve.edge_reads;
  if (job.has_batch) {
    ++counters_.batches;
    counters_.events_processed += job.num_events;
    counters_.edge_adds += job.num_adds;
    counters_.edge_removes += job.num_removes;
    counters_.visits += job.num_visits;
    counters_.delta_edges_applied += job.delta_changes;
    CountFlush(job.reason, &counters_);
    servable_sequence_ = std::max(servable_sequence_, job.last_sequence);
    info.first_sequence = job.first_sequence;
    info.last_sequence = job.last_sequence;
    info.num_events = job.num_events;
    info.delta_added = job.delta_added;
    info.delta_removed = job.delta_removed;
    double max_ms = 0.0;
    for (const auto& enqueue_time : job.enqueue_times) {
      const auto lag = publish_time - enqueue_time;
      latency_.AddNanos(static_cast<uint64_t>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(lag)
                 .count())));
      max_ms = std::max(max_ms, ToMillis(lag));
    }
    info.max_update_to_servable_ms = max_ms;
  }
  generation_log_.push_back(info);
  servable_cv_.NotifyAll();
  return Status::OK();
}

bool IngestService::WaitServable(uint64_t sequence,
                                 std::chrono::nanoseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  while (servable_sequence_ < sequence && running_) {
    if (servable_cv_.WaitUntil(&mu_, deadline)) break;
  }
  return servable_sequence_ >= sequence;
}

uint64_t IngestService::servable_sequence() const {
  MutexLock lock(&mu_);
  return servable_sequence_;
}

IngestStats IngestService::Stats() const {
  MutexLock lock(&mu_);
  IngestStats stats = counters_;
  stats.queue = queue_.Stats();
  stats.servable_sequence = servable_sequence_;
  stats.latency_count = latency_.count();
  stats.latency_p50_ms = latency_.PercentileNanos(0.50) * 1e-6;
  stats.latency_p90_ms = latency_.PercentileNanos(0.90) * 1e-6;
  stats.latency_p99_ms = latency_.PercentileNanos(0.99) * 1e-6;
  stats.latency_max_ms = latency_.max_nanos() * 1e-6;
  stats.latency_mean_ms = latency_.mean_nanos() * 1e-6;
  stats.stage_apply = SummarizeStage(stage_apply_);
  stats.stage_solve = SummarizeStage(stage_solve_);
  stats.stage_estimate = SummarizeStage(stage_estimate_);
  stats.stage_export = SummarizeStage(stage_export_);
  stats.stage_publish = SummarizeStage(stage_publish_);
  return stats;
}

std::vector<IngestGenerationInfo> IngestService::GenerationLog() const {
  MutexLock lock(&mu_);
  return generation_log_;
}

Status IngestService::status() const {
  MutexLock lock(&mu_);
  return loop_status_;
}

const CsrGraph& IngestService::CurrentGraph() const {
  {
    MutexLock lock(&mu_);
    QRANK_CHECK(!running_)
        << "CurrentGraph is only valid once the consumer is stopped";
  }
  return graph_;
}

std::vector<uint8_t> IngestService::LastImage() const {
  MutexLock lock(&mu_);
  return last_image_;
}

}  // namespace qrank
