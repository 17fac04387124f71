// IngestService: the always-on freshness loop from edge arrival to
// servable TopK.
//
// The paper's estimator exists because rankings lag reality. The
// incremental machinery (GraphDelta + CSR patching, incremental
// PageRank) and the hot-swap serving store meet here in one
// continuously running pipeline:
//
//   producers --> UpdateQueue --> BatchAccumulator --(flush)-->
//     ApplyDelta --> ResidualPushTracker (patch r, push, certify) -->
//     quality-estimator update --> score-bundle export -->
//     SnapshotStore::PublishOrdered
//
// A background consumer thread drains the queue, coalesces events under
// the BatchPolicy's size/age/quiet triggers (batch_policy.h), and runs
// each flushed batch through the chain as ONE generation while queries keep flowing against the
// previous generation (RCU hot-swap; readers are never blocked). With
// `pipelined` (the default) the chain is split across TWO stage threads
// double-buffered through a StagePipe: the consumer runs apply + solve
// for batch N+1 while a dedicated exporter runs estimate + export +
// publish for batch N — the solve and export halves of consecutive
// generations overlap, and PublishOrdered's sequence watermark keeps
// publishes in order. Shutdown drains: Stop() closes the queue, flushes
// the backlog through the same path (the consumer then closes the pipe
// and the exporter drains it), and joins both threads — no accepted
// event is ever dropped, which the generation log proves (batches cover
// contiguous sequence ranges).
//
// Freshness bookkeeping: every event carries its enqueue timestamp;
// when the generation reflecting a batch is published, the service
// records publish_time - enqueue_time for each of its events in a
// log-linear histogram. That distribution's p99 is the update-to-
// servable latency — the bounded-staleness SLO that
// bench_perf_ingest --check_ingest_regression gates in CI.
//
// Estimator semantics: the service keeps a sliding window of the last
// `observation_window` published PageRank vectors and runs the paper's
// Equation-1 estimator over their common-page prefix (the id prefix of
// the oldest observation — ingest only grows the page set, mirroring
// SnapshotSeries' common-set convention). Pages younger than the window
// get Q̂ = PR until history accumulates. Scores carry the engines'
// exactness contract: the cold start is a from-scratch DeltaPageRank
// solve, and every warm solve is a residual push whose answer an exact
// residual pass certifies to within damping * tolerance / (1 - damping)
// of the fixed point, so the streaming scores match an offline rebuild
// of the same event stream within the documented drift budget (see
// DESIGN.md §5f and the ingest oracle test).
//
// Wake-ups: the consumer sleeps in UpdateQueue::PopDue until its batch
// is due — full, past its age or quiet deadline — or the queue closes;
// producers wake it only when a push changes one of those, so neither a
// poll nor a per-event wake-up sets how late a flush fires. Each flush
// is counted by its trigger (IngestStats::flushes_*).
//
// Thread model: producers call Enqueue from any thread; Stats(),
// GenerationLog() and WaitServable() are safe from any thread; the
// compute state (graph, score window) is owned by the consumer thread —
// export jobs carry shared_ptr snapshots of the immutable observation
// vectors, never references into it — and only exposed once the service
// is stopped (CurrentGraph). Each generation's stage durations (apply,
// solve, estimate, export, publish) feed per-stage histograms surfaced
// through IngestStats.

#ifndef QRANK_INGEST_INGEST_SERVICE_H_
#define QRANK_INGEST_INGEST_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

#include "common/parallel_for.h"
#include "common/status.h"
#include "core/bundle_export.h"
#include "core/quality_estimator.h"
#include "graph/csr_graph.h"
#include "graph/site_graph.h"
#include "ingest/batch_accumulator.h"
#include "ingest/latency_histogram.h"
#include "ingest/stage_pipe.h"
#include "ingest/update_queue.h"
#include "rank/delta_pagerank.h"
#include "rank/residual_push.h"
#include "serve/snapshot_store.h"

namespace qrank {

/// Rank defaults for serving: the paper's Section 8 mass-n convention
/// (what the bundle pipeline elsewhere uses). The cold start runs
/// DeltaPageRank under them; warm solves are ResidualPushTracker's.
DeltaPageRankOptions DefaultIngestRankOptions();

struct IngestOptions {
  UpdateQueueOptions queue;
  BatchPolicy batch;
  /// The cold start's engine options; `rank.base` also drives every
  /// warm residual-push solve (residual_push.h).
  DeltaPageRankOptions rank = DefaultIngestRankOptions();
  QualityEstimatorOptions estimator;

  /// PageRank observations kept for the estimator window (>= 2). The
  /// estimator sees the newest `observation_window` generations.
  size_t observation_window = 4;

  /// Site layout of exported bundles: page p belongs to site_of(p)
  /// (< num_sites). Called once per page, when the page is born; the
  /// service keeps the column. Defaults: everything in one site 0.
  SiteId num_sites = 1;
  std::function<SiteId(NodeId)> site_of;

  /// Publish a generation from the initial graph during Start() (so
  /// queries never see an empty store). Skipped when the initial graph
  /// has no pages (bundles need >= 1 page).
  bool publish_initial = true;

  /// Keep a copy of the most recently published bundle image (for the
  /// qrank_ingest CLI's audit mode and tests; off for production loops).
  bool keep_last_image = false;

  /// Run the generation chain as a two-stage pipeline: apply + solve on
  /// the consumer thread, estimate + export + publish on a dedicated
  /// exporter thread, double-buffered through a StagePipe so batch
  /// N+1's solve overlaps batch N's export. false runs the whole chain
  /// on the consumer thread (the pre-pipeline behavior). Published
  /// scores are identical either way — the pipeline only reorders WHEN
  /// each stage runs, never what it computes — which the streaming-vs-
  /// scratch oracle checks in both modes.
  bool pipelined = true;

  /// Executor width for the export stage's parallel sorts and postings
  /// (ScoreBundleWriter), and for the kept image's CRC. Bundle bytes
  /// are identical for every value.
  ParallelOptions export_parallel;
};

/// One published generation's provenance — the audit trail of the
/// no-lost-updates contract.
struct IngestGenerationInfo {
  uint64_t generation = 0;      // SnapshotStore generation number
  uint64_t first_sequence = 0;  // event range this batch covered
  uint64_t last_sequence = 0;
  uint64_t num_events = 0;      // raw events absorbed
  uint64_t delta_added = 0;     // net structural change after coalescing
  uint64_t delta_removed = 0;
  NodeId num_pages = 0;
  /// Solver work: O(m) passes over the graph (exact residual passes,
  /// plus the engine's sweeps on the cold start), residual pushes, and
  /// adjacency entries read (ResidualPushStats::edge_reads).
  uint32_t rank_iterations = 0;
  uint64_t rank_node_updates = 0;
  uint64_t rank_edge_reads = 0;
  /// Worst update-to-servable latency inside this batch.
  double max_update_to_servable_ms = 0.0;
};

/// Per-generation latency distribution of one pipeline stage.
struct IngestStageStats {
  uint64_t count = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

struct IngestStats {
  UpdateQueueStats queue;
  uint64_t batches = 0;
  uint64_t generations = 0;        // published into the store
  uint64_t events_processed = 0;   // absorbed into flushed batches
  uint64_t edge_adds = 0;
  uint64_t edge_removes = 0;
  uint64_t visits = 0;
  uint64_t delta_edges_applied = 0;  // net changes after coalescing
  uint64_t rank_node_updates = 0;  // residual pushes
  uint64_t rank_edge_reads = 0;
  uint64_t servable_sequence = 0;  // every event <= this is servable
  /// Published batches by the trigger that ended them (batch_policy.h).
  uint64_t flushes_full = 0;
  uint64_t flushes_age = 0;
  uint64_t flushes_quiet = 0;
  uint64_t flushes_drain = 0;
  /// Update-to-servable latency distribution over all events so far.
  uint64_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  double latency_mean_ms = 0.0;
  /// Per-stage breakdown of each generation's wall time: where an
  /// update spends its life between flush and servable.
  IngestStageStats stage_apply;     // audit + ApplyDelta
  IngestStageStats stage_solve;     // residual push + window append
  IngestStageStats stage_estimate;  // Eq-1 estimator over the window
  IngestStageStats stage_export;    // writer build + in-process publish
  IngestStageStats stage_publish;   // PublishOrdered + accounting
};

class IngestService {
 public:
  /// Validates options (store non-null, capacity/window/batch bounds)
  /// and seeds the service with `initial_graph`. Does not start the
  /// consumer thread.
  static Result<std::unique_ptr<IngestService>> Create(
      CsrGraph initial_graph, SnapshotStore* store, IngestOptions options);

  ~IngestService();
  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Computes + publishes the initial generation (unless disabled or
  /// the graph is empty) and starts the consumer thread.
  /// FailedPrecondition if already started.
  Status Start();

  /// Closes the queue, drains the backlog through the full pipeline
  /// (everything accepted becomes servable), joins the consumer, and
  /// returns the loop's terminal status. Idempotent.
  Status Stop();

  /// Producer-side entry points (any thread). Backpressure follows the
  /// queue's policy.
  Status Enqueue(const UpdateEvent& event) { return queue_.Push(event); }
  Status EnqueueEdgeAdd(NodeId src, NodeId dst) {
    return queue_.Push(UpdateEvent::AddEdge(src, dst));
  }
  Status EnqueueEdgeRemove(NodeId src, NodeId dst) {
    return queue_.Push(UpdateEvent::RemoveEdge(src, dst));
  }
  Status EnqueueVisit(NodeId page) {
    return queue_.Push(UpdateEvent::Visit(page));
  }

  UpdateQueue& queue() { return queue_; }

  /// Blocks until every event with sequence <= `sequence` is servable
  /// (its generation published), the service stops, or `timeout`
  /// elapses. True iff servable.
  bool WaitServable(uint64_t sequence, std::chrono::nanoseconds timeout) const;

  uint64_t servable_sequence() const;
  IngestStats Stats() const;
  std::vector<IngestGenerationInfo> GenerationLog() const;

  /// Terminal/loop status: OK while healthy; the first pipeline error
  /// (which also stops the loop) afterwards.
  Status status() const;

  /// The graph the pipeline has applied all batches onto. Only valid
  /// once the consumer is stopped (checked).
  const CsrGraph& CurrentGraph() const;

  /// Copy of the most recently published bundle image (empty unless
  /// options.keep_last_image).
  std::vector<uint8_t> LastImage() const;

 private:
  IngestService(CsrGraph initial_graph, SnapshotStore* store,
                IngestOptions options);

  /// Everything the export stage needs from one solved generation:
  /// shared snapshots of the immutable observation vectors, batch
  /// provenance for the accounting it performs at publish time, and
  /// the upstream stage durations for the breakdown histograms. Jobs
  /// cross the StagePipe by move; nothing in here aliases mutable
  /// consumer-thread state.
  struct ExportJob {
    uint64_t sequence = 0;  // publish watermark (batch last_sequence)
    NodeId num_pages = 0;
    ResidualPushStats solve;
    std::vector<SharedObservation> window;
    bool has_batch = false;  // false for the Start()-time initial publish
    uint64_t first_sequence = 0;
    uint64_t last_sequence = 0;
    uint64_t num_events = 0;
    uint64_t num_adds = 0;
    uint64_t num_removes = 0;
    uint64_t num_visits = 0;
    uint64_t delta_changes = 0;
    uint64_t delta_added = 0;
    uint64_t delta_removed = 0;
    FlushReason reason = FlushReason::kNone;
    std::vector<std::chrono::steady_clock::time_point> enqueue_times;
    double apply_ms = 0.0;
    double solve_ms = 0.0;
  };

  void RunLoop() QRANK_EXCLUDES(mu_);
  /// Exporter-thread loop: drain the pipe, run each job, Break on the
  /// first failure.
  void ExportLoop() QRANK_EXCLUDES(mu_);
  /// Solve half of one generation: delta apply -> rank -> job build;
  /// hands the job to the exporter (pipelined) or runs it inline.
  /// Non-OK return stops the loop.
  Status ProcessBatch(FlushedBatch batch) QRANK_EXCLUDES(mu_);
  /// Snapshot of the post-solve state as an export job (consumer thread
  /// only; `batch` may be null for the initial publish and is consumed).
  ExportJob MakeExportJob(FlushedBatch* batch, const ResidualPushStats& solve,
                          double apply_ms, double solve_ms);
  /// Export half of one generation: estimate -> export -> publish ->
  /// latency + stage accounting.
  Status RunExportJob(ExportJob job) QRANK_EXCLUDES(mu_);
  /// Appends site_of(p) to site_column_ for every page below
  /// `num_pages` it does not cover yet (pages are only ever born).
  void ExtendSiteColumn(NodeId num_pages);
  /// Brings the tracker to graph_ (the first call is its cold start) and
  /// appends the scores to the observation window.
  Status RecomputeScores(const GraphDelta& delta, ResidualPushStats* solve);
  /// Stage-thread epilogue: record the first error, and let the LAST
  /// stage to exit clear running_ (publishes from a draining exporter
  /// must finish before WaitServable callers see the service stop).
  void StageExit(Status st) QRANK_EXCLUDES(mu_);

  const IngestOptions options_;
  SnapshotStore* const store_;
  UpdateQueue queue_;
  BatchAccumulator accumulator_;

  // Consumer-thread-owned compute state (no lock: single writer, and
  // CurrentGraph() is gated on the thread being joined). The window
  // holds immutable vectors behind shared_ptr so export jobs snapshot
  // it without copying scores.
  CsrGraph graph_;
  ResidualPushTracker rank_;
  bool prev_converged_ = false;
  std::deque<SharedObservation> observations_;  // export-scale window

  // Export-stage state: site_of(p) per page, computed once per page at
  // birth. Only the export stage touches it (Start()'s inline initial
  // publish, then the exporter thread, or the consumer thread when not
  // pipelined), so it needs no lock.
  std::vector<SiteId> site_column_;

  // The solve -> export handoff (pipelined mode). Capacity 1: one job
  // queued while the exporter works on the previous one, so at most two
  // generations are in flight (depth-2 double buffering).
  StagePipe<ExportJob> pipe_{1};

  // Shared bookkeeping.
  mutable Mutex mu_;
  mutable CondVar servable_cv_;
  bool running_ QRANK_GUARDED_BY(mu_) = false;
  int active_stages_ QRANK_GUARDED_BY(mu_) = 0;
  Status loop_status_ QRANK_GUARDED_BY(mu_);
  uint64_t servable_sequence_ QRANK_GUARDED_BY(mu_) = 0;
  IngestStats counters_ QRANK_GUARDED_BY(mu_);  // queue field on read
  LatencyHistogram latency_ QRANK_GUARDED_BY(mu_);
  LatencyHistogram stage_apply_ QRANK_GUARDED_BY(mu_);
  LatencyHistogram stage_solve_ QRANK_GUARDED_BY(mu_);
  LatencyHistogram stage_estimate_ QRANK_GUARDED_BY(mu_);
  LatencyHistogram stage_export_ QRANK_GUARDED_BY(mu_);
  LatencyHistogram stage_publish_ QRANK_GUARDED_BY(mu_);
  std::vector<IngestGenerationInfo> generation_log_ QRANK_GUARDED_BY(mu_);
  std::vector<uint8_t> last_image_ QRANK_GUARDED_BY(mu_);

  // Lifecycle. started_/stopped_ are mu_-guarded so concurrent Stop()
  // calls (an explicit Stop racing the destructor's, or two
  // controllers) elect exactly one joiner; the thread handles are
  // written by Start() and joined only by that winner, so they need no
  // lock of their own. Start() must complete before Stop() may be
  // called.
  std::thread consumer_;
  std::thread exporter_;  // pipelined mode only
  bool started_ QRANK_GUARDED_BY(mu_) = false;
  bool stopped_ QRANK_GUARDED_BY(mu_) = false;
};

}  // namespace qrank

#endif  // QRANK_INGEST_INGEST_SERVICE_H_
