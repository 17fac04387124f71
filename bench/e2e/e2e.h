// qrank_e2e: shared pieces of the end-to-end benchmark — open-loop
// pacing on the steady clock, percentile summaries, the span tracer,
// /proc readers and the per-workload result the driver prints.
//
// Everything here sits OUTSIDE the system under test: the benchmark
// only times calls into each layer's public functions and reads the
// kernel's per-process counters, so it measures the same binaries a
// deployment runs.

#ifndef QRANK_BENCH_E2E_E2E_H_
#define QRANK_BENCH_E2E_E2E_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/edge_list.h"

namespace qrank_e2e {

/// Marks a failed operation in a latency sample: it is over any limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Steady-clock nanoseconds (CLOCK_MONOTONIC, the clock steady_clock
/// reads on Linux).
int64_t NowNs();

/// Sleeps until NowNs() >= t_ns.
void SleepUntilNs(int64_t t_ns);

/// Drops this thread's timer slack to 1 ns so paced sleeps wake on
/// time instead of up to 50 µs late (the Linux default slack).
void TightenTimerSlack();

/// Open-loop pacing for one generator thread: waits for each request's
/// scheduled time and records how late the generator itself ran —
/// the start time minus max(scheduled, previous completion), which
/// excludes queueing behind a slow request (that is charged to the
/// request's latency instead).
class Pacer {
 public:
  /// Blocks until `due_ns`; returns the call's start time.
  int64_t Wait(int64_t due_ns);
  /// Marks the end of the current request's work.
  void Done(int64_t end_ns) { prev_end_ns_ = end_ns; }
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  int64_t prev_end_ns_ = 0;
  std::vector<double> late_us_;
};

/// Poisson arrival offsets in ns, ascending, at `rate` per second over
/// [0, duration_s).
std::vector<int64_t> PoissonArrivals(qrank::Rng* rng, double rate,
                                     double duration_s);

/// Nearest-rank percentile (q in [0, 1]); sorts `v` in place. kFailed
/// entries sort last, so failures push high percentiles over any
/// limit. 0 for an empty sample.
double Percentile(std::vector<double>* v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Span tracer: per-thread lanes of preallocated span slots, written
/// out once as Chrome trace-event JSON (opens in Perfetto). Recording
/// never allocates; a full lane counts drops instead.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // spans of one request share it
  };

  /// One thread's span buffer. Used by one thread at a time.
  class Lane {
   public:
    Lane(uint32_t index, std::string name, size_t capacity);
    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    uint64_t NewId() { return (uint64_t{index_} << 40) | ++next_id_; }
    void Record(uint64_t id, const char* name, int64_t start_ns,
                int64_t end_ns, uint64_t parent, uint64_t request);
    /// Record with a fresh id; returns it.
    uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t parent, uint64_t request);

   private:
    friend class Tracer;
    uint32_t index_;
    std::string name_;
    std::vector<Span> spans_;
    size_t size_ = 0;
    uint64_t next_id_ = 0;
    uint64_t dropped_ = 0;
  };

  explicit Tracer(size_t spans_per_lane) : capacity_(spans_per_lane) {}

  /// A new lane (allocates; call outside timed loops).
  Lane* NewLane(const std::string& thread_name) QRANK_EXCLUDES(mu_);

  /// Call once every lane's thread has finished recording.
  qrank::Status WriteChromeJson(const std::string& path) const
      QRANK_EXCLUDES(mu_);
  uint64_t dropped() const QRANK_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  mutable qrank::Mutex mu_;
  // deque: lane addresses stay stable as lanes are added.
  std::deque<Lane> lanes_ QRANK_GUARDED_BY(mu_);
};

/// CPU time and context switches of a process (or thread).
struct ProcUsage {
  int64_t cpu_ns = 0;
  uint64_t ctxsw = 0;  // voluntary + involuntary
};

/// Another process, from /proc/<pid>/stat (utime + stime) and the sum
/// of /proc/<pid>/task/*/status switch counts.
ProcUsage ReadProcUsage(pid_t pid);
/// This whole process (getrusage RUSAGE_SELF: every thread, live or
/// exited).
ProcUsage SelfUsage();
/// The calling thread (RUSAGE_THREAD).
ProcUsage ThreadUsage();
/// Peak resident set (VmHWM) in MiB; pid 0 = this process.
double PeakRssMb(pid_t pid);

/// Keeps every online core busy, up to `max_s`, until the host gives
/// this process all of them, and returns the seconds it took. On the
/// shared virtual machines this benchmark runs on, the first second or
/// so of all-core load after an idle spell often gets one core's worth
/// of throughput; a timed phase started then measures the host's ramp.
/// Probes with a millisecond of the same spin loop on one thread and on
/// every core at once. Call from one thread at a time.
double WarmUpHost(double max_s);

/// Longest host warm-up before set-up and before each timed segment.
inline constexpr double kWarmUpHostMaxS = 3.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's outcome: the metrics it measured, the correctness
/// verdict of its output checks, and whether the run was valid.
struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::vector<std::string> problems;  // why correct is false
  std::vector<std::string> invalid;   // run-validity violations
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& metric, double value, const std::string& unit) {
    metrics.push_back({metric, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  const Metric* Find(const std::string& metric) const;
};

/// What every workload needs from the command line.
struct RunConfig {
  uint64_t seed = 1;
  /// Measured seconds per workload (the timed phases share them).
  double seconds = 10.0;
  /// Timed set-ups per workload; setup_s is their median.
  int setups = 5;
  /// Where workloads may create scratch files (shard bundles).
  std::string work_dir = ".";
  /// Non-null in the traced run only.
  Tracer* tracer = nullptr;
};

/// The shared input of every workload: GenerateSiteClustered(655, 200,
/// 12, 6), 131k pages in contiguous 200-page sites, seeded per run.
inline constexpr qrank::NodeId kNumSites = 655;
inline constexpr qrank::NodeId kPagesPerSite = 200;
qrank::EdgeList SiteGraph(qrank::Rng* rng);

/// Generator threads each workload runs (the cores check needs them).
inline constexpr int kQueryGeneratorThreads = 2;
inline constexpr int kIngestGeneratorThreads = 3;

/// query_global / query_routed: the distributed tier over spawned
/// qrank_worker processes. `routed` picks query_routed's mix.
WorkloadResult RunQueryWorkload(const RunConfig& config, bool routed);

/// ingest_steady / ingest_burst: the in-process freshness loop.
WorkloadResult RunIngestWorkload(const RunConfig& config, bool burst);

}  // namespace qrank_e2e

#endif  // QRANK_BENCH_E2E_E2E_H_
