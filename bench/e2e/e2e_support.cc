#include <dirent.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "e2e.h"
#include "graph/generators.h"

namespace qrank_e2e {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

int64_t Pacer::Wait(int64_t due_ns) {
  if (NowNs() < due_ns) SleepUntilNs(due_ns);
  const int64_t start = NowNs();
  late_us_.push_back(
      static_cast<double>(start - std::max(due_ns, prev_end_ns_)) / 1e3);
  return start;
}

std::vector<int64_t> PoissonArrivals(qrank::Rng* rng, double rate,
                                     double duration_s) {
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = rng->Exponential(rate);
  while (t < duration_s) {
    due.push_back(static_cast<int64_t>(t * 1e9));
    t += rng->Exponential(rate);
  }
  return due;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(index, v->size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---- Tracer -----------------------------------------------------------

Tracer::Lane::Lane(uint32_t index, std::string name, size_t capacity)
    : index_(index), name_(std::move(name)), spans_(capacity) {}

void Tracer::Lane::Record(uint64_t id, const char* name, int64_t start_ns,
                          int64_t end_ns, uint64_t parent, uint64_t request) {
  if (size_ == spans_.size()) {
    ++dropped_;
    return;
  }
  spans_[size_++] = Span{name, start_ns, end_ns, id, parent, request};
}

uint64_t Tracer::Lane::Record(const char* name, int64_t start_ns,
                              int64_t end_ns, uint64_t parent,
                              uint64_t request) {
  const uint64_t id = NewId();
  Record(id, name, start_ns, end_ns, parent, request);
  return id;
}

Tracer::Lane* Tracer::NewLane(const std::string& thread_name) {
  qrank::MutexLock lock(&mu_);
  lanes_.emplace_back(static_cast<uint32_t>(lanes_.size() + 1), thread_name,
                      capacity_);
  return &lanes_.back();
}

uint64_t Tracer::dropped() const {
  qrank::MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.dropped_;
  return total;
}

qrank::Status Tracer::WriteChromeJson(const std::string& path) const {
  qrank::MutexLock lock(&mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return qrank::Status::IOError("cannot write " + path);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Lane& lane : lanes_) {
    for (size_t i = 0; i < lane.size_; ++i) {
      origin = std::min(origin, lane.spans_[i].start_ns);
    }
  }
  if (origin == std::numeric_limits<int64_t>::max()) origin = 0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  bool first = true;
  for (const Lane& lane : lanes_) {
    std::fprintf(f,
                 "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",", lane.index_, lane.name_.c_str());
    first = false;
    for (size_t i = 0; i < lane.size_; ++i) {
      const Span& s = lane.spans_[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                   ", \"request\": %" PRIu64 "}}",
                   s.name, lane.index_,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, s.request);
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return qrank::Status::IOError("write " + path);
  return qrank::Status::OK();
}

// ---- /proc readers ---------------------------------------------------

namespace {

int64_t TimevalNs(const timeval& tv) {
  return int64_t{tv.tv_sec} * 1000000000 + int64_t{tv.tv_usec} * 1000;
}

ProcUsage FromRusage(const rusage& ru) {
  ProcUsage u;
  u.cpu_ns = TimevalNs(ru.ru_utime) + TimevalNs(ru.ru_stime);
  u.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// Value of a "Key:\t<number>" line of a /proc status file, 0 if absent.
uint64_t StatusField(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

ProcUsage ReadProcUsage(pid_t pid) {
  ProcUsage u;
  const std::string root = "/proc/" + std::to_string(pid);
  std::ifstream stat(root + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 (11th and 12th after the state field).
  const size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    uint64_t utime = 0;
    uint64_t stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    const double tick_ns = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    u.cpu_ns = static_cast<int64_t>(static_cast<double>(utime + stime) *
                                    tick_ns);
  }
  DIR* tasks = opendir((root + "/task").c_str());
  if (tasks != nullptr) {
    while (const dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      const std::string status = root + "/task/" + entry->d_name + "/status";
      u.ctxsw += StatusField(status, "voluntary_ctxt_switches") +
                 StatusField(status, "nonvoluntary_ctxt_switches");
    }
    closedir(tasks);
  }
  return u;
}

ProcUsage SelfUsage() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return FromRusage(ru);
}

ProcUsage ThreadUsage() {
  rusage ru;
  getrusage(RUSAGE_THREAD, &ru);
  return FromRusage(ru);
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  return static_cast<double>(StatusField(path, "VmHWM")) / 1024.0;
}

namespace {

// A fixed chunk of dependent integer work (about a millisecond).
void Spin() {
  volatile uint64_t x = 1;
  for (int i = 0; i < 1000000; ++i) x = x * 6364136223846793005ULL + 1;
}

// Cores' worth of throughput the host gives all online cores at once.
double ProbeParallelism() {
  const int cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int64_t t0 = NowNs();
  Spin();
  const int64_t one = NowNs() - t0;
  std::vector<std::thread> threads;
  const int64_t t1 = NowNs();
  for (int c = 0; c < cores; ++c) threads.emplace_back(Spin);
  for (std::thread& t : threads) t.join();
  const int64_t all = NowNs() - t1;
  return static_cast<double>(cores) * static_cast<double>(one) /
         static_cast<double>(std::max<int64_t>(all, 1));
}

}  // namespace

double WarmUpHost(double max_s) {
  // Three quarters of the cores' worth counts as warm; a host still
  // ramping measures about one core's worth. Probes run back to back,
  // so the probing itself is the sustained load that ends the ramp. A
  // host that never got there once is not waited for again: it would
  // only stretch the run.
  static bool never_warm = false;
  const double warm =
      0.75 * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const int64_t start = NowNs();
  const int64_t give_up =
      start + (never_warm ? 0 : static_cast<int64_t>(max_s * 1e9));
  int in_a_row = 0;
  while (in_a_row < 2 && NowNs() < give_up) {
    in_a_row = ProbeParallelism() >= warm ? in_a_row + 1 : 0;
  }
  never_warm = never_warm || in_a_row < 2;
  return static_cast<double>(NowNs() - start) / 1e9;
}

qrank::EdgeList SiteGraph(qrank::Rng* rng) {
  return qrank::GenerateSiteClustered(kNumSites, kPagesPerSite, 12, 6, rng)
      .value();
}

const Metric* WorkloadResult::Find(const std::string& metric) const {
  for (const Metric& m : metrics) {
    if (m.name == metric) return &m;
  }
  return nullptr;
}

}  // namespace qrank_e2e
