// Shared machinery of the end-to-end benchmark: clocks, the open-loop
// pacer, emission latency attribution, operation accounting, the span
// tracer and the counting allocator's per-thread tally.
//
// A run replays one seeded trace in whole rounds. Every round builds a
// fresh system, feeds every input, flushes, drains and checks the
// output against the generator's ground truth, so each run attempts the
// same operations per round whatever its length.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/time.h"
#include "types/tuple.h"

namespace e2e {

using eslev::Status;
using eslev::Timestamp;
using eslev::Tuple;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Heap allocations made so far by the calling thread (counted by
/// the benchmark binary's replacement operator new, harness.cc).
uint64_t ThreadAllocs();

/// \brief Resident set of this process, in KiB (/proc/self/statm).
int64_t ResidentKb();

/// \brief One scheduled input: a reading for `stream`, or a clock tick.
struct Input {
  const std::string* stream = nullptr;  // null for a clock tick
  Tuple tuple;
  Timestamp ts = 0;  // event time (the tuple's, or the tick's)
  bool tick() const { return stream == nullptr; }
};

/// \brief Open-loop schedule: input i is due `i / rate` seconds after
/// Start(). A rate of 0 makes the pacer closed-loop (never waits).
class Pacer {
 public:
  explicit Pacer(double rate) : period_ns_(rate > 0 ? 1e9 / rate : 0) {}
  void Start() { t0_ns_ = NowNs(); }
  bool paced() const { return period_ns_ > 0; }
  int64_t due(size_t i) const {
    return t0_ns_ + static_cast<int64_t>(static_cast<double>(i) * period_ns_);
  }
  /// \brief Wait until input `i` is due, calling `idle()` meanwhile.
  template <typename Idle>
  void Wait(size_t i, Idle&& idle) {
    if (!paced()) return;
    const int64_t due_ns = due(i);
    int64_t now = NowNs();
    while (now < due_ns) {
      idle();
      now = NowNs();
    }
    if (now - due_ns > max_lateness_ns_) max_lateness_ns_ = now - due_ns;
  }
  int64_t max_lateness_ns() const { return max_lateness_ns_; }

 private:
  double period_ns_;
  int64_t t0_ns_ = 0;
  int64_t max_lateness_ns_ = 0;
};

/// \brief Times each emission from the scheduled send time of the first
/// input (in send order) whose event time is at or past the emission's
/// timestamp, to now.
class LatencyClock {
 public:
  /// `prefix_max[i]` is the largest event time among inputs 0..i.
  LatencyClock(const std::vector<Timestamp>* prefix_max, const Pacer* pacer,
               std::vector<int64_t>* samples)
      : prefix_max_(prefix_max), pacer_(pacer), samples_(samples) {}
  void Record(Timestamp emission_ts);

 private:
  const std::vector<Timestamp>* prefix_max_;
  const Pacer* pacer_;
  std::vector<int64_t>* samples_;
};

std::vector<Timestamp> PrefixMaxEventTime(const std::vector<Input>& inputs);

/// \brief Operation accounting, output checks and the raw samples one
/// run collects.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // output-check failures
  std::vector<std::string> op_errors;  // first few failed operations

  /// \brief Count one attempted operation, failed when `s` is not OK.
  void Op(const Status& s, const char* what);
  /// \brief Count `n` successful attempted operations (deliveries).
  void Ops(uint64_t n) { attempted += n; }
  /// \brief Count `n` operations that failed without a Status (late
  /// drops, outbox sequence gaps); they were already attempted.
  void FailedOps(uint64_t n, const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  std::vector<double> setup_s;
  std::vector<double> throughput_eps;
  std::vector<double> recovery_s;
  std::vector<int64_t> latency_ns;
  int64_t max_send_lateness_ns = 0;
  int64_t rss_base_kb = 0;
  int64_t rss_peak_kb = 0;
  void SampleRss() {
    const int64_t kb = ResidentKb();
    if (kb > rss_peak_kb) rss_peak_kb = kb;
  }

  // Layer samples collected outside spans (checkpoint size, replay rate).
  std::vector<double> checkpoint_bytes;
  std::vector<double> replay_eps;
  /// Per-layer metrics a workload derives itself (traced runs only).
  std::map<std::string, double> layer;
};

double Median(std::vector<double> v);
/// \brief The q-quantile (0..1) by nearest rank; v is sorted in place.
int64_t Quantile(std::vector<int64_t>* v, double q);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around calls into each layer.
// Only the generator thread records spans. Self time (a span's duration
// minus the part its child spans cover) is folded per span name as spans
// close; the raw spans are kept in memory (up to a cap) and written out
// once the run ends.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Totals {
    uint64_t calls = 0;
    int64_t self_ns = 0;
    uint64_t allocs = 0;  // inclusive, calling thread only
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void Open(const char* name, uint64_t input);
  void Close();

  /// \brief Totals of every span named `name` (zero when none closed).
  Totals Get(const std::string& name) const;
  /// \brief Self time per call in `unit_ns` units (0 when no calls).
  double SelfPerCall(const std::string& name, double unit_ns) const;
  /// \brief Lines "name calls self_ms share%" sorted by self time.
  std::string SelfTimeTable() const;
  /// \brief Write the retained spans as TSV: id name parent input
  /// start_ns end_ns (start relative to the first span).
  Status WriteSpans(const std::string& path) const;

 private:
  struct Span {
    uint32_t name;
    uint32_t parent;  // index+1 into spans_, 0 for a root
    uint64_t input;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Frame {
    uint32_t name;
    uint32_t span;  // index+1 into spans_, 0 when not retained
    int64_t start_ns;
    int64_t child_ns;
    uint64_t alloc_start;
  };
  uint32_t Intern(const char* name);

  static constexpr size_t kMaxRetainedSpans = 1 << 20;
  bool enabled_ = false;
  std::unordered_map<const char*, uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

Tracer& GlobalTracer();

/// \brief RAII span; a no-op while tracing is off. `input` is the index
/// of the input the work belongs to, shared by every span of that input.
class Span {
 public:
  explicit Span(const char* name, uint64_t input = 0)
      : on_(GlobalTracer().enabled()) {
    if (on_) GlobalTracer().Open(name, input);
  }
  ~Span() {
    if (on_) GlobalTracer().Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Recoveries from the same checkpoint and WAL per crash round.
constexpr int kRecoveries = 3;

class Workload {
 public:
  virtual ~Workload() = default;
  /// \brief Input make-up, printed before the figures.
  virtual std::string Describe() const = 0;
  /// \brief Build the system as a round does, record the set-up time
  /// in `out->setup_s`, and tear it down.
  virtual void MeasureSetup(Outcome* out) = 0;
  /// \brief One whole round on a fresh system: unpaced (closed loop)
  /// records throughput; paced (open loop) records latency.
  virtual void Round(bool paced, Outcome* out) = 0;
  /// \brief Checkpoint mid-trace, flush, drain and destroy the system,
  /// rebuild it and RecoverFrom the checkpoint plus WAL (kRecoveries
  /// times; the median goes to `out->recovery_s`), feed the rest to the
  /// last rebuild and check every expected output arrived exactly once.
  virtual void CrashRound(Outcome* out) = 0;
  /// \brief Traced-run extras: standalone layer replays and counters
  /// read from the layers, written into `out->layer`.
  virtual void LayerMetrics(Outcome* out) = 0;
};

/// `shards` sizes the durable-sharded replay dock-dedup's traced run
/// borrows its core.sharded.* metrics from.
std::unique_ptr<Workload> MakeDockDedup(uint32_t seed,
                                        const std::string& workdir,
                                        size_t shards);
std::unique_ptr<Workload> MakeTenantSeq(uint32_t seed,
                                        const std::string& workdir);
std::unique_ptr<Workload> MakeDurableSharded(uint32_t seed,
                                             const std::string& workdir,
                                             size_t shards);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads
// ---------------------------------------------------------------------------

/// \brief Order-sensitive 64-bit digest of a tuple's timestamp and values.
uint64_t TupleDigest(const Tuple& t);

/// \brief Insert clock ticks every `period` of event time into an
/// event-time-ordered input list, and a final flush tick at
/// last event + `flush_after`.
void AddTicks(std::vector<Input>* inputs, eslev::Duration period,
              eslev::Duration flush_after);

/// \brief Sum of the sizes of the regular files under `dir`, excluding
/// names that start with "wal".
uint64_t CheckpointBytes(const std::string& dir);

/// \brief Remove and recreate `dir`.
void ResetDir(const std::string& dir);

/// \brief Standalone WalWriter replay of `inputs` at the default
/// group-commit setting: recovery.wal_append_ns, wal_bytes_per_event and
/// allocs_per_record into `out->layer`.
void WalAppendReplay(const std::vector<Input>& inputs,
                     const std::string& dir, Outcome* out);

/// \brief Sum of every gauge and counter whose key ends in `suffix`.
double SumMetric(const eslev::MetricsSnapshot& snap, const std::string& suffix);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
