// durable-sharded: a ShardedEngine with the front-end WAL running two
// queries: a sparse Example 1 dedup partitioned by tag (a few tuples per
// window) and Example 5's EXCEPTION_SEQ pinned to one shard, with a clock
// tick every second of event time fanned out to every shard. A
// coordinated checkpoint runs mid-round. Routing, the MPSC queues,
// heartbeat fan-out, the drain merge and the WAL do most of the work;
// the operators are cheap.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "harness.h"
#include "rfid/workloads.h"

namespace e2e {
namespace {

using namespace eslev;

constexpr char kScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
  CREATE STREAM A1(staffid, tagid, tagtime);
  CREATE STREAM A2(staffid, tagid, tagtime);
  CREATE STREAM A3(staffid, tagid, tagtime);
)sql";

constexpr char kAlertQuery[] =
    "SELECT A1.tagid, A2.tagid, A3.tagid, A1.tagtime FROM A1, A2, A3 "
    "WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [20 SECONDS FOLLOWING A1]";
constexpr Duration kWindow = Seconds(20);

// Four distinct reads per second, each with two duplicates within 800 ms:
// about four tuples per shard per dedup window at three shards.
constexpr size_t kDistinct = 5000;
constexpr Duration kInterArrival = Milliseconds(250);
constexpr size_t kTags = 64;  // a tag recurs only after 16 s
constexpr double kPacedRate = 100000;  // inputs per second

uint64_t ReadingKey(const Tuple& t) {
  std::hash<std::string> h;
  return static_cast<uint64_t>(t.ts()) * 0x9e3779b97f4a7c15ULL ^
         h(t.value(0).string_value()) ^ (h(t.value(1).string_value()) << 1);
}

class DurableSharded : public Workload {
 public:
  DurableSharded(uint32_t seed, std::string workdir, size_t shards)
      : workdir_(std::move(workdir)), shards_(shards) {
    rfid::DuplicateWorkloadOptions dedup;
    dedup.num_distinct = kDistinct;
    dedup.duplicates_per_read = 2;
    dedup.duplicate_spread = Milliseconds(800);
    dedup.inter_arrival = kInterArrival;
    dedup.num_readers = 4;
    dedup.num_tags = kTags;
    dedup.seed = seed;
    rfid::Workload d = rfid::MakeDuplicateWorkload(dedup);
    // Reference dedup, apart from the engine: a reading survives when no
    // reading of its (reader, tag) key came within the second before it.
    std::map<std::pair<std::string, std::string>, Timestamp> last_seen;
    for (const auto& e : d.events) {
      const auto key = std::make_pair(e.tuple.value(0).string_value(),
                                      e.tuple.value(1).string_value());
      auto it = last_seen.find(key);
      if (it == last_seen.end() || e.tuple.ts() - it->second > Seconds(1)) {
        expected_keys_.push_back(ReadingKey(e.tuple));
      }
      last_seen[key] = e.tuple.ts();
    }
    std::sort(expected_keys_.begin(), expected_keys_.end());
    distinct_ = d.distinct_readings;

    rfid::LabWorkflowWorkloadOptions lab;
    const Duration span = static_cast<Duration>(kDistinct) * kInterArrival;
    // Clean rounds last 7 s and timeouts 25 s: about 10.6 s per round.
    lab.num_rounds = static_cast<size_t>(span / Milliseconds(10600));
    lab.wrong_order_rate = 0;
    lab.wrong_start_rate = 0;
    lab.timeout_rate = 0.2;
    lab.step_delay = Seconds(2);
    lab.window = kWindow;
    lab.round_gap = Seconds(1);
    lab.seed = seed + 303;
    rfid::Workload l = rfid::MakeLabWorkflowWorkload(lab);
    expected_alerts_ = l.expected_exceptions;
    lab_rounds_ = lab.num_rounds;

    std::vector<rfid::TimedReading> all;
    for (rfid::Workload* w : {&d, &l}) {
      for (auto& e : w->events) all.push_back(std::move(e));
    }
    std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.tuple.ts() < b.tuple.ts();
    });
    for (auto& e : all) {
      Input in;
      in.stream = e.stream == "readings" ? &readings_
                  : e.stream == "A1"     ? &a_streams_[0]
                  : e.stream == "A2"     ? &a_streams_[1]
                                         : &a_streams_[2];
      in.ts = e.tuple.ts();
      in.tuple = std::move(e.tuple);
      inputs_.push_back(std::move(in));
    }
    events_ = inputs_.size();
    AddTicks(&inputs_, Seconds(1), Minutes(1));
    prefix_max_ = PrefixMaxEventTime(inputs_);
  }

  std::string Describe() const override {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "durable-sharded: %zu shards + 1 generator thread; %zu reader events "
        "+ %zu clock ticks per round (%zu distinct reads x3 copies, one per "
        "%lld ms over %zu tags; %zu lab rounds with 20%% timeouts on a single "
        "shard); front-end WAL, group commit 16 KiB, checkpoint mid-round; "
        "paced at %.0f inputs/s",
        shards_, events_, inputs_.size() - events_, distinct_,
        static_cast<long long>(kInterArrival / 1000), kTags, lab_rounds_,
        kPacedRate);
    return buf;
  }

  void MeasureSetup(Outcome* out) override {
    const std::string dir = workdir_ + "/durable-sharded";
    ResetDir(dir);
    Collected got;
    const int64_t s0 = NowNs();
    auto engine = Build(&got, nullptr, dir, true, out);
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
  }

  void Round(bool paced, Outcome* out) override {
    const std::string dir = workdir_ + "/durable-sharded";
    ResetDir(dir);
    Pacer pacer(paced ? kPacedRate : 0);
    LatencyClock latency(&prefix_max_, &pacer, &out->latency_ns);
    Collected got;
    const int64_t s0 = NowNs();
    auto engine = Build(&got, paced ? &latency : nullptr, dir, true, out);
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);

    const bool traced = GlobalTracer().enabled();
    double lag_max = 0;
    pacer.Start();
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < inputs_.size(); ++i) {
      pacer.Wait(i, [&] { Drain(engine.get(), i, out); });
      Send(engine.get(), i, out);
      // Paced rounds take no checkpoint: a pause once per round delays
      // about 1 % of the round's emissions, right at the p99 boundary.
      if (!paced && i == inputs_.size() / 2) {
        Span span("core.sharded.checkpoint", i);
        out->Op(engine->Checkpoint(dir), "checkpoint");
      }
      if (i % 256 == 0) Drain(engine.get(), i, out);
      if (i % 4096 == 0) out->SampleRss();
      if (traced && i % 64 == 0) {
        lag_max = std::max(lag_max, static_cast<double>(engine->watermark_lag()));
      }
    }
    FlushAndDrain(engine.get(), out);
    const int64_t t1 = NowNs();
    out->SampleRss();
    if (!paced) {
      out->throughput_eps.push_back(static_cast<double>(events_) * 1e9 /
                                    static_cast<double>(t1 - t0));
    }
    out->max_send_lateness_ns =
        std::max(out->max_send_lateness_ns, pacer.max_lateness_ns());
    if (traced) {
      const std::vector<uint64_t> counts = engine->shard_tuple_counts();
      const double total = std::accumulate(counts.begin(), counts.end(), 0.0);
      const double max = static_cast<double>(
          *std::max_element(counts.begin(), counts.end()));
      out->layer["core.sharded.shard_skew"] =
          total > 0 ? max * static_cast<double>(counts.size()) / total : 0;
      out->layer["core.sharded.watermark_lag_us"] =
          std::max(out->layer["core.sharded.watermark_lag_us"], lag_max);
    }
    engine.reset();
    Check(&got, out);
  }

  void CrashRound(Outcome* out) override {
    const std::string dir = workdir_ + "/durable-sharded";
    ResetDir(dir);
    Collected got;
    const size_t cut = inputs_.size() / 2;
    const size_t crash = inputs_.size() * 4 / 5;
    {
      auto engine = Build(&got, nullptr, dir, true, out);
      for (size_t i = 0; i < crash; ++i) {
        Send(engine.get(), i, out);
        if (i + 1 == cut) {
          Span span("recovery.checkpoint", i);
          out->Op(engine->Checkpoint(dir), "checkpoint");
          out->checkpoint_bytes.push_back(
              static_cast<double>(CheckpointBytes(dir)));
        }
        if (i % 256 == 0) Drain(engine.get(), i, out);
      }
      FlushAndDrain(engine.get(), out);
    }
    std::unique_ptr<ShardedEngine> engine;
    std::vector<double> times;
    Collected unused;
    for (int r = 0; r < kRecoveries; ++r) {
      // Only the last rebuild delivers: the others are torn down unused.
      engine.reset();
      const int64_t r0 = NowNs();
      engine = Build(r + 1 == kRecoveries ? &got : &unused, nullptr, dir,
                     false, out);
      {
        Span span("recovery.recover");
        out->Op(engine->RecoverFrom(dir), "recover");
      }
      times.push_back(static_cast<double>(NowNs() - r0) / 1e9);
      auto snap = engine->Metrics();
      out->Op(snap.status(), "metrics");
      if (snap.ok()) {
        out->replay_eps.push_back(
            SumMetric(*snap, "sharded.recovery.wal_records_replayed") /
            times.back());
      }
    }
    out->recovery_s.push_back(Median(times));
    for (size_t i = crash; i < inputs_.size(); ++i) {
      Send(engine.get(), i, out);
      if (i % 256 == 0) Drain(engine.get(), i, out);
    }
    FlushAndDrain(engine.get(), out);
    out->SampleRss();
    engine.reset();
    Check(&got, out);
  }

  void LayerMetrics(Outcome* out) override {
    const Tracer& tracer = GlobalTracer();
    out->layer["core.sharded.push_ns"] = tracer.SelfPerCall("core.sharded.push", 1);
    out->layer["core.sharded.tick_ns"] = tracer.SelfPerCall("core.sharded.tick", 1);
    out->layer["core.sharded.flush_ms"] =
        tracer.SelfPerCall("core.sharded.flush", 1e6);
    const Tracer::Totals push = tracer.Get("core.sharded.push");
    out->layer["core.allocs_per_event"] =
        push.calls > 0 ? static_cast<double>(push.allocs) /
                             static_cast<double>(push.calls)
                       : 0;
    if (traced_deliveries_ > 0) {
      out->layer["core.sharded.drain_ns"] =
          static_cast<double>(tracer.Get("core.sharded.drain").self_ns) /
          static_cast<double>(traced_deliveries_);
    }

    // Operator and queue gauges: one replay sampling Metrics(). Metrics()
    // runs a command on every shard, so it is kept out of timed rounds.
    {
      const std::string dir = workdir_ + "/durable-sharded-metrics";
      ResetDir(dir);
      Collected got;
      auto engine = Build(&got, nullptr, dir, true, out);
      double queue_max = 0, window_peak = 0, retained_peak = 0;
      for (size_t i = 0; i < inputs_.size(); ++i) {
        Send(engine.get(), i, out);
        if (i % 256 == 0) Drain(engine.get(), i, out);
        if (i % 2048 == 0) {
          auto snap = engine->Metrics();
          out->Op(snap.status(), "metrics");
          if (!snap.ok()) continue;
          queue_max = std::max(queue_max, SumMetric(*snap, ".queue_depth"));
          window_peak = std::max(window_peak, SumMetric(*snap, ".window_buffer"));
          retained_peak = std::max(retained_peak,
                                   SumMetric(*snap, ".retained_history") +
                                       SumMetric(*snap, ".partial_level"));
        }
      }
      FlushAndDrain(engine.get(), out);
      auto snap = engine->Metrics();
      out->Op(snap.status(), "metrics");
      if (snap.ok()) {
        const double probes = SumMetric(*snap, ".probe_comparisons");
        double tuples_in = 0;
        for (const auto& [key, value] : snap->gauges) {
          const std::string suffix = "probe_comparisons";
          if (key.size() < suffix.size() ||
              key.compare(key.size() - suffix.size(), suffix.size(), suffix) !=
                  0) {
            continue;
          }
          auto it = snap->counters.find(
              key.substr(0, key.size() - suffix.size()) + "tuples_in");
          if (it != snap->counters.end()) {
            tuples_in += static_cast<double>(it->second);
          }
        }
        out->layer["exec.probes_per_tuple"] =
            tuples_in > 0 ? probes / tuples_in : 0;
      }
      out->layer["core.sharded.queue_depth_max"] = queue_max;
      out->layer["exec.window_peak"] = window_peak;
      out->layer["cep.retained_peak"] = retained_peak;
      engine.reset();
      Check(&got, out);
    }

    WalAppendReplay(inputs_, workdir_ + "/durable-sharded-wal", out);
  }

 private:
  struct Collected {
    Collected() { dedup.reserve(kDistinct + kDistinct / 8); }
    std::vector<uint64_t> dedup;
    size_t alerts = 0;
  };

  std::unique_ptr<ShardedEngine> Build(Collected* got, LatencyClock* latency,
                                       const std::string& dir, bool enable_wal,
                                       Outcome* out) {
    ShardedEngineOptions options;
    options.num_shards = shards_;
    options.engine.honor_batch_env = false;
    options.engine.honor_ingest_env = false;
    auto engine = std::make_unique<ShardedEngine>(options);
    out->Op(engine->ExecuteScript(kScript), "setup");
    auto alerts = engine->RegisterQuery(kAlertQuery);
    out->Op(alerts.status(), "register");
    // The workflow is one global sequence, so it cannot be partitioned.
    for (const std::string& s : a_streams_) {
      out->Op(engine->SetSingleShard(s), "route");
    }
    out->Op(engine->Subscribe("cleaned_readings",
                              [got, latency](const Tuple& t) {
                                got->dedup.push_back(ReadingKey(t));
                                if (latency != nullptr) latency->Record(t.ts());
                              }),
            "subscribe");
    if (alerts.ok()) {
      out->Op(engine->Subscribe(
                  alerts->output_stream,
                  [got, latency](const Tuple& t) {
                    ++got->alerts;
                    if (latency == nullptr) return;
                    // A timeout is due once the clock passes its deadline.
                    auto a1 = t.value(3).AsInt64();
                    latency->Record(t.value(2).is_null() && a1.ok()
                                        ? *a1 + kWindow
                                        : t.ts());
                  }),
              "subscribe");
    }
    if (enable_wal) out->Op(engine->EnableWal(dir + "/wal.log"), "enable wal");
    return engine;
  }

  void Send(ShardedEngine* engine, size_t i, Outcome* out) {
    const Input& in = inputs_[i];
    if (in.tick()) {
      Span span("core.sharded.tick", i);
      out->Op(engine->AdvanceTime(in.ts), "advance");
    } else {
      Span span("core.sharded.push", i);
      out->Op(engine->PushTuple(*in.stream, in.tuple), "push");
    }
  }

  void Drain(ShardedEngine* engine, size_t input, Outcome* out) {
    Span span("core.sharded.drain", input);
    const size_t n = engine->DrainOutputs();
    out->Ops(n);
    if (GlobalTracer().enabled()) traced_deliveries_ += n;
  }

  void FlushAndDrain(ShardedEngine* engine, Outcome* out) {
    {
      Span span("core.sharded.flush", inputs_.size());
      out->Op(engine->Flush(), "flush");
    }
    Drain(engine, inputs_.size(), out);
  }

  void Check(Collected* got, Outcome* out) const {
    std::sort(got->dedup.begin(), got->dedup.end());
    out->Check(got->dedup == expected_keys_ &&
                   expected_keys_.size() == distinct_,
               "dedup delivered " + std::to_string(got->dedup.size()) +
                   " readings; expected exactly the " +
                   std::to_string(distinct_) + " distinct readings once each");
    out->Check(got->alerts == expected_alerts_,
               "delivered " + std::to_string(got->alerts) +
                   " timeout alerts, expected " +
                   std::to_string(expected_alerts_));
  }

  std::string workdir_;
  size_t shards_;
  const std::string readings_ = "readings";
  const std::string a_streams_[3] = {"A1", "A2", "A3"};
  std::vector<Input> inputs_;
  std::vector<Timestamp> prefix_max_;
  std::vector<uint64_t> expected_keys_;
  size_t distinct_ = 0;
  size_t expected_alerts_ = 0;
  size_t lab_rounds_ = 0;
  size_t events_ = 0;
  uint64_t traced_deliveries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDurableSharded(uint32_t seed,
                                             const std::string& workdir,
                                             size_t shards) {
  return std::make_unique<DurableSharded>(seed, workdir, shards);
}

}  // namespace e2e
