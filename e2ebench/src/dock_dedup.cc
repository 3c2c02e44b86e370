// dock-dedup: one Engine with ingest on (reorder + cleaning) running
// Example 1's 1-second windowed NOT EXISTS dedup over a dense, noisy
// dock-door trace. Ingest and the windowed anti-join scan do nearly all
// the work; SEQ, serving, shards and the WAL are off the measured path
// (the WAL appears only in the separate crash rounds).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "ingest/ingest_pipeline.h"
#include "rfid/workloads.h"

namespace e2e {
namespace {

using namespace eslev;

constexpr char kDedupScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
)sql";

// 200 distinct reads per 1 s dedup window (one every 5 ms); a tag recurs
// only after kTags * 5 ms = 5 s, so every distinct read survives dedup.
constexpr size_t kDistinct = 10000;
constexpr Duration kInterArrival = Milliseconds(5);
constexpr size_t kReaders = 4;
constexpr size_t kTags = 1000;
constexpr Duration kMaxShift = Milliseconds(200);
constexpr double kGhostRate = 0.25;
constexpr Duration kLateness = Milliseconds(400);
constexpr double kPacedRate = 30000;  // arrivals per second

uint64_t ReadingKey(const Tuple& t) {
  std::hash<std::string> h;
  return static_cast<uint64_t>(t.ts()) * 0x9e3779b97f4a7c15ULL ^
         h(t.value(0).string_value()) ^ (h(t.value(1).string_value()) << 1);
}

EngineOptions DedupOptions() {
  EngineOptions options;
  options.honor_batch_env = false;
  options.honor_ingest_env = false;
  options.ingest.lateness_bound = kLateness;
  options.ingest.smoothing_window = Milliseconds(1);
  options.ingest.min_read_count = 2;  // every real read arrives twice
  return options;
}

class DockDedup : public Workload {
 public:
  DockDedup(uint32_t seed, std::string workdir, size_t shards)
      : seed_(seed), workdir_(std::move(workdir)), shards_(shards) {
    rfid::DuplicateWorkloadOptions gen;
    gen.num_distinct = kDistinct;
    gen.duplicates_per_read = 0;  // noise injection owns duplication
    gen.inter_arrival = kInterArrival;
    gen.num_readers = kReaders;
    gen.num_tags = kTags;
    gen.seed = seed;
    rfid::Workload w = rfid::MakeDuplicateWorkload(gen);
    for (const auto& e : w.events) expected_.push_back(ReadingKey(e.tuple));
    std::sort(expected_.begin(), expected_.end());
    distinct_ = w.distinct_readings;

    rfid::NoiseOptions noise;
    noise.max_shift = kMaxShift;
    noise.duplicate_rate = 1.0;
    noise.duplicate_copies = 1;
    noise.spurious_rate = kGhostRate;
    noise.seed = seed * 2654435761u + 17;
    noise_ = rfid::InjectNoise(&w, noise);

    Timestamp last = 0;
    for (auto& e : w.events) {
      Input in;
      in.stream = &stream_;
      in.ts = e.tuple.ts();
      last = std::max(last, in.ts);
      in.tuple = std::move(e.tuple);
      inputs_.push_back(std::move(in));
    }
    events_ = inputs_.size();
    Input flush;  // releases the reorder and cleaning hold-back
    flush.ts = last + Minutes(10);
    inputs_.push_back(std::move(flush));
    prefix_max_ = PrefixMaxEventTime(inputs_);
  }

  std::string Describe() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "dock-dedup: %zu distinct reads (one per %lld ms, %zu readers, %zu "
        "tags), every read duplicated, %.0f%% ghosts, arrival shift <= %lld "
        "ms (max disorder %lld ms), %zu arrivals per round; ingest lateness "
        "%lld ms, min_read_count 2; paced at %.0f arrivals/s",
        distinct_, static_cast<long long>(kInterArrival / 1000), kReaders,
        kTags, kGhostRate * 100, static_cast<long long>(kMaxShift / 1000),
        static_cast<long long>(noise_.max_disorder / 1000), events_,
        static_cast<long long>(kLateness / 1000), kPacedRate);
    return buf;
  }

  void MeasureSetup(Outcome* out) override {
    const int64_t s0 = NowNs();
    auto engine = Build([](const Tuple&) {}, out);
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
  }

  void Round(bool paced, Outcome* out) override {
    Pacer pacer(paced ? kPacedRate : 0);
    LatencyClock latency(&prefix_max_, &pacer, &out->latency_ns);
    std::vector<uint64_t> got;
    got.reserve(expected_.size());

    const int64_t s0 = NowNs();
    auto engine_ptr = Build(
        [&](const Tuple& t) {
          got.push_back(ReadingKey(t));
          if (paced) latency.Record(t.ts());
        },
        out);
    Engine& engine = *engine_ptr;
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);

    pacer.Start();
    const int64_t t0 = NowNs();
    Feed(&engine, &pacer, 0, inputs_.size(), out);
    const int64_t t1 = NowNs();
    out->SampleRss();
    if (!paced) {
      out->throughput_eps.push_back(static_cast<double>(events_) * 1e9 /
                                    static_cast<double>(t1 - t0));
    }
    out->max_send_lateness_ns =
        std::max(out->max_send_lateness_ns, pacer.max_lateness_ns());
    out->FailedOps(engine.ingest_pipeline()->reorder()->late_dropped(),
                   "ingest late drops");
    CheckDelivered(&got, out);
  }

  void CrashRound(Outcome* out) override {
    const std::string dir = workdir_ + "/dock-dedup";
    ResetDir(dir);
    std::vector<uint64_t> got;
    got.reserve(expected_.size());
    auto collect = [&](const Tuple& t) { got.push_back(ReadingKey(t)); };
    const size_t cut = inputs_.size() / 2;
    const size_t crash = inputs_.size() * 4 / 5;
    Pacer unpaced(0);
    {
      auto engine = Build(collect, out);
      out->Op(engine->EnableWal(dir + "/wal.log"), "enable wal");
      Feed(engine.get(), &unpaced, 0, cut, out);
      {
        Span span("recovery.checkpoint");
        out->Op(engine->Checkpoint(dir), "checkpoint");
      }
      out->checkpoint_bytes.push_back(static_cast<double>(CheckpointBytes(dir)));
      Feed(engine.get(), &unpaced, cut, crash, out);
      out->FailedOps(engine->ingest_pipeline()->reorder()->late_dropped(),
                     "ingest late drops");
    }
    std::unique_ptr<Engine> engine;
    std::vector<double> times;
    for (int r = 0; r < kRecoveries; ++r) {
      // Only the last rebuild delivers: the others are torn down unused.
      const bool last = r + 1 == kRecoveries;
      engine.reset();
      const int64_t r0 = NowNs();
      engine = Build(last ? TupleCallback(collect) : [](const Tuple&) {}, out);
      {
        Span span("recovery.recover");
        out->Op(engine->RecoverFrom(dir), "recover");
      }
      times.push_back(static_cast<double>(NowNs() - r0) / 1e9);
      out->replay_eps.push_back(
          SumMetric(engine->Metrics(), "recovery.wal_records_replayed") /
          times.back());
    }
    out->recovery_s.push_back(Median(times));
    Feed(engine.get(), &unpaced, crash, inputs_.size(), out);
    out->FailedOps(engine->ingest_pipeline()->reorder()->late_dropped(),
                   "ingest late drops");
    out->SampleRss();
    CheckDelivered(&got, out);
  }

  void LayerMetrics(Outcome* out) override {
    const Tracer& tracer = GlobalTracer();
    out->layer["core.push_ns"] = tracer.SelfPerCall("core.push", 1);
    out->layer["core.advance_ns"] = tracer.SelfPerCall("core.advance", 1);
    const Tracer::Totals push = tracer.Get("core.push");
    out->layer["core.allocs_per_event"] =
        push.calls > 0 ? static_cast<double>(push.allocs) /
                             static_cast<double>(push.calls)
                       : 0;

    // Operator counters: one replay with periodic Metrics() samples.
    {
      auto engine = Build([](const Tuple&) {}, out);
      double window_peak = 0;
      for (size_t i = 0; i < inputs_.size(); ++i) {
        Send(engine.get(), i, out);
        if (i % 1024 == 0) {
          window_peak = std::max(
              window_peak, SumMetric(engine->Metrics(), ".window_buffer"));
        }
      }
      const MetricsSnapshot snap = engine->Metrics();
      double probes = 0, tuples_in = 0;
      for (const auto& [key, value] : snap.gauges) {
        const std::string suffix = "probe_comparisons";
        if (key.size() < suffix.size() ||
            key.compare(key.size() - suffix.size(), suffix.size(), suffix) !=
                0) {
          continue;
        }
        probes += static_cast<double>(value);
        const std::string prefix = key.substr(0, key.size() - suffix.size());
        auto it = snap.counters.find(prefix + "tuples_in");
        if (it != snap.counters.end()) tuples_in += static_cast<double>(it->second);
      }
      out->layer["exec.probes_per_tuple"] = tuples_in > 0 ? probes / tuples_in : 0;
      out->layer["exec.window_peak"] = window_peak;
    }

    // Standalone ingest replay of the same noisy arrivals.
    {
      IngestPipeline pipeline(DedupOptions().ingest);
      uint64_t delivered = 0;
      pipeline.BindDelivery(
          [&](size_t, const Tuple&) {
            ++delivered;
            return Status::OK();
          },
          [&](size_t, const TupleBatch& batch) {
            delivered += batch.size();
            return Status::OK();
          },
          [](Timestamp) { return Status::OK(); });
      const size_t port = pipeline.PortFor("readings");
      size_t buffered_max = 0;
      for (size_t i = 0; i < inputs_.size(); ++i) {
        const Input& in = inputs_[i];
        if (in.tick()) {
          out->Op(pipeline.Heartbeat(in.ts), "ingest heartbeat");
          continue;
        }
        {
          Span span("ingest.offer", i);
          out->Op(pipeline.Offer(port, in.tuple), "ingest offer");
        }
        if (i % 64 == 0) buffered_max = std::max(buffered_max, pipeline.buffered());
      }
      const Tracer::Totals offer = tracer.Get("ingest.offer");
      out->layer["ingest.offer_ns"] = tracer.SelfPerCall("ingest.offer", 1);
      out->layer["ingest.allocs_per_event"] =
          offer.calls > 0 ? static_cast<double>(offer.allocs) /
                                static_cast<double>(offer.calls)
                          : 0;
      out->layer["ingest.pass_ratio"] =
          static_cast<double>(delivered) / static_cast<double>(events_);
      out->layer["ingest.buffered_max"] = static_cast<double>(buffered_max);
      out->Check(delivered == distinct_,
                 "standalone ingest delivered " + std::to_string(delivered) +
                     " of " + std::to_string(distinct_) + " distinct reads");
    }

    WalAppendReplay(inputs_, workdir_ + "/dock-dedup-wal", out);

    // durable-sharded's latency tail is not steady enough to be a
    // benchmark workload on a shared 4-CPU machine, so the ShardedEngine
    // layers are measured here: traced rounds of the durable-sharded mix
    // and its layer replays, keeping only the core.sharded.* metrics.
    Outcome sharded;
    auto durable = MakeDurableSharded(seed_, workdir_, shards_);
    durable->Round(/*paced=*/false, &sharded);
    durable->Round(/*paced=*/false, &sharded);
    durable->LayerMetrics(&sharded);
    for (const auto& [name, value] : sharded.layer) {
      if (name.rfind("core.sharded.", 0) == 0) out->layer[name] = value;
    }
    out->attempted += sharded.attempted;
    out->failed += sharded.failed;
    for (std::string& e : sharded.errors) out->errors.push_back("durable-sharded replay: " + e);
    for (std::string& e : sharded.op_errors) out->op_errors.push_back(e);
  }

 private:
  std::unique_ptr<Engine> Build(TupleCallback on_emit, Outcome* out) {
    auto engine = std::make_unique<Engine>(DedupOptions());
    out->Op(engine->ExecuteScript(kDedupScript), "setup");
    out->Op(engine->Subscribe("cleaned_readings", std::move(on_emit)),
            "subscribe");
    return engine;
  }

  void Send(Engine* engine, size_t i, Outcome* out) {
    const Input& in = inputs_[i];
    if (in.tick()) {
      Span span("core.advance", i);
      out->Op(engine->AdvanceTime(in.ts), "advance");
    } else {
      Span span("core.push", i);
      out->Op(engine->PushTuple(stream_, in.tuple), "push");
    }
  }

  void Feed(Engine* engine, Pacer* pacer, size_t begin, size_t end,
            Outcome* out) {
    for (size_t i = begin; i < end; ++i) {
      pacer->Wait(i, [] {});
      Send(engine, i, out);
      if (i % 4096 == 0) out->SampleRss();
    }
  }

  void CheckDelivered(std::vector<uint64_t>* got, Outcome* out) const {
    std::sort(got->begin(), got->end());
    out->Check(*got == expected_,
               "dedup delivered " + std::to_string(got->size()) +
                   " readings; expected exactly the " +
                   std::to_string(expected_.size()) +
                   " distinct readings once each");
  }

  uint32_t seed_;
  std::string workdir_;
  size_t shards_;
  const std::string stream_ = "readings";
  std::vector<Input> inputs_;
  std::vector<Timestamp> prefix_max_;
  std::vector<uint64_t> expected_;
  size_t distinct_ = 0;
  size_t events_ = 0;
  rfid::NoiseStats noise_;
};

}  // namespace

std::unique_ptr<Workload> MakeDockDedup(uint32_t seed,
                                        const std::string& workdir,
                                        size_t shards) {
  return std::make_unique<DockDedup>(seed, workdir, shards);
}

}  // namespace e2e
