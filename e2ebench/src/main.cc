// ESL-EV end-to-end benchmark.
//
//   e2ebench --workload <dock-dedup|tenant-seq|durable-sharded>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>] [--shards <n>]
//
// --trace 0 measures the end-to-end metrics: an unpaced (closed-loop)
// pass for throughput, a paced (open-loop) pass for latency, and crash
// rounds for recovery time. --trace 1 alternates untraced and traced
// unpaced rounds, runs traced crash rounds and standalone layer replays,
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace e2e {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run prints; a layer the workload's
// path does not cross reads 0.
constexpr Metric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"analysis.admission_us", "us"},
    {"serve.register_us", "us"},
    {"serve.unregister_us", "us"},
    {"serve.push_ns", "ns"},
    {"serve.drain_ns", "ns"},
    {"serve.fanout", "ratio"},
    {"serve.plan_cache_hits", "count"},
    {"serve.plan_cache_misses", "count"},
    {"core.push_ns", "ns"},
    {"core.advance_ns", "ns"},
    {"core.sharded.push_ns", "ns"},
    {"core.sharded.tick_ns", "ns"},
    {"core.sharded.flush_ms", "ms"},
    {"core.sharded.drain_ns", "ns"},
    {"core.sharded.queue_depth_max", "count"},
    {"core.sharded.watermark_lag_us", "us"},
    {"core.sharded.shard_skew", "ratio"},
    {"ingest.offer_ns", "ns"},
    {"ingest.pass_ratio", "ratio"},
    {"ingest.buffered_max", "count"},
    {"exec.probes_per_tuple", "count"},
    {"exec.window_peak", "count"},
    {"cep.ex6_recent.ns_per_event", "ns"},
    {"cep.ex7_chronicle.ns_per_event", "ns"},
    {"cep.ex5_exception.ns_per_event", "ns"},
    {"cep.retained_peak", "count"},
    {"recovery.wal_append_ns", "ns"},
    {"recovery.wal_bytes_per_event", "B"},
    {"recovery.checkpoint_ms", "ms"},
    {"recovery.checkpoint_bytes", "B"},
    {"recovery.replay_eps", "1/s"},
    {"core.allocs_per_event", "count"},
    {"serve.allocs_per_delivery", "count"},
    {"ingest.allocs_per_event", "count"},
    {"recovery.allocs_per_record", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  size_t shards = 0;  // 0: nproc - 2, between 1 and 2
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--shards") {
      args->shards = std::strtoul(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || args->shards == 0) return false;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && argc % 2 == 1;
}

size_t DefaultShards() {
  const unsigned cpus = std::max(2u, std::thread::hardware_concurrency());
  // The generator thread plus the shard workers stay below nproc: with
  // every CPU busy, preemption of a lock holder stalls the generator for
  // milliseconds and the latency tail measures the scheduler.
  return std::clamp<size_t>(cpus - 2, 1, 2);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Extra set-up measurements after each round (build, set up, tear down),
// so setup_s is a median over many samples spread across the run.
constexpr int kSetupsPerRound = 2;

// Run whole rounds until `seconds` have passed (at least `min_rounds`).
template <typename Fn>
void RunFor(double seconds, int min_rounds, Fn&& round) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int rounds = 0;
  while (rounds < min_rounds || NowNs() < end) {
    round();
    ++rounds;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <dock-dedup|tenant-seq|"
                 "durable-sharded> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>] [--shards <n>]\n");
    return 2;
  }
  const std::string workdir =
      args.workdir + "/" + std::to_string(static_cast<long>(getpid()));
  ResetDir(workdir);

  std::unique_ptr<Workload> workload;
  const size_t shards = args.shards != 0 ? args.shards : DefaultShards();
  if (args.workload == "dock-dedup") {
    workload = MakeDockDedup(args.seed, workdir, shards);
  } else if (args.workload == "tenant-seq") {
    workload = MakeTenantSeq(args.seed, workdir);
  } else if (args.workload == "durable-sharded") {
    workload = MakeDurableSharded(args.seed, workdir, shards);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Outcome out;
  // Growing the sample buffer mid-round would copy megabytes on the
  // generator thread and stall the paced schedule.
  out.latency_ns.reserve(size_t{1} << 22);
  out.rss_base_kb = ResidentKb();
  out.rss_peak_kb = out.rss_base_kb;
  std::printf("workload %s seed %u seconds %g trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf("%s\n", workload->Describe().c_str());

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto emit = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  Tracer& tracer = GlobalTracer();
  const double s = args.seconds;

  if (!args.trace) {
    // The three kinds of round interleave, each kept near its share of
    // the run, so every metric samples the whole run.
    const double share[3] = {0.35, 0.45, 0.20};
    const int min_rounds[3] = {2, 1, 1};
    double spent[3] = {0, 0, 0};
    int rounds[3] = {0, 0, 0};
    std::vector<double> round_p50, round_p99;
    const int64_t start = NowNs();
    for (;;) {
      int kind = -1;
      for (int k = 0; k < 3 && kind < 0; ++k) {
        if (rounds[k] < min_rounds[k]) kind = k;
      }
      if (kind < 0) {
        if (static_cast<double>(NowNs() - start) / 1e9 >= s) break;
        kind = 0;
        for (int k = 1; k < 3; ++k) {
          if (spent[k] / share[k] < spent[kind] / share[kind]) kind = k;
        }
      }
      const size_t first_sample = out.latency_ns.size();
      const int64_t t0 = NowNs();
      if (kind == 2) {
        workload->CrashRound(&out);
      } else {
        workload->Round(/*paced=*/kind == 1, &out);
      }
      spent[kind] += static_cast<double>(NowNs() - t0) / 1e9;
      ++rounds[kind];
      if (kind == 1) {
        std::vector<int64_t> samples(out.latency_ns.begin() + static_cast<std::ptrdiff_t>(first_sample),
                                     out.latency_ns.end());
        if (samples.size() < 1000) {
          out.Check(false, "a paced round timed only " +
                               std::to_string(samples.size()) +
                               " emissions (< 1000)");
        }
        round_p50.push_back(static_cast<double>(Quantile(&samples, 0.50)) / 1e3);
        round_p99.push_back(static_cast<double>(Quantile(&samples, 0.99)) / 1e3);
      }
      for (int i = 0; i < kSetupsPerRound; ++i) workload->MeasureSetup(&out);
    }

    emit("throughput_eps", Median(out.throughput_eps), "events/s");
    emit("latency_p50_us", Median(round_p50), "us");
    emit("latency_p99_us", Median(round_p99), "us");
    emit("setup_s", Median(out.setup_s), "s");
    emit("recovery_s", Median(out.recovery_s), "s");
    emit("peak_rss_mb",
         static_cast<double>(out.rss_peak_kb - out.rss_base_kb) / 1024.0, "MB");
    std::vector<int64_t>& lat = out.latency_ns;
    const size_t samples = lat.size();
    std::printf(
        "rounds: %d unpaced, %d paced, %d crash; %zu set-ups; throughput and "
        "latency are medians over rounds\n",
        rounds[0], rounds[1], rounds[2], out.setup_s.size());
    std::printf(
        "paced emissions timed: %zu (%.0f per round, >= 10 beyond each "
        "round's p99); pooled p50 %.1f us, p99 %.1f us, p99.9 %.1f us, max "
        "%.1f us; generator max send lateness %.1f us\n",
        samples, static_cast<double>(samples) / rounds[1],
        static_cast<double>(Quantile(&lat, 0.50)) / 1e3,
        static_cast<double>(Quantile(&lat, 0.99)) / 1e3,
        static_cast<double>(Quantile(&lat, 0.999)) / 1e3,
        static_cast<double>(Quantile(&lat, 1.0)) / 1e3,
        static_cast<double>(out.max_send_lateness_ns) / 1e3);
  } else {
    std::vector<double> untraced, traced;
    RunFor(0.6 * s, 2, [&] {
      workload->Round(false, &out);
      untraced.push_back(out.throughput_eps.back());
      tracer.set_enabled(true);
      workload->Round(false, &out);
      tracer.set_enabled(false);
      traced.push_back(out.throughput_eps.back());
    });
    tracer.set_enabled(true);
    workload->LayerMetrics(&out);
    RunFor(0.15 * s, 1, [&] { workload->CrashRound(&out); });
    tracer.set_enabled(false);

    out.layer["recovery.checkpoint_ms"] =
        tracer.SelfPerCall("recovery.checkpoint", 1e6);
    out.layer["recovery.checkpoint_bytes"] = Median(out.checkpoint_bytes);
    out.layer["recovery.replay_eps"] = Median(out.replay_eps);
    out.layer["trace.overhead_ratio"] = Median(traced) / Median(untraced);
    for (const Metric& m : kLayerMetrics) {
      auto it = out.layer.find(m.name);
      emit(m.name, it == out.layer.end() ? 0.0 : it->second, m.unit);
    }
    std::printf("self time of the traced spans:\n%s",
                tracer.SelfTimeTable().c_str());
    std::error_code ec;
    std::filesystem::create_directories(args.workdir + "/../spans", ec);
    const std::string spans = args.workdir + "/../spans/" + args.workload +
                              "-seed" + std::to_string(args.seed) + ".tsv";
    const Status written = tracer.WriteSpans(spans);
    std::printf("spans: %s (%s)\n", spans.c_str(), written.ToString().c_str());
  }

  std::error_code ec;
  std::filesystem::remove_all(workdir, ec);

  for (const auto& [name, value] : metrics) {
    std::printf("%-34s %18.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& e : out.op_errors) {
    std::printf("failed operation: %s\n", e.c_str());
  }
  for (const std::string& e : out.errors) {
    std::printf("OUTPUT CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = out.errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            Num(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
