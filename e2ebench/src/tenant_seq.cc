// tenant-seq: a QueryServer over one Engine. Four tenants each register
// two formatting variants of the paper's three standing SEQ queries, so
// every shared plan fans each match out to eight outboxes:
//   ex6  SEQ(C1..C4) with per-product tag joins, MODE RECENT, 30 s window;
//   ex7  packing SEQ(R1*, R2) MODE CHRONICLE with COUNT(R1*);
//   ex5  EXCEPTION_SEQ(A1, A2, A3) with active expiration driven by
//        clock ticks.
// A register/unregister trickle (churn) runs during every round. The
// history matcher and serve dispatch + drain do most of the work; sql
// and analysis run through registration.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "rfid/workloads.h"
#include "serve/serve_host.h"
#include "serve/server.h"
#include "sql/parser.h"

namespace e2e {
namespace {

using namespace eslev;

constexpr char kDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
  CREATE STREAM C4(readerid, tagid, tagtime);
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
  CREATE STREAM A1(staffid, tagid, tagtime);
  CREATE STREAM A2(staffid, tagid, tagtime);
  CREATE STREAM A3(staffid, tagid, tagtime);
)sql";

enum Query { kEx6 = 0, kEx7 = 1, kEx5 = 2, kNumQueries = 3 };
constexpr const char* kQueryNames[kNumQueries] = {"ex6_recent", "ex7_chronicle",
                                                  "ex5_exception"};
// "{}" marks where formatting variants insert whitespace.
constexpr const char* kQueries[kNumQueries] = {
    "SELECT{}C4.tagid, C1.tagtime, C4.tagtime{}FROM C1, C2, C3, C4 WHERE "
    "SEQ(C1, C2, C3, C4) OVER [30 SECONDS PRECEDING C4] MODE RECENT AND "
    "C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid",
    "SELECT{}FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime{}FROM R1, "
    "R2 WHERE SEQ(R1*, R2) MODE CHRONICLE AND R2.tagtime - "
    "LAST(R1*).tagtime <= 5 SECONDS AND R1.tagtime - R1.previous.tagtime "
    "<= 1 SECONDS",
    "SELECT{}A1.tagid, A2.tagid, A3.tagid, A1.tagtime{}FROM A1, A2, A3 "
    "WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [2500 MILLISECONDS FOLLOWING A1]",
};
constexpr Duration kEx5Window = Milliseconds(2500);

// The event time an emission is due by. A timeout alert carries the time
// of its last partial read; it is due once the clock passes the deadline
// (A1.tagtime + window), so the window length stays out of its latency.
Timestamp DueEventTime(Query q, const Tuple& t) {
  if (q != kEx5 || !t.value(2).is_null()) return t.ts();
  auto a1 = t.value(3).AsInt64();
  return a1.ok() ? *a1 + kEx5Window : t.ts();
}

constexpr int kTenants = 4;
constexpr int kVariantsPerTenant = 2;
constexpr size_t kProducts = 1000;  // one per second of event time
constexpr size_t kChurnEvery = 1000;  // inputs between churn actions
constexpr double kPacedRate = 8000;  // inputs per second
constexpr Duration kTickPeriod = Seconds(4);

std::string Variant(Query q, int v) {
  const std::string pad(static_cast<size_t>(v % 4) + 1, ' ');
  std::string sql = kQueries[q];
  for (size_t pos; (pos = sql.find("{}")) != std::string::npos;) {
    sql.replace(pos, 2, pad);
  }
  return sql;
}

EngineOptions HostOptions() {
  EngineOptions options;
  options.honor_batch_env = false;
  options.honor_ingest_env = false;
  return options;
}

struct Sub {
  int tenant = 0;
  Query query = kEx6;
  std::vector<uint64_t> digests;
  std::vector<int64_t> case_counts;  // ex7: COUNT(R1*) per match
};

struct ChurnCheck {
  size_t sub;
  size_t from;
  size_t to;
};

// One serving stack: the host engine, its adapter and the server.
struct Stack {
  Engine engine{HostOptions()};
  EngineHost host{&engine};
  QueryServer server{&host};
  std::vector<Session> sessions;
  std::vector<uint64_t> next_seq;
};

class TenantSeq : public Workload {
 public:
  TenantSeq(uint32_t seed, std::string workdir) : workdir_(std::move(workdir)) {
    rfid::QualityCheckWorkloadOptions quality;
    quality.num_products = kProducts;
    quality.stage_delay = Seconds(2);
    quality.product_interval = Seconds(1);
    quality.drop_rate = 0.1;
    quality.seed = seed;
    rfid::Workload q = rfid::MakeQualityCheckWorkload(quality);
    expected_[kEx6] = q.expected_events;

    const Duration span = static_cast<Duration>(kProducts) * Seconds(1);
    rfid::PackingWorkloadOptions packing;
    packing.num_cases = static_cast<size_t>(span / Milliseconds(6500));
    packing.seed = seed + 101;
    rfid::PackingWorkload p = rfid::MakePackingWorkload(packing);
    expected_[kEx7] = p.expected_events;
    case_sizes_.assign(p.case_sizes.begin(), p.case_sizes.end());

    rfid::LabWorkflowWorkloadOptions lab;
    // Clean rounds last 1 s and timeouts 3.25 s: about 1.45 s per round.
    lab.num_rounds = static_cast<size_t>(span / Milliseconds(1450));
    lab.wrong_order_rate = 0;
    lab.wrong_start_rate = 0;
    lab.timeout_rate = 0.2;
    lab.step_delay = Milliseconds(250);
    lab.window = kEx5Window;
    lab.round_gap = Milliseconds(250);
    lab.seed = seed + 202;
    rfid::Workload l = rfid::MakeLabWorkflowWorkload(lab);
    expected_[kEx5] = l.expected_exceptions;
    lab_rounds_ = lab.num_rounds;

    std::vector<rfid::TimedReading> all;
    for (rfid::Workload* w : {&q, static_cast<rfid::Workload*>(&p), &l}) {
      for (auto& e : w->events) all.push_back(std::move(e));
    }
    std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.tuple.ts() < b.tuple.ts();
    });
    for (auto& e : all) {
      Input in;
      in.stream = &*streams_.insert(e.stream).first;
      in.ts = e.tuple.ts();
      in.tuple = std::move(e.tuple);
      inputs_.push_back(std::move(in));
    }
    events_ = inputs_.size();
    // A timeout fires at the first tick past its deadline. Ticks 4 s apart
    // spread that wait over about 30 inputs, so the latency tail it sets
    // moves in small steps from seed to seed.
    AddTicks(&inputs_, kTickPeriod, Minutes(1));
    prefix_max_ = PrefixMaxEventTime(inputs_);
  }

  std::string Describe() const override {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "tenant-seq: %zu reader events + %zu clock ticks (one per %lld s) "
        "per round (%zu quality products, %zu packing cases, %zu lab rounds "
        "with %zu timeouts); %d tenants x %d variants of 3 queries = %d "
        "registrations on 3 shared plans; churn: one register and one "
        "unregister per %zu inputs; paced at %.0f inputs/s",
        events_, inputs_.size() - events_,
        static_cast<long long>(kTickPeriod / kSecond), kProducts,
        case_sizes_.size(), lab_rounds_, expected_[kEx5], kTenants,
        kVariantsPerTenant, kTenants * kVariantsPerTenant * kNumQueries,
        kChurnEvery, kPacedRate);
    return buf;
  }

  void MeasureSetup(Outcome* out) override {
    StartRound();
    const int64_t s0 = NowNs();
    Stack stack;
    SetUp(&stack, out);
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
  }

  void Round(bool paced, Outcome* out) override {
    Pacer pacer(paced ? kPacedRate : 0);
    LatencyClock latency(&prefix_max_, &pacer, &out->latency_ns);
    StartRound();
    const int64_t s0 = NowNs();
    Stack stack;
    SetUp(&stack, out);
    out->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);

    const bool traced = GlobalTracer().enabled();
    pacer.Start();
    const int64_t t0 = NowNs();
    int active_churn = -1;  // sub index of the live churn registration
    size_t churn_from = 0, churns = 0;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      pacer.Wait(i, [] {});
      Send(&stack, i, out);
      DrainAll(&stack, paced ? &latency : nullptr, i, out);
      if (i % kChurnEvery == kChurnEvery / 2 && active_churn < 0) {
        const Query q = static_cast<Query>(churns % kNumQueries);
        const int tenant = static_cast<int>(churns % kTenants);
        active_churn = static_cast<int>(subs_.size());
        churn_from = subs_[ref_[q]].digests.size();
        Register(&stack, tenant, q, static_cast<int>(churns + 2), i, out);
        ++churns;
      } else if (i % kChurnEvery == 0 && active_churn >= 0) {
        Unregister(&stack, static_cast<size_t>(active_churn), i, out);
        churn_checks_.push_back({static_cast<size_t>(active_churn), churn_from,
                                 subs_[ref_[subs_[active_churn].query]]
                                     .digests.size()});
        active_churn = -1;
      }
      if (i % 4096 == 0) out->SampleRss();
    }
    const int64_t t1 = NowNs();
    out->SampleRss();
    if (active_churn >= 0) {
      Unregister(&stack, static_cast<size_t>(active_churn), inputs_.size(), out);
      churn_checks_.push_back({static_cast<size_t>(active_churn), churn_from,
                               subs_[ref_[subs_[active_churn].query]]
                                   .digests.size()});
    }
    if (!paced) {
      out->throughput_eps.push_back(static_cast<double>(events_) * 1e9 /
                                    static_cast<double>(t1 - t0));
    }
    out->max_send_lateness_ns =
        std::max(out->max_send_lateness_ns, pacer.max_lateness_ns());
    if (traced) {
      auto snap = stack.server.Metrics();
      out->Op(snap.status(), "metrics");
      if (snap.ok()) {
        out->layer["serve.plan_cache_hits"] =
            SumMetric(*snap, "serve.plan_cache.hits");
        out->layer["serve.plan_cache_misses"] =
            SumMetric(*snap, "serve.plan_cache.misses");
      }
      for (int q = 0; q < kNumQueries; ++q) {
        traced_emissions_ += subs_[ref_[q]].digests.size();
      }
    }
    CheckOutputs(out);
  }

  void CrashRound(Outcome* out) override {
    const std::string dir = workdir_ + "/tenant-seq";
    ResetDir(dir);
    StartRound();
    const size_t cut = inputs_.size() / 2;
    const size_t crash = inputs_.size() * 4 / 5;
    {
      Stack stack;
      SetUp(&stack, out);
      out->Op(stack.server.EnableWal(dir + "/wal.log", {}), "enable wal");
      for (size_t i = 0; i < crash; ++i) {
        Send(&stack, i, out);
        DrainAll(&stack, nullptr, i, out);
        if (i + 1 == cut) {
          Span span("recovery.checkpoint");
          out->Op(stack.server.Checkpoint(dir), "checkpoint");
          out->checkpoint_bytes.push_back(
              static_cast<double>(CheckpointBytes(dir)));
        }
      }
    }
    std::unique_ptr<Stack> stack;
    std::vector<double> times;
    for (int r = 0; r < kRecoveries; ++r) {
      stack.reset();
      const int64_t r0 = NowNs();
      stack = std::make_unique<Stack>();
      {
        Span span("recovery.recover");
        out->Op(stack->server.RecoverFrom(dir), "recover");
      }
      for (int t = 0; t < kTenants; ++t) {
        auto session = stack->server.AttachSession(TenantName(t));
        out->Op(session.status(), "attach session");
        stack->sessions.push_back(session.ok() ? *session : Session());
        stack->next_seq.push_back(0);
      }
      times.push_back(static_cast<double>(NowNs() - r0) / 1e9);
      auto snap = stack->server.Metrics();
      out->Op(snap.status(), "metrics");
      if (snap.ok()) {
        out->replay_eps.push_back(
            SumMetric(*snap, "recovery.wal_records_replayed") / times.back());
      }
    }
    out->recovery_s.push_back(Median(times));
    for (size_t i = crash; i < inputs_.size(); ++i) {
      Send(stack.get(), i, out);
      DrainAll(stack.get(), nullptr, i, out);
    }
    out->SampleRss();
    CheckOutputs(out);
  }

  void LayerMetrics(Outcome* out) override {
    const Tracer& tracer = GlobalTracer();
    out->layer["serve.push_ns"] = tracer.SelfPerCall("serve.push", 1);
    out->layer["core.advance_ns"] = tracer.SelfPerCall("core.advance", 1);
    out->layer["serve.register_us"] = tracer.SelfPerCall("serve.register", 1e3);
    out->layer["serve.unregister_us"] =
        tracer.SelfPerCall("serve.unregister", 1e3);
    const Tracer::Totals push = tracer.Get("serve.push");
    const Tracer::Totals drain = tracer.Get("serve.drain");
    const double deliveries = static_cast<double>(traced_deliveries_);
    if (deliveries > 0) {
      out->layer["serve.drain_ns"] = static_cast<double>(drain.self_ns) / deliveries;
      out->layer["serve.allocs_per_delivery"] =
          static_cast<double>(push.allocs + drain.allocs) / deliveries;
    }
    if (traced_emissions_ > 0) {
      out->layer["serve.fanout"] =
          deliveries / static_cast<double>(traced_emissions_);
    }

    // Registration front half: parse and admission pricing per statement.
    std::vector<std::string> statements;
    for (int q = 0; q < kNumQueries; ++q) {
      for (int v = 0; v < kTenants * kVariantsPerTenant; ++v) {
        statements.push_back(Variant(static_cast<Query>(q), v));
      }
    }
    Engine pricing(HostOptions());
    out->Op(pricing.ExecuteScript(kDdl), "ddl");
    for (int rep = 0; rep < 20; ++rep) {
      for (const std::string& sql : statements) {
        {
          Span span("sql.parse");
          out->Op(ParseStatement(sql).status(), "parse");
        }
        Span span("analysis.admission");
        out->Op(pricing.AnalyzeCost(sql).status(), "admission");
      }
    }
    out->layer["sql.parse_us"] = tracer.SelfPerCall("sql.parse", 1e3);
    out->layer["analysis.admission_us"] =
        tracer.SelfPerCall("analysis.admission", 1e3);

    // Each standing query alone on a bare Engine, over the whole trace.
    for (int q = 0; q < kNumQueries; ++q) {
      Engine engine(HostOptions());
      out->Op(engine.ExecuteScript(kDdl), "ddl");
      out->Op(engine.RegisterQuery(Variant(static_cast<Query>(q), 0)).status(),
              "register");
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < inputs_.size(); ++i) SendBare(&engine, i, out);
      out->layer[std::string("cep.") + kQueryNames[q] + ".ns_per_event"] =
          static_cast<double>(NowNs() - t0) / static_cast<double>(events_);
    }

    // Retained matcher state with all three queries registered once.
    {
      Engine engine(HostOptions());
      out->Op(engine.ExecuteScript(kDdl), "ddl");
      for (int q = 0; q < kNumQueries; ++q) {
        out->Op(engine.RegisterQuery(Variant(static_cast<Query>(q), 0)).status(),
                "register");
      }
      double retained_peak = 0;
      for (size_t i = 0; i < inputs_.size(); ++i) {
        SendBare(&engine, i, out);
        if (i % 256 == 0) {
          const MetricsSnapshot snap = engine.Metrics();
          retained_peak = std::max(retained_peak,
                                   SumMetric(snap, ".retained_history") +
                                       SumMetric(snap, ".partial_level"));
        }
      }
      out->layer["cep.retained_peak"] = retained_peak;
    }

    WalAppendReplay(inputs_, workdir_ + "/tenant-seq-wal", out);
  }

 private:
  static std::string TenantName(int t) { return Named('t', t); }
  static std::string SubName(size_t index) { return Named('s', index); }
  // GCC 12 reports a bogus -Wrestrict on "literal" + std::to_string().
  template <typename N>
  static std::string Named(char prefix, N n) {
    std::string name(1, prefix);
    name += std::to_string(n);
    return name;
  }

  void StartRound() {
    subs_.clear();
    churn_checks_.clear();
  }

  void SetUp(Stack* stack, Outcome* out) {
    out->Op(stack->server.ExecuteScript(kDdl), "ddl");
    TenantQuotas quotas;
    quotas.allow_unbounded_state = true;  // ex7's star buffer is unbounded
    for (int t = 0; t < kTenants; ++t) {
      auto session = stack->server.OpenSession(TenantName(t), quotas);
      out->Op(session.status(), "open session");
      stack->sessions.push_back(session.ok() ? *session : Session());
      stack->next_seq.push_back(0);
    }
    for (int q = 0; q < kNumQueries; ++q) {
      ref_[q] = subs_.size();
      for (int t = 0; t < kTenants; ++t) {
        for (int v = 0; v < kVariantsPerTenant; ++v) {
          Register(stack, t, static_cast<Query>(q), t * kVariantsPerTenant + v,
                   0, out);
        }
      }
    }
    permanent_ = subs_.size();
  }

  void Register(Stack* stack, int tenant, Query q, int variant, size_t input,
                Outcome* out) {
    const size_t index = subs_.size();
    subs_.push_back({tenant, q, {}, {}});
    Span span("serve.register", input);
    out->Op(stack->sessions[static_cast<size_t>(tenant)]
                .Register(SubName(index), Variant(q, variant))
                .status(),
            "register");
  }

  void Unregister(Stack* stack, size_t index, size_t input, Outcome* out) {
    Span span("serve.unregister", input);
    out->Op(stack->sessions[static_cast<size_t>(subs_[index].tenant)].Unregister(
                SubName(index)),
            "unregister");
  }

  void Send(Stack* stack, size_t i, Outcome* out) {
    const Input& in = inputs_[i];
    if (in.tick()) {
      Span span("core.advance", i);
      out->Op(stack->server.AdvanceTime(in.ts), "advance");
    } else {
      Span span("serve.push", i);
      out->Op(stack->server.PushTuple(*in.stream, in.tuple), "push");
    }
  }

  void SendBare(Engine* engine, size_t i, Outcome* out) {
    const Input& in = inputs_[i];
    out->Op(in.tick() ? engine->AdvanceTime(in.ts)
                      : engine->PushTuple(*in.stream, in.tuple),
            in.tick() ? "advance" : "push");
  }

  // The consumer: drain every tenant with pending results after each
  // input. Each delivered emission is one operation; a sequence gap is a
  // dropped (failed) delivery.
  void DrainAll(Stack* stack, LatencyClock* latency, size_t input,
                Outcome* out) {
    const bool traced = GlobalTracer().enabled();
    for (size_t t = 0; t < stack->sessions.size(); ++t) {
      Session& session = stack->sessions[t];
      if (session.pending() == 0) continue;
      uint64_t& next = stack->next_seq[t];
      Span span("serve.drain", input);
      auto drained = session.Drain([&](const ServedEmission& e) {
        if (e.seq != next) {
          out->FailedOps(e.seq > next ? e.seq - next : 1, "outbox gap");
        }
        next = e.seq + 1;
        const size_t index =
            static_cast<size_t>(std::strtoul(e.query.c_str() + 1, nullptr, 10));
        if (index >= subs_.size()) {
          out->Check(false, "emission for unknown query " + e.query);
          return;
        }
        Sub& sub = subs_[index];
        if (latency != nullptr) {
          latency->Record(DueEventTime(sub.query, e.tuple));
        }
        sub.digests.push_back(TupleDigest(e.tuple));
        if (sub.query == kEx7) {
          auto count = e.tuple.value(1).AsInt64();
          sub.case_counts.push_back(count.ok() ? *count : -1);
        }
      });
      if (!drained.ok()) {
        out->Op(drained.status(), "drain");
        continue;
      }
      out->Ops(*drained);
      if (traced) traced_deliveries_ += *drained;
    }
  }

  void CheckOutputs(Outcome* out) {
    for (int q = 0; q < kNumQueries; ++q) {
      const Sub& ref = subs_[ref_[q]];
      out->Check(ref.digests.size() == expected_[q],
                 std::string(kQueryNames[q]) + " delivered " +
                     std::to_string(ref.digests.size()) + " matches, expected " +
                     std::to_string(expected_[q]));
    }
    out->Check(subs_[ref_[kEx7]].case_counts == case_sizes_,
               "ex7 COUNT(R1*) differs from the generated case sizes");
    for (size_t i = 0; i < permanent_; ++i) {
      if (subs_[i].digests != subs_[ref_[subs_[i].query]].digests) {
        out->Check(false, "subscriber " + SubName(i) +
                              " of a shared plan received a different "
                              "sequence");
      }
    }
    for (const ChurnCheck& c : churn_checks_) {
      const auto& ref = subs_[ref_[subs_[c.sub].query]].digests;
      const bool same =
          c.to <= ref.size() && c.from <= c.to &&
          std::equal(ref.begin() + static_cast<std::ptrdiff_t>(c.from),
                     ref.begin() + static_cast<std::ptrdiff_t>(c.to),
                     subs_[c.sub].digests.begin(), subs_[c.sub].digests.end());
      out->Check(same, "churn subscriber " + SubName(c.sub) +
                           " did not receive exactly the plan's emissions "
                           "while it was registered");
    }
  }

  std::string workdir_;
  std::set<std::string> streams_;
  std::vector<Input> inputs_;
  std::vector<Timestamp> prefix_max_;
  size_t events_ = 0;
  size_t expected_[kNumQueries] = {};
  size_t lab_rounds_ = 0;
  std::vector<int64_t> case_sizes_;

  std::vector<Sub> subs_;
  size_t ref_[kNumQueries] = {};
  size_t permanent_ = 0;
  std::vector<ChurnCheck> churn_checks_;
  uint64_t traced_deliveries_ = 0;
  uint64_t traced_emissions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantSeq(uint32_t seed,
                                        const std::string& workdir) {
  return std::make_unique<TenantSeq>(seed, workdir);
}

}  // namespace e2e
