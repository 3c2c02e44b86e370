#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

namespace eslev {

// Reaches into a shard's mailbox: posts a command without waiting for
// it, and reads the queue's backlog.
class ShardedEngineTestPeer {
 public:
  static void Post(ShardedEngine* engine, size_t shard,
                   std::function<Status(Engine&)> fn) {
    ShardedEngine::Item item;
    item.kind = ShardedEngine::Item::Kind::kCommand;
    item.command = std::move(fn);
    engine->shards_[shard]->queue.Push(std::move(item));
  }
  static size_t Backlog(const ShardedEngine& engine, size_t shard) {
    return engine.shards_[shard]->queue.ApproxSize();
  }
};

namespace {

constexpr const char* kReadingsDdl =
    "CREATE STREAM readings(reader_id, tag_id, read_time);";

Status PushReading(ShardedEngine* engine, const std::string& reader,
                   const std::string& tag, Timestamp ts) {
  return engine->Push(
      "readings",
      {Value::String(reader), Value::String(tag), Value::Time(ts)}, ts);
}

TEST(ShardedEngineTest, PartitionsByTagColumnByDefault) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());

  // Same tag from different readers must land on one shard; many tags
  // must spread across shards.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        PushReading(&engine, "rd" + std::to_string(i % 4), "tag_fixed",
                    Seconds(i))
            .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  auto counts = engine.shard_tuple_counts();
  EXPECT_EQ(std::count_if(counts.begin(), counts.end(),
                          [](uint64_t c) { return c > 0; }),
            1);

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(PushReading(&engine, "rd", "tag" + std::to_string(i),
                            Seconds(100 + i))
                    .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  counts = engine.shard_tuple_counts();
  EXPECT_GE(std::count_if(counts.begin(), counts.end(),
                          [](uint64_t c) { return c > 0; }),
            2);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
            32u + 64u);
}

TEST(ShardedEngineTest, SetPartitionKeyOverridesColumn) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  ASSERT_TRUE(engine.SetPartitionKey("readings", "reader_id").ok());

  // Now one reader with many tags pins to a single shard.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(PushReading(&engine, "reader_fixed",
                            "tag" + std::to_string(i), Seconds(i))
                    .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  auto counts = engine.shard_tuple_counts();
  EXPECT_EQ(std::count_if(counts.begin(), counts.end(),
                          [](uint64_t c) { return c > 0; }),
            1);

  EXPECT_TRUE(engine.SetPartitionKey("readings", "no_such_col").IsNotFound());
  EXPECT_TRUE(engine.SetPartitionKey("no_such_stream", "tag_id").IsNotFound());
}

TEST(ShardedEngineTest, DedupPipelineWorksAcrossShards) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned(reader_id, tag_id, read_time);
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
  )sql")
                  .ok());
  std::vector<std::string> kept;
  ASSERT_TRUE(engine
                  .Subscribe("cleaned",
                             [&](const Tuple& t) {
                               kept.push_back(t.value(1).string_value());
                             })
                  .ok());
  // 20 distinct tags, each read 3 times within the window.
  for (int i = 0; i < 20; ++i) {
    const std::string tag = "tag" + std::to_string(i);
    const Timestamp base = Seconds(i * 2);
    for (int d = 0; d < 3; ++d) {
      ASSERT_TRUE(
          PushReading(&engine, "rd", tag, base + d * Milliseconds(100)).ok());
    }
  }
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), 20u);
  EXPECT_EQ(kept.size(), 20u);
  std::set<std::string> distinct(kept.begin(), kept.end());
  EXPECT_EQ(distinct.size(), 20u);
}

TEST(ShardedEngineTest, DrainMergesAcrossShardsByTimestamp) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  std::vector<Timestamp> seen;
  ASSERT_TRUE(engine
                  .Subscribe("readings",
                             [&](const Tuple& t) { seen.push_back(t.ts()); })
                  .ok());
  // Many tags -> many shards; timestamps globally increasing.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        PushReading(&engine, "rd", "tag" + std::to_string(i), Seconds(i))
            .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), 50u);
  ASSERT_EQ(seen.size(), 50u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(ShardedEngineTest, WatermarkHeartbeatReachesIdleShards) {
  // EXCEPTION_SEQ timeout (active expiration) on a single-shard workflow
  // must fire from a heartbeat even though no tuple ever reaches the
  // other shards — and none arrives on the workflow's shard after the
  // partial either.
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE EXCEPTION_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  for (const char* s : {"A1", "A2", "A3"}) {
    ASSERT_TRUE(engine.SetSingleShard(s).ok());
  }
  size_t alerts = 0;
  ASSERT_TRUE(
      engine.Subscribe(q->output_stream, [&](const Tuple&) { ++alerts; })
          .ok());

  auto op = [&](const std::string& stream, const std::string& tag,
                Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String("staff"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  op("A1", "opA", Minutes(0));
  op("A2", "opB", Minutes(10));
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(alerts, 0u);

  // The timeout is detected purely by the watermark-driven heartbeat.
  ASSERT_TRUE(engine.AdvanceTime(Minutes(120)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(alerts, 1u);
  EXPECT_EQ(engine.low_watermark(), Minutes(120));
}

TEST(ShardedEngineTest, LowWatermarkWaitsForSlowestProducer) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE EXCEPTION_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  for (const char* s : {"A1", "A2", "A3"}) {
    ASSERT_TRUE(engine.SetSingleShard(s).ok());
  }
  size_t alerts = 0;
  ASSERT_TRUE(
      engine.Subscribe(q->output_stream, [&](const Tuple&) { ++alerts; })
          .ok());

  const int fast = engine.RegisterProducer();
  const int slow = engine.RegisterProducer();

  ASSERT_TRUE(engine
                  .Push("A1",
                        {Value::String("staff"), Value::String("opA"),
                         Value::Time(Minutes(0))},
                        Minutes(0))
                  .ok());
  // The fast producer races far ahead; the slow one lags before the
  // deadline, so the low watermark must NOT trigger the timeout.
  ASSERT_TRUE(engine.AdvanceProducer(fast, Minutes(500)).ok());
  ASSERT_TRUE(engine.AdvanceProducer(slow, Minutes(30)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(alerts, 0u);
  EXPECT_EQ(engine.low_watermark(), Minutes(30));

  // Once the slowest producer passes the deadline, the violation fires.
  ASSERT_TRUE(engine.AdvanceProducer(slow, Minutes(200)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(alerts, 1u);
  EXPECT_EQ(engine.low_watermark(), Minutes(200));
}

TEST(ShardedEngineTest, SnapshotGatherMergesAcrossShards) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  options.engine.default_retention = Hours(1);
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        PushReading(&engine, "rd", "tag" + std::to_string(i), Seconds(i))
            .ok());
  }
  auto rows = engine.ExecuteSnapshot("SELECT * FROM readings");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 40u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1].ts(), (*rows)[i].ts());
  }
}

TEST(ShardedEngineTest, PipelineErrorsSurfaceOnFlush) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  // A prebuilt tuple with the wrong arity slips past the coordinator
  // (PushTuple trusts prebuilt tuples) and fails inside the shard.
  Tuple bad(nullptr, {Value::String("rd"), Value::String("t")}, Seconds(1));
  ASSERT_TRUE(engine.PushTuple("readings", bad).ok());
  Status st = engine.Flush();
  EXPECT_FALSE(st.ok());

  EXPECT_TRUE(engine.Push("nope", {Value::Int(1)}, Seconds(2)).IsNotFound());
}

TEST(ShardedEngineTest, ConcurrentProducersKeepShardHistoriesOrdered) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  std::vector<Timestamp> seen;
  ASSERT_TRUE(engine
                  .Subscribe("readings",
                             [&](const Tuple& t) { seen.push_back(t.ts()); })
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Per-thread drifting clocks, like readers with skewed clocks.
        const Timestamp ts = Seconds(i) + t * Milliseconds(137);
        (void)engine.Push("readings",
                          {Value::String("rd" + std::to_string(t)),
                           Value::String("tag" + std::to_string(i % 64)),
                           Value::Time(ts)},
                          ts);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
  // Merged drain is globally timestamp-ordered even under racing
  // producers (per-shard clamping + timestamp merge).
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(ShardedEngineTest, MetricsReportBacklogBehindBusyWorker) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.honor_batch_env = false;  // one queue item per tuple
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  ASSERT_TRUE(engine.SetSingleShard("readings").ok());  // all to shard 0

  // Hold shard 0's worker until Metrics() queues its own command behind
  // the backlog, i.e. until after Metrics() has sampled the depths.
  constexpr size_t kBacklog = 5;
  std::atomic<bool> holding{false};
  ShardedEngineTestPeer::Post(&engine, 0, [&](Engine&) {
    holding = true;
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(30);
    while (ShardedEngineTestPeer::Backlog(engine, 0) <= kBacklog &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return Status::OK();
  });
  while (!holding) std::this_thread::yield();
  for (size_t i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(PushReading(&engine, "rd", "tag" + std::to_string(i),
                            Seconds(static_cast<int64_t>(i)))
                    .ok());
  }
  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at("sharded.shard0.queue_depth"),
            static_cast<int64_t>(kBacklog));
  EXPECT_EQ(snap->gauges.at("sharded.shard1.queue_depth"), 0);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.shard_tuple_counts()[0], kBacklog);
}

TEST(ShardedEngineTest, LateTupleIsClampedToTheShardClock) {
  // A tuple older than the shard clock is clamped forward, not rejected,
  // and the shard clock never moves back.
  ShardedEngineOptions options;
  options.num_shards = 1;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  std::vector<Timestamp> seen;
  ASSERT_TRUE(engine
                  .Subscribe("readings",
                             [&](const Tuple& t) { seen.push_back(t.ts()); })
                  .ok());
  ASSERT_TRUE(PushReading(&engine, "rd", "x", Seconds(100)).ok());
  ASSERT_TRUE(PushReading(&engine, "rd", "y", Seconds(1)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(seen, (std::vector<Timestamp>{Seconds(100), Seconds(100)}));
  auto clocks = engine.shard_clocks();
  ASSERT_TRUE(clocks.ok()) << clocks.status();
  EXPECT_EQ((*clocks)[0], Seconds(100));
}

TEST(ShardedEngineTest, StaleHeartbeatNeverMovesShardClockBack) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  ASSERT_TRUE(engine.AdvanceTime(Seconds(50)).ok());
  ASSERT_TRUE(engine.AdvanceTime(Seconds(10)).ok());  // stale: no error
  ASSERT_TRUE(engine.Flush().ok());
  auto clocks = engine.shard_clocks();
  ASSERT_TRUE(clocks.ok()) << clocks.status();
  for (Timestamp clock : *clocks) EXPECT_EQ(clock, Seconds(50));
}

TEST(ShardedEngineTest, SingleShardDegeneratesGracefully) {
  ShardedEngineOptions options;
  options.num_shards = 1;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kReadingsDdl).ok());
  size_t count = 0;
  ASSERT_TRUE(
      engine.Subscribe("readings", [&](const Tuple&) { ++count; }).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        PushReading(&engine, "rd", "tag" + std::to_string(i), Seconds(i))
            .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), 10u);
  EXPECT_EQ(count, 10u);
}

}  // namespace
}  // namespace eslev
