// Golden test for the read path's observable behaviour.
//
// Every query a store answers is fixed by what it returns (records or an
// error), what it costs (every QueryStats counter), what the cluster
// charged for it (KVStats) and the simulated span tree it leaves in its
// trace. This test replays a fixed query mix against a five-node rf=3
// cluster for every partitioner, with the chunk cache off and on, fault-free
// and under five seeded chaos schedules (transient errors, latency spikes,
// crash windows, hedged reads and a request timeout), through three
// schedulers: the blocking API, the async API with one query in flight, and
// the async API with four in flight. Each replay is reduced to four digests
// (results + statuses, per-query stats, span trees without wall-clock
// fields, cluster KVStats) and compared with read_path_golden.inc.
//
// To regenerate after a deliberate behaviour change, run the test with
// RSTORE_PRINT_READ_PATH_GOLDEN=1 and paste the printed table into
// read_path_golden.inc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/trace.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

using testing::BuildReplayQueries;
using testing::Digest;
using testing::ExampleData;
using testing::MakeChain;
using testing::SerializeRecords;

struct ReadPathGolden {
  const char* algorithm;
  bool cached;
  uint64_t fault_seed;  // 0 = fault-free
  const char* mode;     // "sync", "async1" or "async4"
  uint64_t failed_queries;
  uint64_t retries;
  uint64_t hedges;
  uint64_t timeouts;
  uint64_t results_digest;
  uint64_t stats_digest;
  uint64_t spans_digest;
  uint64_t kv_digest;
};

constexpr ReadPathGolden kGolden[] = {
#include "read_path_golden.inc"
};

constexpr PartitionAlgorithm kAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};
constexpr uint64_t kFaultSeeds[] = {0, 1, 2, 3, 4, 5};
constexpr const char* kModes[] = {"sync", "async1", "async4"};

/// Five nodes at rf=3 with hedging and a request timeout on every run; a
/// nonzero `fault_seed` adds the chaos suite's schedule (transient errors and
/// 20x latency spikes everywhere, crash windows on two nodes). A spiked
/// attempt outlives the 6 ms deadline, so it is either saved by a hedge
/// issued at 3 ms or times out and fails over.
ClusterOptions MakeClusterOptions(uint64_t fault_seed) {
  ClusterOptions o;
  o.num_nodes = 5;
  o.replication_factor = 3;
  o.latency.hedge_threshold_us = 3000;
  o.retry.max_attempts = 4;
  o.retry.request_timeout_us = 6000;
  if (fault_seed != 0) {
    FaultInjectorOptions& f = o.faults;
    f.seed = fault_seed;
    f.default_profile.transient_error_rate = 0.04;
    f.default_profile.slow_rate = 0.2;
    f.default_profile.slow_multiplier = 20.0;
    f.per_node[1] = f.default_profile;
    f.per_node[1].crash_windows = {{10, 40}, {90, 130}};
    f.per_node[3] = f.default_profile;
    f.per_node[3].crash_windows = {{25, 70}};
  }
  return o;
}

/// What one query left behind: its status and records, its QueryStats and
/// its trace.
struct QueryOutcome {
  std::string result;
  QueryStats stats;
  std::unique_ptr<TraceContext> trace = std::make_unique<TraceContext>();
};

std::string ResultOf(const Status& status, const std::string& records) {
  return status.ok() ? "ok:" + records : "error:" + status.ToString();
}

void RunSync(RStore* store, const workload::Query& q, QueryOutcome* out) {
  TraceContext* trace = out->trace.get();
  switch (q.kind) {
    case workload::Query::Kind::kFullVersion: {
      auto r = store->GetVersion(q.version, &out->stats, trace);
      out->result = ResultOf(r.status(), r.ok() ? SerializeRecords(*r) : "");
      break;
    }
    case workload::Query::Kind::kRange: {
      auto r = store->GetRange(q.version, q.key_lo, q.key_hi, &out->stats,
                               trace);
      out->result = ResultOf(r.status(), r.ok() ? SerializeRecords(*r) : "");
      break;
    }
    case workload::Query::Kind::kEvolution: {
      auto r = store->GetHistory(q.key, &out->stats, trace);
      out->result = ResultOf(r.status(), r.ok() ? SerializeRecords(*r) : "");
      break;
    }
    case workload::Query::Kind::kPoint: {
      auto r = store->GetRecord(q.key, q.version, &out->stats, trace);
      out->result = ResultOf(r.status(), r.ok() ? SerializeRecords({*r}) : "");
      break;
    }
  }
}

/// Submits one query through the async API; `done` runs at completion.
void SubmitAsync(RStore* store, Executor* executor, const workload::Query& q,
                 QueryOutcome* out, std::function<void()> done) {
  TraceContext* trace = out->trace.get();
  auto on_records = [out, done](const AsyncQueryResult& r) {
    out->stats = r.stats;
    out->result = ResultOf(r.status, SerializeRecords(r.records));
    done();
  };
  switch (q.kind) {
    case workload::Query::Kind::kFullVersion:
      store->GetVersionAsync(executor, q.version, trace).OnReady(on_records);
      break;
    case workload::Query::Kind::kRange:
      store->GetRangeAsync(executor, q.version, q.key_lo, q.key_hi, trace)
          .OnReady(on_records);
      break;
    case workload::Query::Kind::kEvolution:
      store->GetHistoryAsync(executor, q.key, trace).OnReady(on_records);
      break;
    case workload::Query::Kind::kPoint:
      store->GetRecordAsync(executor, q.key, q.version, trace)
          .OnReady([out, done](const AsyncRecordResult& r) {
            out->stats = r.stats;
            out->result = ResultOf(
                r.status, r.status.ok() ? SerializeRecords({r.record}) : "");
            done();
          });
      break;
  }
}

ReadPathGolden Replay(PartitionAlgorithm algorithm, bool cached,
                      uint64_t fault_seed, const char* mode) {
  ReadPathGolden g{PartitionAlgorithmName(algorithm), cached, fault_seed, mode,
                   0, 0, 0, 0, 0, 0, 0, 0};
  ExampleData data = MakeChain(24, 16, 4);
  Cluster cluster(MakeClusterOptions(fault_seed));
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 700;
  if (cached) options.cache_capacity_bytes = 8 << 10;
  auto store = RStore::Open(&cluster, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return g;
  EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  const std::vector<workload::Query> queries =
      BuildReplayQueries(data.dataset, /*seed=*/42, /*passes=*/3);
  std::vector<QueryOutcome> outcomes(queries.size());
  if (std::strcmp(mode, "sync") == 0) {
    for (size_t i = 0; i < queries.size(); ++i) {
      RunSync(store->get(), queries[i], &outcomes[i]);
    }
  } else {
    // Closed loop: `window` queries in flight, each completion submits the
    // next one in list order.
    const size_t window = std::strcmp(mode, "async1") == 0 ? 1 : 4;
    Executor executor;
    size_t next = 0;
    std::function<void()> submit_next = [&] {
      if (next >= queries.size()) return;
      const size_t i = next++;
      SubmitAsync(store->get(), &executor, queries[i], &outcomes[i],
                  submit_next);
    };
    for (size_t i = 0; i < window; ++i) submit_next();
    executor.RunUntilIdle();
    EXPECT_EQ(next, queries.size());
  }

  Digest results, stats, spans;
  for (const QueryOutcome& o : outcomes) {
    results.Add(o.result);
    if (o.result.rfind("error:", 0) == 0) ++g.failed_queries;
    for (const QueryStats::Field& field : kQueryStatsFields) {
      stats.Add(o.stats.*field.member);
    }
    spans.Add(o.trace->spans().size());
    for (const TraceSpan& span : o.trace->spans()) {
      spans.Add(span.name);
      spans.Add(span.parent);
      spans.Add(span.depth);
      spans.Add(span.sim_start_us);
      spans.Add(span.sim_end_us);
      for (const auto& [key, value] : span.attributes) {
        spans.Add(key);
        spans.Add(value);
      }
    }
  }
  const KVStats kv = cluster.stats();
  Digest kv_digest;
  for (uint64_t v :
       {kv.gets, kv.puts, kv.deletes, kv.multiget_batches, kv.keys_requested,
        kv.bytes_read, kv.bytes_written, kv.simulated_micros, kv.retries,
        kv.hedges, kv.hedge_wins, kv.timeouts, kv.handoff_hints,
        kv.handoff_replays, kv.queue_wait_us, kv.service_us,
        kv.retry_penalty_us, kv.hedge_delta_us}) {
    kv_digest.Add(v);
  }
  g.retries = kv.retries;
  g.hedges = kv.hedges;
  g.timeouts = kv.timeouts;
  g.results_digest = results.value();
  g.stats_digest = stats.value();
  g.spans_digest = spans.value();
  g.kv_digest = kv_digest.value();
  return g;
}

TEST(ReadPathGoldenTest, EveryPartitionerCacheModeFaultSeedAndScheduler) {
  const bool print = std::getenv("RSTORE_PRINT_READ_PATH_GOLDEN") != nullptr;
  size_t index = 0;
  for (PartitionAlgorithm algorithm : kAlgorithms) {
    for (bool cached : {false, true}) {
      for (uint64_t fault_seed : kFaultSeeds) {
        for (const char* mode : kModes) {
          const ReadPathGolden got =
              Replay(algorithm, cached, fault_seed, mode);
          if (print) {
            std::printf(
                "    {\"%s\", %s, %llu, \"%s\", %llu, %llu, %llu, %llu, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull},\n",
                got.algorithm, got.cached ? "true" : "false",
                static_cast<unsigned long long>(got.fault_seed), got.mode,
                static_cast<unsigned long long>(got.failed_queries),
                static_cast<unsigned long long>(got.retries),
                static_cast<unsigned long long>(got.hedges),
                static_cast<unsigned long long>(got.timeouts),
                static_cast<unsigned long long>(got.results_digest),
                static_cast<unsigned long long>(got.stats_digest),
                static_cast<unsigned long long>(got.spans_digest),
                static_cast<unsigned long long>(got.kv_digest));
            ++index;
            continue;
          }
          SCOPED_TRACE(std::string(got.algorithm) +
                       (cached ? " cached" : " uncached") + " fault_seed=" +
                       std::to_string(fault_seed) + " " + mode);
          ASSERT_LT(index, std::size(kGolden));
          const ReadPathGolden& want = kGolden[index++];
          ASSERT_STREQ(want.algorithm, got.algorithm);
          ASSERT_EQ(want.cached, got.cached);
          ASSERT_EQ(want.fault_seed, got.fault_seed);
          ASSERT_STREQ(want.mode, got.mode);
          EXPECT_EQ(want.failed_queries, got.failed_queries);
          EXPECT_EQ(want.retries, got.retries);
          EXPECT_EQ(want.hedges, got.hedges);
          EXPECT_EQ(want.timeouts, got.timeouts);
          EXPECT_EQ(want.results_digest, got.results_digest);
          EXPECT_EQ(want.stats_digest, got.stats_digest);
          EXPECT_EQ(want.spans_digest, got.spans_digest);
          EXPECT_EQ(want.kv_digest, got.kv_digest);
        }
      }
    }
  }
  if (!print) {
    EXPECT_EQ(index, std::size(kGolden));
  }
}

// The chaos entries exercise what they claim to: every one of them retried,
// hedged and timed out somewhere, and the fault-free ones never did.
TEST(ReadPathGoldenTest, ChaosEntriesRetryHedgeAndTimeOut) {
  for (const ReadPathGolden& g : kGolden) {
    SCOPED_TRACE(std::string(g.algorithm) + " fault_seed=" +
                 std::to_string(g.fault_seed) + " " + g.mode);
    if (g.fault_seed == 0) {
      EXPECT_EQ(g.retries + g.timeouts, 0u);
    } else {
      EXPECT_GT(g.retries, 0u);
      EXPECT_GT(g.hedges, 0u);
      EXPECT_GT(g.timeouts, 0u);
    }
  }
}

}  // namespace
}  // namespace rstore
