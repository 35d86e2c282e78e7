// Self-tests of the benchmark's helpers: the percentile rule, the counting
// KVStore wrapper's transparency, and the oracle.
//
//   cmake --build <build dir> --target perfbench_test && <build dir>/perfbench_test

#include <gtest/gtest.h>

#include "counting_kvstore.h"
#include "layers.h"
#include "kvstore/cluster.h"
#include "oracle.h"
#include "stats.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rstore::workload::Query;

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, TailIsP99WhenTenSamplesLieBeyond) {
  const Percentile p = TailPercentile(Iota(1000));
  EXPECT_DOUBLE_EQ(p.p, 99.0);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(p.count, 1000u);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(PercentileTest, TailDropsBelowP99ToKeepTenBeyond) {
  // 500 samples: p99 would leave 5 above it, so the highest percentile
  // with ten beyond is rank 490, p98.
  const Percentile p = TailPercentile(Iota(500));
  EXPECT_DOUBLE_EQ(p.p, 98.0);
  EXPECT_DOUBLE_EQ(p.value, 490.0);
  EXPECT_EQ(p.count, 500u);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(PercentileTest, TailOfOddSizedSampleKeepsTenBeyond) {
  const Percentile p = TailPercentile(Iota(37));
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_DOUBLE_EQ(p.value, 27.0);
  EXPECT_NEAR(p.p, 100.0 * 27 / 37, 1e-9);
}

TEST(PercentileTest, TooSmallSampleReportsMaximumWithNothingBeyond) {
  const Percentile p = TailPercentile(Iota(10));
  EXPECT_DOUBLE_EQ(p.p, 100.0);
  EXPECT_DOUBLE_EQ(p.value, 10.0);
  EXPECT_EQ(p.count, 10u);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(PercentileTest, MedianIsNearestRankAndOrderFree) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  const Percentile p = Median(v);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_EQ(p.count, 5u);
  EXPECT_EQ(p.beyond, 2u);
  EXPECT_DOUBLE_EQ(Median({7, 1, 9, 3}).value, 3.0);
}

using Datasets = std::vector<rstore::workload::GeneratedDataset>;

/// Two small branched datasets (the benchmark's own are larger).
Datasets SmallDatasets() {
  Datasets out;
  for (uint64_t seed : {7, 8}) {
    rstore::workload::DatasetConfig config;
    config.num_versions = 24;
    config.records_per_version = 120;
    config.record_size_bytes = 300;
    config.branch_probability = 0.25;
    config.insert_fraction = 0.02;
    config.delete_fraction = 0.02;
    config.seed = seed;
    out.push_back(rstore::workload::GenerateDataset(config));
  }
  return out;
}

StoreSet LoadedStores(const Datasets& gens, Workload workload, bool counting) {
  auto set = OpenStores(gens, workload, counting);
  EXPECT_TRUE(set.ok());
  for (size_t i = 0; i < gens.size(); ++i) {
    EXPECT_TRUE(
        set->stores[i]->BulkLoad(gens[i].dataset, gens[i].payloads).ok());
  }
  return std::move(set).value();
}

/// Runs `stream` on freshly loaded stores and returns each query's
/// outcome; with `counting`, the stores run behind a CountingKVStore.
std::vector<SyncOutcome> LoadAndQuery(const Datasets& gens, Workload workload,
                                      bool counting,
                                      const std::vector<TaggedQuery>& stream,
                                      CallCounters* counters = nullptr,
                                      rstore::KVStats* kv_stats = nullptr) {
  StoreSet set = LoadedStores(gens, workload, counting);
  if (counting) set.counting->ResetCounters();
  const rstore::KVStats before = set.cluster->stats();
  std::vector<SyncOutcome> out;
  for (const TaggedQuery& q : stream) {
    out.push_back(RunSync(set.stores[q.store].get(), q.query, nullptr));
  }
  if (counters != nullptr) *counters = set.counting->counters();
  if (kv_stats != nullptr) {
    const rstore::KVStats after = set.cluster->stats();
    kv_stats->multiget_batches =
        after.multiget_batches - before.multiget_batches;
    kv_stats->keys_requested = after.keys_requested - before.keys_requested;
  }
  return out;
}

TEST(CountingKVStoreTest, WrapperLeavesSimulatedTimeAndResultsUnchanged) {
  const Datasets gens = SmallDatasets();
  for (Workload w : {Workload::kCheckout, Workload::kInteractive}) {
    const std::vector<TaggedQuery> stream = StreamFor(gens, w, 3);
    CallCounters counters;
    rstore::KVStats kv;
    const auto plain = LoadAndQuery(gens, w, false, stream);
    const auto wrapped = LoadAndQuery(gens, w, true, stream, &counters, &kv);
    ASSERT_EQ(plain.size(), wrapped.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].answer, wrapped[i].answer) << "query " << i;
      EXPECT_EQ(plain[i].stats.simulated_micros,
                wrapped[i].stats.simulated_micros)
          << "query " << i;
      EXPECT_EQ(plain[i].stats.bytes_fetched, wrapped[i].stats.bytes_fetched);
    }
    // The wrapper's own tallies agree with the cluster's counters.
    EXPECT_EQ(counters.multiget_calls, kv.multiget_batches);
    EXPECT_EQ(counters.multiget_keys, kv.keys_requested);
    EXPECT_GT(counters.read_wall_ns, 0);
  }
}

TEST(CountingKVStoreTest, WrapperLeavesAsyncReplayUnchanged) {
  const Datasets gens = SmallDatasets();
  const std::vector<TaggedQuery> stream =
      StreamFor(gens, Workload::kInteractive, 5);
  std::vector<AsyncRun> runs;
  for (bool counting : {false, true}) {
    StoreSet set = LoadedStores(gens, Workload::kInteractive, counting);
    rstore::Executor executor(0);
    runs.push_back(RunAsync(set, &executor, stream, 4));
  }
  EXPECT_EQ(runs[0].makespan_us, runs[1].makespan_us);
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(runs[0].answers[i], runs[1].answers[i]);
    EXPECT_EQ(runs[0].stats[i].simulated_micros,
              runs[1].stats[i].simulated_micros);
  }
}

TEST(CountingKVStoreTest, CapturesChunkBodiesTheCodecReplayCanDecode) {
  const Datasets gens = SmallDatasets();
  StoreSet set = LoadedStores(gens, Workload::kCheckout, true);
  set.counting->CaptureTables(rstore::Options().chunk_table, 1 << 20);
  for (const TaggedQuery& q : StreamFor(gens, Workload::kCheckout, 4)) {
    RunSync(set.stores[q.store].get(), q.query, nullptr);
  }
  ASSERT_FALSE(set.counting->captured().empty());
  CodecReplay replay;
  ASSERT_TRUE(ReplayCodecs(set.counting->captured(), 1, &replay).ok());
  EXPECT_GT(replay.sub_chunks, 0u);
  EXPECT_GT(replay.lz_output_bytes, 0u);
  EXPECT_GT(replay.deltas_applied, 0u);
}

TEST(OracleTest, AgreesWithTheStoreOnEveryQueryClass) {
  const Datasets gens = SmallDatasets();
  for (Workload w :
       {Workload::kCheckout, Workload::kInteractive, Workload::kIngest}) {
    const std::vector<TaggedQuery> stream = StreamFor(gens, w, 11);
    const auto outcomes = LoadAndQuery(gens, w, false, stream);
    const std::vector<Answer> expected = ExpectedAnswers(gens, stream);
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(expected[i], outcomes[i].answer) << "query " << i;
    }
  }
}

TEST(OracleTest, PointLookupOfAbsentKeyIsNotFoundOnBothSides) {
  const Datasets gens = SmallDatasets();
  // A key deleted by a version (and not re-added by it) is absent there.
  TaggedQuery q;
  q.query.kind = Query::Kind::kPoint;
  const rstore::VersionedDataset& ds = gens[0].dataset;
  for (size_t v = 1; v < ds.deltas.size() && q.query.key.empty(); ++v) {
    for (const rstore::CompositeKey& removed : ds.deltas[v].removed) {
      bool re_added = false;
      for (const rstore::CompositeKey& added : ds.deltas[v].added) {
        re_added |= added.key == removed.key;
      }
      if (!re_added) {
        q.query.key = removed.key;
        q.query.version = static_cast<rstore::VersionId>(v);
        break;
      }
    }
  }
  ASSERT_FALSE(q.query.key.empty());
  const Answer expected = ExpectedAnswers(gens, {q})[0];
  EXPECT_EQ(expected.code, rstore::Status::Code::kNotFound);
  EXPECT_EQ(expected,
            LoadAndQuery(gens, Workload::kInteractive, false, {q})[0].answer);
}

TEST(OracleTest, DetectsAWrongAnswer) {
  const Datasets gens = SmallDatasets();
  Oracle oracle(&gens[0].dataset, &gens[0].payloads);
  Query q;
  q.kind = Query::Kind::kFullVersion;
  q.version = 3;
  Answer right = oracle.Expect(q);
  q.version = 4;
  EXPECT_NE(right, oracle.Expect(q));
}

TEST(IngestTest, CommitReplayReproducesTheDatasets) {
  const Datasets gens = SmallDatasets();
  auto set = OpenStores(gens, Workload::kIngest, false);
  ASSERT_TRUE(set.ok());
  for (size_t i = 0; i < gens.size(); ++i) {
    ASSERT_TRUE(
        ReplayCommits(set->stores[i].get(), PlanCommits(gens[i]), nullptr)
            .ok());
  }
  const std::vector<TaggedQuery> stream =
      StreamFor(gens, Workload::kIngest, 2);
  const std::vector<Answer> expected = ExpectedAnswers(gens, stream);
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(expected[i],
              RunSync(set->stores[stream[i].store].get(), stream[i].query,
                      nullptr)
                  .answer);
  }
}

}  // namespace
}  // namespace perfbench
