#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_set>

#include "common/hash.h"
#include "workload/traffic.h"

namespace perfbench {

using rstore::QueryStats;
using rstore::RStore;
using rstore::Status;
using rstore::workload::Query;

namespace {

// Shape of each dataset.
constexpr uint32_t kVersions = 100;
constexpr uint32_t kRecordsPerVersion = 500;
constexpr uint32_t kRecordBytes = 1000;
constexpr double kBranchProbability = 0.25;
constexpr double kUpdateFraction = 0.05;
constexpr double kPd = 0.05;
constexpr uint32_t kSubChunkRecords = 5;  // k
constexpr uint32_t kNodes = 4;
constexpr uint32_t kIngestShards = 4;
/// Chunk cache budget of `interactive`, as a share of unique user bytes:
/// about half of what the stores keep in their chunk tables.
constexpr double kCacheShareOfUserBytes = 0.2;

/// Independent sub-seeds of the run seed, so datasets and query streams do
/// not share a random sequence.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return rstore::Mix64(seed * 0x9e3779b97f4a7c15ull + stream) | 1;
}

rstore::workload::TrafficOptions TrafficFor(Workload workload) {
  rstore::workload::TrafficOptions traffic;
  traffic.zipf_theta = 0.8;  // newest versions hottest
  switch (workload) {
    case Workload::kCheckout:
      // Full checkouts (Q1) and wide partial checkouts (Q2, a quarter of
      // the keys). Q1 is the majority so the median sits inside one class.
      traffic.num_queries = 100;
      traffic.weight_full = 3;
      traffic.weight_range = 1;
      traffic.weight_evolution = 0;
      traffic.weight_point = 0;
      traffic.range_selectivity = 0.25;
      break;
    case Workload::kInteractive:
      traffic.num_queries = 1000;
      traffic.weight_full = 0;
      traffic.weight_range = 10;
      traffic.weight_evolution = 15;
      traffic.weight_point = 75;
      traffic.range_selectivity = 0.01;
      break;
    case Workload::kIngest:
      // Read-back of the ingested stores: checkouts, as on `checkout`, so
      // the online layout's version span shows, over every version alike.
      traffic.zipf_theta = 0.01;
      traffic.num_queries = 25;
      traffic.weight_full = 3;
      traffic.weight_range = 1;
      traffic.weight_evolution = 0;
      traffic.weight_point = 0;
      traffic.range_selectivity = 0.25;
      break;
  }
  return traffic;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "checkout") {
    *out = Workload::kCheckout;
  } else if (name == "interactive") {
    *out = Workload::kInteractive;
  } else if (name == "ingest") {
    *out = Workload::kIngest;
  } else {
    return false;
  }
  return true;
}

std::vector<rstore::workload::GeneratedDataset> GenerateDatasets(
    uint64_t seed) {
  std::vector<rstore::workload::GeneratedDataset> out;
  for (size_t part = 0; part < kDatasets; ++part) {
    rstore::workload::DatasetConfig config;
    config.name = "perfbench";
    config.num_versions = kVersions;
    config.records_per_version = kRecordsPerVersion;
    config.record_size_bytes = kRecordBytes;
    config.branch_probability = kBranchProbability;
    config.update_fraction = kUpdateFraction;
    config.pd = kPd;
    config.seed = SubSeed(seed, 1 + part);
    out.push_back(rstore::workload::GenerateDataset(config));
  }
  return out;
}

std::vector<TaggedQuery> StreamFor(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    Workload workload, uint64_t seed) {
  std::vector<std::vector<Query>> per_store;
  for (size_t part = 0; part < datasets.size(); ++part) {
    rstore::workload::TrafficOptions traffic = TrafficFor(workload);
    traffic.seed = SubSeed(seed, 100 + part);
    per_store.push_back(
        rstore::workload::GenerateTraffic(datasets[part].dataset, traffic));
  }
  std::vector<TaggedQuery> out;
  for (size_t i = 0; i < per_store.front().size(); ++i) {
    for (size_t part = 0; part < per_store.size(); ++part) {
      out.push_back(TaggedQuery{part, per_store[part][i]});
    }
  }
  return out;
}

std::vector<Answer> ExpectedAnswers(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    const std::vector<TaggedQuery>& stream) {
  std::vector<Oracle> oracles;
  for (const auto& gen : datasets) {
    oracles.emplace_back(&gen.dataset, &gen.payloads);
  }
  std::vector<Answer> expected;
  expected.reserve(stream.size());
  for (const TaggedQuery& q : stream) {
    expected.push_back(oracles[q.store].Expect(q.query));
  }
  return expected;
}

rstore::KVStore* StoreSet::backend() const {
  if (counting != nullptr) return counting.get();
  return cluster.get();
}

void StoreSet::ClearCache() const {
  if (cache != nullptr) cache->Clear();
}

uint64_t StoreSet::StoredBytes() const {
  uint64_t bytes = 0;
  for (const rstore::Options& o : options) {
    for (const std::string& table : {o.chunk_table, o.index_table}) {
      Status s = cluster->Scan(table, [&](rstore::Slice k, rstore::Slice v) {
        bytes += k.size() + v.size();
      });
      if (!s.ok()) return 0;
    }
  }
  return bytes;
}

rstore::Result<StoreSet> OpenStores(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    Workload workload, bool counting) {
  StoreSet set;
  rstore::ClusterOptions cluster_options;
  cluster_options.num_nodes = kNodes;
  cluster_options.replication_factor = 1;
  set.cluster = std::make_unique<rstore::Cluster>(cluster_options);
  if (counting) {
    set.counting = std::make_unique<CountingKVStore>(set.cluster.get());
  }
  if (workload == Workload::kIngest) {
    set.ingest_executor = std::make_unique<rstore::Executor>(0);
  }
  if (workload == Workload::kInteractive) {
    uint64_t user_bytes = 0;
    for (const auto& gen : datasets) {
      user_bytes += gen.stats.unique_record_bytes;
    }
    set.cache = std::make_shared<rstore::ChunkCache>(static_cast<uint64_t>(
        kCacheShareOfUserBytes * static_cast<double>(user_bytes)));
  }
  for (size_t part = 0; part < datasets.size(); ++part) {
    const rstore::workload::GeneratedDataset& gen = datasets[part];
    rstore::Options options;
    options.algorithm = rstore::PartitionAlgorithm::kBottomUp;
    options.compression = rstore::CompressionType::kLZ;
    options.max_sub_chunk_records = kSubChunkRecords;
    // The paper's regime: ~1 MB chunks against ~10 MB versions, so a full
    // version spans ten or more chunks. Scale the capacity to a tenth of
    // the average version.
    const uint64_t record_bytes =
        gen.stats.unique_records == 0
            ? kRecordBytes
            : gen.stats.unique_record_bytes / gen.stats.unique_records;
    options.chunk_capacity_bytes = std::max<uint64_t>(
        4096, gen.stats.avg_records_per_version * record_bytes / 10);
    options.chunk_cache = set.cache;
    if (workload == Workload::kIngest) {
      // The sharded pipeline, on one thread: on a host whose cores other
      // tenants share, four worker threads made the ingest rate vary by a
      // third from run to run; one thread keeps it within a tenth. The
      // plan, and so the stored bytes, are those of four threads.
      options.ingest_shards = kIngestShards;
      options.ingest_executor = set.ingest_executor.get();
    }
    const std::string suffix = std::to_string(part);
    options.chunk_table.append("_").append(suffix);
    options.index_table.append("_").append(suffix);
    auto store = RStore::Open(set.backend(), options);
    if (!store.ok()) return store.status();
    set.stores.push_back(std::move(store).value());
    set.options.push_back(options);
  }
  return set;
}

CommitPlan PlanCommits(const rstore::workload::GeneratedDataset& gen) {
  CommitPlan plan;
  const rstore::VersionedDataset& ds = gen.dataset;
  plan.parents.reserve(ds.graph.size());
  plan.deltas.reserve(ds.graph.size());
  for (rstore::VersionId v = 0; v < ds.graph.size(); ++v) {
    const rstore::VersionDelta& d = ds.deltas[v];
    rstore::CommitDelta delta;
    std::unordered_set<std::string> upserted;
    for (const rstore::CompositeKey& ck : d.added) {
      upserted.insert(ck.key);
      delta.upserts.push_back(rstore::Record{ck, gen.payloads.at(ck)});
    }
    // An updated record appears in both lists; its removal is implied by
    // the upsert of the same primary key.
    for (const rstore::CompositeKey& ck : d.removed) {
      if (upserted.count(ck.key) == 0) delta.deletes.push_back(ck.key);
    }
    plan.records += delta.upserts.size();
    plan.parents.push_back(v == 0 ? rstore::kInvalidVersion
                                  : ds.graph.PrimaryParent(v));
    plan.deltas.push_back(std::move(delta));
  }
  return plan;
}

Status ReplayCommits(RStore* store, CommitPlan plan,
                     rstore::TraceContext* trace) {
  for (size_t v = 0; v < plan.deltas.size(); ++v) {
    auto r = store->Commit(plan.parents[v], std::move(plan.deltas[v]), trace);
    if (!r.ok()) return r.status();
    if (r.value() != v) {
      return Status::Corruption("commit " + std::to_string(v) +
                                " got version " + std::to_string(r.value()));
    }
  }
  return store->Flush(trace);
}

SyncOutcome RunSync(RStore* store, const Query& q,
                    rstore::TraceContext* trace) {
  using Clock = std::chrono::steady_clock;
  SyncOutcome out;
  const auto start = Clock::now();
  auto stop = [&] {
    out.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  };
  switch (q.kind) {
    case Query::Kind::kFullVersion: {
      auto r = store->GetVersion(q.version, &out.stats, trace);
      stop();
      out.answer = Observe(r);
      break;
    }
    case Query::Kind::kRange: {
      auto r = store->GetRange(q.version, q.key_lo, q.key_hi, &out.stats,
                               trace);
      stop();
      out.answer = Observe(r);
      break;
    }
    case Query::Kind::kEvolution: {
      auto r = store->GetHistory(q.key, &out.stats, trace);
      stop();
      out.answer = Observe(r);
      break;
    }
    case Query::Kind::kPoint: {
      auto r = store->GetRecord(q.key, q.version, &out.stats, trace);
      stop();
      out.answer = Observe(r);
      break;
    }
  }
  return out;
}

AsyncRun RunAsync(const StoreSet& set, rstore::Executor* executor,
                  const std::vector<TaggedQuery>& queries,
                  uint32_t concurrency) {
  struct Shared {
    AsyncRun run;
    size_t next = 0;
    uint64_t last_us = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->run.answers.resize(queries.size());
  shared->run.stats.resize(queries.size());
  const uint64_t first_us = executor->now_us();

  // Heap-held so completions can submit the next query; the self-cycle is
  // broken after the drain.
  auto submit = std::make_shared<std::function<void(size_t)>>();
  *submit = [&, shared, submit](size_t i) {
    auto done = [&, shared, submit, i](const Answer& answer,
                                        const QueryStats& stats) {
      shared->run.answers[i] = answer;
      shared->run.stats[i] = stats;
      shared->last_us = std::max(shared->last_us, executor->now_us());
      if (shared->next < queries.size()) (*submit)(shared->next++);
    };
    auto records_done = [done](const rstore::AsyncQueryResult& r) {
      done(r.status.ok() ? ObserveRecords(r.records)
                         : Answer{r.status.code(), 0, 0, 0},
           r.stats);
    };
    RStore* store = set.stores[queries[i].store].get();
    const Query& q = queries[i].query;
    switch (q.kind) {
      case Query::Kind::kFullVersion:
        store->GetVersionAsync(executor, q.version).OnReady(records_done);
        break;
      case Query::Kind::kRange:
        store->GetRangeAsync(executor, q.version, q.key_lo, q.key_hi)
            .OnReady(records_done);
        break;
      case Query::Kind::kEvolution:
        store->GetHistoryAsync(executor, q.key).OnReady(records_done);
        break;
      case Query::Kind::kPoint:
        store->GetRecordAsync(executor, q.key, q.version)
            .OnReady([done](const rstore::AsyncRecordResult& r) {
              done(r.status.ok() ? ObserveRecords({r.record})
                                 : Answer{r.status.code(), 0, 0, 0},
                   r.stats);
            });
        break;
    }
  };
  const size_t initial =
      std::min<size_t>(std::max<uint32_t>(concurrency, 1), queries.size());
  shared->next = initial;
  for (size_t i = 0; i < initial; ++i) (*submit)(i);
  executor->RunUntilIdle();
  *submit = nullptr;
  shared->run.makespan_us = shared->last_us - first_us;
  return std::move(shared->run);
}

bool AttributionHolds(const QueryStats& s) {
  return s.queue_wait_us + s.service_us + s.retry_penalty_us -
             s.hedge_delta_us ==
         s.simulated_micros;
}

}  // namespace perfbench
