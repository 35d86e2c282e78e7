#ifndef RSTORE_PERFBENCH_WORKLOADS_H_
#define RSTORE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/trace.h"
#include "core/chunk_cache.h"
#include "core/rstore.h"
#include "counting_kvstore.h"
#include "kvstore/cluster.h"
#include "oracle.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace perfbench {

enum class Workload { kCheckout, kInteractive, kIngest };

/// "checkout" / "interactive" / "ingest"; false for anything else.
bool ParseWorkload(const std::string& name, Workload* out);

/// Independent datasets per run, each in its own store. How compressible a
/// branched tree is, and how many chunks its versions span, hinge on a few
/// early branch points, so one tree's figures vary widely from seed to
/// seed; several trees per run average that out.
inline constexpr size_t kDatasets = 8;

/// All datasets of a run, generated from its seed: branched version trees
/// of ~1 KB JSON records.
std::vector<rstore::workload::GeneratedDataset> GenerateDatasets(
    uint64_t seed);

/// One query of a run's stream and the store (dataset) it goes to.
struct TaggedQuery {
  size_t store = 0;
  rstore::workload::Query query;
};

/// The seeded query stream of `workload`: each dataset's own stream,
/// interleaved round-robin.
std::vector<TaggedQuery> StreamFor(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    Workload workload, uint64_t seed);

/// The oracle's answer to every query of `stream` (see Oracle).
std::vector<Answer> ExpectedAnswers(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    const std::vector<TaggedQuery>& stream);

/// The stores of a run, all on one simulated cluster (4 nodes, rf = 1),
/// each with its own tables; optionally behind a CountingKVStore (traced
/// runs only). `interactive` gives them one shared chunk cache.
struct StoreSet {
  std::unique_ptr<rstore::Cluster> cluster;
  std::unique_ptr<CountingKVStore> counting;  // null unless requested
  std::shared_ptr<rstore::ChunkCache> cache;  // null unless interactive
  /// Runs the ingest pipeline's shards on one thread (null unless ingest).
  std::unique_ptr<rstore::Executor> ingest_executor;
  std::vector<rstore::Options> options;
  std::vector<std::unique_ptr<rstore::RStore>> stores;

  rstore::KVStore* backend() const;
  /// Empties the shared cache (no-op without one).
  void ClearCache() const;
  /// Backend bytes (keys + values) of every store's chunk and index tables.
  uint64_t StoredBytes() const;
};

/// Opens one empty store per dataset with the workload's options: k = 5
/// delta sub-chunks, LZ, BOTTOM-UP, chunk capacity a tenth of a version;
/// the cache (a fifth of the user bytes, about half the stored chunk
/// bytes) for `interactive`; for `ingest`, four ingest shards scheduled on
/// a virtual-time executor, one OS thread.
rstore::Result<StoreSet> OpenStores(
    const std::vector<rstore::workload::GeneratedDataset>& datasets,
    Workload workload, bool counting);

/// A dataset replayed commit by commit: one CommitDelta per version, in
/// version order, against its primary parent.
struct CommitPlan {
  std::vector<rstore::VersionId> parents;
  std::vector<rstore::CommitDelta> deltas;
  uint64_t records = 0;  // upserts across all commits
};
CommitPlan PlanCommits(const rstore::workload::GeneratedDataset& gen);

/// Commits `plan` (consumed) to `store` and flushes. `trace` collects the
/// drains' write.* spans. Fails unless every commit gets the dataset's
/// version id.
rstore::Status ReplayCommits(rstore::RStore* store, CommitPlan plan,
                             rstore::TraceContext* trace);

/// One synchronous query call: its answer, accounting and wall time (the
/// call alone; fingerprinting happens after the clock stops).
struct SyncOutcome {
  Answer answer;
  rstore::QueryStats stats;
  int64_t wall_ns = 0;
};
SyncOutcome RunSync(rstore::RStore* store,
                    const rstore::workload::Query& query,
                    rstore::TraceContext* trace);

/// A closed-loop replay through the asynchronous API with `concurrency`
/// queries in flight on `executor`'s virtual clock.
struct AsyncRun {
  std::vector<Answer> answers;  // by stream index
  std::vector<rstore::QueryStats> stats;
  uint64_t makespan_us = 0;
};
AsyncRun RunAsync(const StoreSet& set, rstore::Executor* executor,
                  const std::vector<TaggedQuery>& queries,
                  uint32_t concurrency);

/// queue_wait + service + retry_penalty - hedge_delta == simulated_micros.
bool AttributionHolds(const rstore::QueryStats& stats);

}  // namespace perfbench

#endif  // RSTORE_PERFBENCH_WORKLOADS_H_
