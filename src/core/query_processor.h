#ifndef RSTORE_CORE_QUERY_PROCESSOR_H_
#define RSTORE_CORE_QUERY_PROCESSOR_H_

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/chunk_cache.h"
#include "core/options.h"
#include "core/placement.h"
#include "core/record.h"
#include "core/store_catalog.h"
#include "kvstore/kv_store.h"
#include "version/dataset.h"

namespace rstore {

/// Per-query cost accounting: the number of chunks retrieved is the span
/// (paper §2.5, "the key performance metric"); simulated_micros is the
/// modeled backend latency the query incurred. With a chunk cache on the
/// read path, bytes_fetched/simulated_micros only reflect traffic that
/// actually reached the backend (misses), while chunks_fetched stays the
/// span — so cache_hits + cache_misses == chunks_fetched whenever a cache
/// is attached.
///
/// Counters are registered once in kQueryStatsFields below; aggregation
/// (operator+=) and generic reporting iterate that table, so adding a new
/// per-layer counter is a one-line change that no existing caller sees.
struct QueryStats {
  uint64_t chunks_fetched = 0;
  uint64_t bytes_fetched = 0;
  uint64_t simulated_micros = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Chunks a best-effort query could not fetch (always 0 in strict mode,
  /// where an unfetchable chunk is an error instead).
  uint64_t missing_chunks = 0;

  // Latency attribution: a decomposition of simulated_micros mirroring
  // KVStats. The conservation invariant
  //   queue_wait_us + service_us + retry_penalty_us - hedge_delta_us
  //     == simulated_micros
  // holds exactly for every query (all four stay zero against backends
  // that charge nothing, where simulated_micros is zero too).
  uint64_t queue_wait_us = 0;
  uint64_t service_us = 0;
  uint64_t retry_penalty_us = 0;
  uint64_t hedge_delta_us = 0;

  struct Field {
    const char* name;
    uint64_t QueryStats::* member;
  };

  inline QueryStats& operator+=(const QueryStats& other);
};

/// The counter registry: every QueryStats counter, exactly once.
inline constexpr QueryStats::Field kQueryStatsFields[] = {
    {"chunks_fetched", &QueryStats::chunks_fetched},
    {"bytes_fetched", &QueryStats::bytes_fetched},
    {"simulated_micros", &QueryStats::simulated_micros},
    {"cache_hits", &QueryStats::cache_hits},
    {"cache_misses", &QueryStats::cache_misses},
    {"missing_chunks", &QueryStats::missing_chunks},
    {"queue_wait_us", &QueryStats::queue_wait_us},
    {"service_us", &QueryStats::service_us},
    {"retry_penalty_us", &QueryStats::retry_penalty_us},
    {"hedge_delta_us", &QueryStats::hedge_delta_us},
};

/// Every QueryStats field is a uint64_t, so the struct's size is exactly one
/// table entry per field; this trips the moment someone adds a field without
/// registering it (and aggregation/reporting would silently drop it).
static_assert(sizeof(QueryStats) ==
                  std::size(kQueryStatsFields) * sizeof(uint64_t),
              "QueryStats field added without a kQueryStatsFields entry");

inline QueryStats& QueryStats::operator+=(const QueryStats& other) {
  for (const Field& field : kQueryStatsFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

/// What a best-effort query could not serve: the chunks whose body or map
/// fetch failed, with the backend's reasons. An empty report means the
/// result is complete (byte-identical to a strict run).
struct QueryDegradation {
  std::vector<ChunkId> missing_chunks;
  /// One human-readable reason per missing chunk, index-aligned.
  std::vector<std::string> messages;

  bool degraded() const { return !missing_chunks.empty(); }
};

/// Completion payload of an asynchronous record-set query (GetVersionAsync /
/// GetRangeAsync / GetHistoryAsync). The per-query cost accounting rides in
/// the result — differencing a shared QueryStats is meaningless while many
/// queries are in flight.
struct AsyncQueryResult {
  Status status = Status::OK();
  std::vector<Record> records;
  QueryStats stats;
  /// Best-effort casualties (empty in strict mode or when nothing degraded).
  QueryDegradation degradation;
};

/// Completion payload of an asynchronous point query (GetRecordAsync).
struct AsyncRecordResult {
  Status status = Status::OK();
  Record record;
  QueryStats stats;
};

/// A completed query future carrying `error`.
template <typename R>
Future<R> QueryError(Status error) {
  R result;
  result.status = std::move(error);
  return MakeReadyFuture(std::move(result));
}

/// Blocking adapters: move the result out of a completed query future
/// (one run with a null executor is complete on return), add its stats to
/// `*stats` and append its degradation report to `*degradation` (either
/// may be null).
Result<std::vector<Record>> TakeQueryResult(Future<AsyncQueryResult> future,
                                            QueryStats* stats,
                                            QueryDegradation* degradation =
                                                nullptr);
Result<Record> TakeQueryResult(Future<AsyncRecordResult> future,
                               QueryStats* stats);

/// Executes the four retrieval query classes of paper §2.1 against the
/// chunked store (paper §2.4, "Indexes and Query Processing Module").
///
/// - Version retrieval: version->chunks projection, parallel chunk fetch,
///   chunk maps extract the members.
/// - Record evolution: same flow with the key->chunks projection.
/// - Range / record retrieval: "index-ANDing" of both projections; because
///   the projections are lossy, a fetched chunk may turn out to hold no
///   record of interest.
///
/// The DELTA and SUBCHUNK baseline layouts use their own retrieval rules
/// (chain replay / full scan) selected by the layout kind.
///
/// When a ChunkCache is attached, every chunk fetch consults it first (keyed
/// by the chunk's current map generation from the catalog, so entries with
/// rewritten maps are never served) and decoded chunks are inserted after a
/// backend fetch. Multiple QueryProcessors — including ones on different
/// threads — may share one cache; `cache_owner` namespaces their entries
/// per owning store.
class QueryProcessor {
 public:
  /// All pointers are borrowed and must outlive the processor. `dataset` is
  /// the tree-transformed dataset whose composite keys match the stored
  /// chunks. `cache` may be null (uncached reads, the default).
  QueryProcessor(KVStore* kvs, const StoreCatalog* catalog,
                 const VersionedDataset* dataset, LayoutKind layout,
                 const Options& options, ChunkCache* cache = nullptr,
                 uint64_t cache_owner = 0);

  /// Q1 — full version retrieval: every record of `version`.
  ///
  /// The four blocking query methods run the query bodies below (the
  /// *Async methods) with a null executor and take their results.
  /// All four accept an optional TraceContext: when non-null, the query
  /// records a span tree ("query.*" around the whole query,
  /// "query.fetch_chunks" / "cache.lookup" / "query.decode" around the read
  /// path, plus the backend's own "kvs.multiget" spans) stamped with both
  /// wall-clock and simulated time.
  /// GetVersion and GetRange also honor Options::read_mode: under
  /// ReadMode::kBestEffort, chunks the backend cannot serve are skipped and
  /// reported via `degradation` (when non-null) and the missing_chunks stat
  /// instead of failing the query. In strict mode `degradation` is ignored.
  Result<std::vector<Record>> GetVersion(VersionId version,
                                         QueryStats* stats = nullptr,
                                         TraceContext* trace = nullptr,
                                         QueryDegradation* degradation =
                                             nullptr);

  /// Q2 — range retrieval: records of `version` with key in
  /// [key_lo, key_hi] (inclusive).
  Result<std::vector<Record>> GetRange(VersionId version,
                                       const std::string& key_lo,
                                       const std::string& key_hi,
                                       QueryStats* stats = nullptr,
                                       TraceContext* trace = nullptr,
                                       QueryDegradation* degradation =
                                           nullptr);

  /// Q3 — record evolution: every record (across all versions) with the
  /// given primary key, sorted by origin version.
  Result<std::vector<Record>> GetHistory(const std::string& key,
                                         QueryStats* stats = nullptr,
                                         TraceContext* trace = nullptr);

  /// Point query: the record with `key` as visible in `version`.
  /// kNotFound if the version has no such key.
  Result<Record> GetRecord(const std::string& key, VersionId version,
                           QueryStats* stats = nullptr,
                           TraceContext* trace = nullptr);

  // -- The query bodies: continuation-style execution on a deterministic
  //    virtual-time Executor, so many queries pipeline through one
  //    coordinator (the backend's per-node queues are the shared resource).
  //    Each method validates and plans inline, submits its chunk fetches,
  //    and completes the returned future at the query's simulated completion
  //    instant. A null `executor` sends both backend batches through the
  //    store's blocking MultiGet/MultiGetPartial instead: the continuations
  //    run inline and the future is complete on return.
  //
  //    `trace`, when non-null, must be a context used by this query chain
  //    only (one TraceContext per in-flight query) and stays open until the
  //    future completes. Best-effort degradation rides in the result; the
  //    processor itself must outlive the future (RStore's wrappers pin it).
  Future<AsyncQueryResult> GetVersionAsync(Executor* executor,
                                           VersionId version,
                                           TraceContext* trace = nullptr);
  Future<AsyncQueryResult> GetRangeAsync(Executor* executor, VersionId version,
                                         const std::string& key_lo,
                                         const std::string& key_hi,
                                         TraceContext* trace = nullptr);
  Future<AsyncQueryResult> GetHistoryAsync(Executor* executor,
                                           const std::string& key,
                                           TraceContext* trace = nullptr);
  Future<AsyncRecordResult> GetRecordAsync(Executor* executor,
                                           const std::string& key,
                                           VersionId version,
                                           TraceContext* trace = nullptr);

 private:
  /// A decoded chunk on the read path: cached entries are shared with the
  /// cache (and other readers), uncached ones are exclusively owned.
  using ChunkRef = std::shared_ptr<const Chunk>;

  /// Work-in-progress state of one chunk fetch: the cache pass's outcome
  /// plus the backend keys still to be fetched.
  struct FetchPlan {
    /// Resolved chunks, index-aligned with the requested ids; entries not
    /// served by the cache are filled in by DecodeAndInsert.
    std::vector<ChunkRef> chunks;
    std::vector<ChunkCacheKey> cache_keys;  // empty when no cache attached
    std::vector<size_t> miss;  // indices into `ids` needing a backend fetch
    std::vector<std::string> chunk_keys;  // backend keys, aligned with miss
    std::vector<std::string> map_keys;
  };

  /// Cache pass + backend-key planning: resolves each id against the cache
  /// under its current map generation (entries decoded before a map rewrite
  /// can never be served) and builds the body/map keys for the misses.
  FetchPlan PrepareFetch(const std::vector<ChunkId>& ids, TraceContext* trace);

  /// Decodes fetched bodies + maps into plan->chunks and inserts them into
  /// the cache. With `degradation` non-null, keys in the failure lists
  /// leave null refs and a report entry (best-effort); otherwise any
  /// unserved chunk is an error.
  Status DecodeAndInsert(const std::vector<ChunkId>& ids, FetchPlan* plan,
                         const AsyncMultiGetResult& chunk_batch,
                         const AsyncMultiGetResult& map_batch,
                         TraceContext* trace, QueryDegradation* degradation);

  /// Stats/metrics epilogue of a fetch: `chunk_batch` + `map_batch` are
  /// what its backend traffic cost (bytes, micros and their attribution).
  /// Returns the number of null refs (best-effort casualties) for span
  /// annotation.
  uint64_t AccountFetch(const std::vector<ChunkId>& ids, const FetchPlan& plan,
                        const AsyncMultiGetResult& chunk_batch,
                        const AsyncMultiGetResult& map_batch,
                        QueryStats* stats);

  /// What FetchChunksAsync hands its continuation: the chunks plus this
  /// fetch's own accounting and (best-effort mode) degradation report.
  struct AsyncFetchOutcome {
    Status status = Status::OK();
    std::vector<ChunkRef> chunks;
    QueryStats stats;
    QueryDegradation degradation;
  };

  /// Continuation state of one in-flight fetch. Heap-held so the
  /// chunk-table continuation can hand off to the index-table one.
  struct AsyncFetchState {
    Executor* executor = nullptr;  // null: blocking backend reads
    std::vector<ChunkId> ids;
    TraceContext* trace = nullptr;
    bool best_effort = false;
    uint32_t fetch_span = TraceSpan::kNoParent;
    FetchPlan plan;
    /// The body batch, kept so the epilogue reads its values in place
    /// instead of copying them. While the batch is pending, this handle and
    /// the batch's continuation (which holds the state) keep each other
    /// alive, so an executor must be drained, not destroyed, with fetches
    /// still queued on it.
    Future<AsyncMultiGetResult> chunk_batch;
    AsyncFetchOutcome out;
    std::function<void(AsyncFetchOutcome)> done;
  };
  using FetchStatePtr = std::shared_ptr<AsyncFetchState>;

  /// One backend batch: the store's MultiGetAsync on `executor`, or with a
  /// null executor its blocking MultiGet/MultiGetPartial, completed inline
  /// with exact stats deltas (KVStore's default MultiGetAsync).
  Future<AsyncMultiGetResult> ReadBatch(Executor* executor,
                                        const std::string& table,
                                        const std::vector<std::string>& keys,
                                        bool partial, TraceContext* trace);

  /// Fetches and decodes chunks (bodies + their maps) by id, consulting
  /// the cache first when attached: submits the body batch, chains the map
  /// batch at its simulated completion instant (which also keeps trace
  /// spans LIFO), then decodes and accounts in the final continuation. With
  /// `best_effort` set, chunks the backend reports unavailable come back as
  /// null ChunkRefs (recorded in the degradation report); otherwise any
  /// unserved chunk fails the fetch, which then charges nothing further.
  /// `done` receives the outcome by value, so a query can free the decoded
  /// chunks before its span closes.
  void FetchChunksAsync(Executor* executor, std::vector<ChunkId> ids,
                        TraceContext* trace, bool best_effort,
                        std::function<void(AsyncFetchOutcome)> done);

  /// Decode/account epilogue of a fetch, run when the map batch completes.
  void FinishFetchAsync(const FetchStatePtr& state,
                        const AsyncMultiGetResult& map_batch);
  /// Completes a fetch with `error`, closing its span (no charge).
  void AbortFetchAsync(const FetchStatePtr& state, const Status& error);

  /// The body of Q1 and Q2: records of `version`, restricted to
  /// [key_lo, key_hi] when `use_range` is set.
  Future<AsyncQueryResult> VersionQuery(Executor* executor, VersionId version,
                                        bool use_range,
                                        const std::string& key_lo,
                                        const std::string& key_hi,
                                        TraceContext* trace);

  /// Extracts the records of `version` from fetched chunks via chunk maps,
  /// optionally restricted to [key_lo, key_hi]. Null chunk refs (best-effort
  /// fetch casualties) are skipped.
  Result<std::vector<Record>> ExtractVersionRecords(
      const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
      const std::string& key_lo, const std::string& key_hi) const;

  // -- Layout-specific planning/epilogue helpers. Planning (which chunk ids
  //    to fetch) runs before the fetch; epilogues turn fetched chunks into
  //    records after.

  /// Every delta object on root->version, deduplicated (DELTA layout).
  std::vector<ChunkId> DeltaChainIds(VersionId version) const;
  /// Chunk ids whose records intersect [key_lo, key_hi] for `version`
  /// (index-ANDing for kChunked, per-key chunks for kSubChunkPerKey).
  std::vector<ChunkId> RangeChunkIds(VersionId version,
                                     const std::string& key_lo,
                                     const std::string& key_hi) const;
  /// Replays a fetched delta chain and materializes `version`'s records
  /// (optionally range-restricted) — the DELTA retrieval epilogue.
  Result<std::vector<Record>> ReplayDeltaChain(
      const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
      const std::string& key_lo, const std::string& key_hi) const;
  /// Record-evolution epilogue: all records with `key` across versions,
  /// sorted by origin version (replays everything under DELTA).
  Result<std::vector<Record>> HistoryFromChunks(
      const std::vector<ChunkRef>& chunks, const std::string& key) const;
  /// Point-query epilogue: scans fetched chunks for `key` in `version`.
  Result<Record> RecordFromChunks(const std::vector<ChunkRef>& chunks,
                                  const std::string& key,
                                  VersionId version) const;

  KVStore* kvs_;
  const StoreCatalog* catalog_;
  const VersionedDataset* dataset_;
  LayoutKind layout_;
  Options options_;
  ChunkCache* cache_;
  uint64_t cache_owner_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_QUERY_PROCESSOR_H_
