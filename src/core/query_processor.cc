#include "core/query_processor.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace rstore {

namespace {

/// Read-path registry handles, resolved once per process.
struct QueryMetrics {
  Counter* queries_total;
  Counter* chunks_fetched_total;
  Counter* bytes_fetched_total;
  Counter* simulated_micros_total;
  Counter* missing_chunks_total;
  Histogram* span_chunks;

  static const QueryMetrics& Get() {
    static const QueryMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      QueryMetrics m;
      m.queries_total = registry.GetCounter("rstore_query_queries_total");
      m.chunks_fetched_total =
          registry.GetCounter("rstore_query_chunks_fetched_total");
      m.bytes_fetched_total =
          registry.GetCounter("rstore_query_bytes_fetched_total");
      m.simulated_micros_total =
          registry.GetCounter("rstore_query_simulated_micros_total");
      m.missing_chunks_total =
          registry.GetCounter("rstore_query_missing_chunks_total");
      // Chunks per query — the paper's span metric (§2.5).
      m.span_chunks = registry.GetHistogram(
          "rstore_query_span_chunks", Histogram::ExponentialBoundaries(1, 4.0, 8));
      return m;
    }();
    return metrics;
  }
};

std::string MapKey(ChunkId id) {
  std::string key = "m";
  PutVarint64(&key, id);
  return key;
}

bool KeyInRange(const std::string& key, const std::string& lo,
                const std::string& hi) {
  return key >= lo && key <= hi;
}

using ReplayedChain =
    std::unordered_map<CompositeKey, std::string, CompositeKeyHash>;

/// Decompresses every record of a fetched delta chain into `*replayed`, in
/// chunk order: chunk ids ascend with origin version, so bases precede the
/// records delta-encoded against them.
Status ReplayChain(const std::vector<std::shared_ptr<const Chunk>>& chunks,
                   ReplayedChain* replayed) {
  SubChunk::PayloadResolver resolver =
      [replayed](const CompositeKey& ck) -> Result<std::string> {
    auto it = replayed->find(ck);
    if (it == replayed->end()) {
      return Status::Corruption("delta base record " + ck.ToString() +
                                " not yet replayed");
    }
    return it->second;
  };
  for (const auto& chunk : chunks) {
    std::vector<uint32_t> all(chunk->record_count());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    auto extracted = chunk->ExtractRecords(all, resolver);
    if (!extracted.ok()) return extracted.status();
    for (auto& [ck, payload] : extracted.value()) {
      (*replayed)[ck] = std::move(payload);
    }
  }
  return Status::OK();
}

/// Opens a query's root span (untraced: a no-op) and counts the query.
uint32_t StartQuery(TraceContext* trace, const char* name) {
  QueryMetrics::Get().queries_total->Increment();
  return trace != nullptr ? trace->StartSpan(name) : TraceSpan::kNoParent;
}

/// Closes a query's root span, freeing its fetched chunks first: their
/// teardown is part of the query's own time.
template <typename Fetch>
void EndQuery(TraceContext* trace, uint32_t span, Fetch* fetch) {
  fetch->chunks = {};
  if (trace != nullptr) trace->EndSpan(span);
}

/// Moves a successful epilogue's value into `*out`; returns its status.
template <typename T>
Status MoveInto(Result<T> result, T* out) {
  if (!result.ok()) return result.status();
  *out = *std::move(result);
  return Status::OK();
}

}  // namespace

QueryProcessor::QueryProcessor(KVStore* kvs, const StoreCatalog* catalog,
                               const VersionedDataset* dataset,
                               LayoutKind layout, const Options& options,
                               ChunkCache* cache, uint64_t cache_owner)
    : kvs_(kvs),
      catalog_(catalog),
      dataset_(dataset),
      layout_(layout),
      options_(options),
      cache_(cache),
      cache_owner_(cache_owner) {}

QueryProcessor::FetchPlan QueryProcessor::PrepareFetch(
    const std::vector<ChunkId>& ids, TraceContext* trace) {
  FetchPlan plan;
  plan.chunks.resize(ids.size());
  // Cache pass: resolve each id against the cache under its *current* map
  // generation, so entries decoded before a map rewrite can never be served.
  if (cache_ != nullptr) {
    ScopedSpan lookup_span(trace, "cache.lookup");
    plan.cache_keys.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      plan.cache_keys[i] = ChunkCacheKey{cache_owner_, ids[i],
                                         catalog_->ChunkMapGeneration(ids[i])};
      plan.chunks[i] = cache_->Lookup(plan.cache_keys[i]);
      if (plan.chunks[i] == nullptr) plan.miss.push_back(i);
    }
    lookup_span.Annotate("hits",
                         std::to_string(ids.size() - plan.miss.size()));
    lookup_span.Annotate("misses", std::to_string(plan.miss.size()));
  } else {
    plan.miss.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) plan.miss[i] = i;
  }
  plan.chunk_keys.reserve(plan.miss.size());
  plan.map_keys.reserve(plan.miss.size());
  for (size_t i : plan.miss) {
    plan.chunk_keys.push_back(ChunkKey(ids[i]));
    plan.map_keys.push_back(MapKey(ids[i]));
  }
  return plan;
}

Status QueryProcessor::DecodeAndInsert(const std::vector<ChunkId>& ids,
                                       FetchPlan* plan,
                                       const AsyncMultiGetResult& chunk_batch,
                                       const AsyncMultiGetResult& map_batch,
                                       TraceContext* trace,
                                       QueryDegradation* degradation) {
  const std::vector<size_t>& miss = plan->miss;
  const std::map<std::string, std::string>& chunk_values = chunk_batch.values;
  const std::map<std::string, std::string>& map_values = map_batch.values;
  // Index failed keys by name so decode can tell "the backend could not
  // serve it" (degrade) apart from "it does not exist" (corruption). Body
  // and map keys live in different prefixes, so one map fits both.
  std::map<std::string, const Status*> unavailable;
  for (const auto* failures : {&chunk_batch.failures, &map_batch.failures}) {
    for (const KeyReadFailure& f : *failures) unavailable[f.key] = &f.status;
  }

  ScopedSpan decode_span(trace, "query.decode");
  decode_span.Annotate("chunks", std::to_string(miss.size()));
  std::vector<Status> statuses(miss.size());
  // Per-miss degradation marks; distinct indices, safe under ParallelFor.
  std::vector<uint8_t> unfetchable(miss.size(), 0);
  std::vector<std::string> unfetchable_reason(miss.size());
  auto degrade_or_corrupt = [&](size_t m, const std::string& key,
                                const std::string& what) {
    auto fit = unavailable.find(key);
    if (fit != unavailable.end()) {
      unfetchable[m] = 1;
      unfetchable_reason[m] = fit->second->ToString();
      return;  // status stays OK; the chunk ref stays null
    }
    statuses[m] = Status::Corruption(what + " " +
                                     std::to_string(ids[miss[m]]) +
                                     " missing from backend");
  };
  auto decode_one = [&](size_t m) {
    size_t i = miss[m];
    auto cit = chunk_values.find(plan->chunk_keys[m]);
    if (cit == chunk_values.end()) {
      degrade_or_corrupt(m, plan->chunk_keys[m], "chunk");
      return;
    }
    auto mit = map_values.find(plan->map_keys[m]);
    if (mit == map_values.end()) {
      degrade_or_corrupt(m, plan->map_keys[m], "chunk map");
      return;
    }
    auto decoded = std::make_shared<Chunk>();
    Slice body(cit->second);
    Status s = Chunk::DecodeFrom(&body, decoded.get());
    if (!s.ok()) {
      statuses[m] = s;
      return;
    }
    Slice map_input(mit->second);
    ChunkMap map;
    s = ChunkMap::DecodeFrom(&map_input, &map);
    if (!s.ok()) {
      statuses[m] = s;
      return;
    }
    statuses[m] = decoded->SetChunkMap(std::move(map));
    if (statuses[m].ok()) plan->chunks[i] = std::move(decoded);
  };
  if (options_.parallel_extraction) {
    ParallelFor(miss.size(), decode_one);
  } else {
    // The paper's evaluated prototype processes chunks sequentially (§5.5).
    for (size_t m = 0; m < miss.size(); ++m) decode_one(m);
  }
  for (const Status& s : statuses) {
    RSTORE_RETURN_IF_ERROR(s);
  }
  if (degradation != nullptr) {
    for (size_t m = 0; m < miss.size(); ++m) {
      if (unfetchable[m] == 0) continue;
      degradation->missing_chunks.push_back(ids[miss[m]]);
      degradation->messages.push_back(std::move(unfetchable_reason[m]));
    }
  }
  if (cache_ != nullptr) {
    // Serial insert after the (possibly parallel) decode: the shards do
    // their own locking, this just keeps insertion order deterministic.
    for (size_t i : miss) {
      if (plan->chunks[i] == nullptr) continue;  // best-effort casualty
      cache_->Insert(plan->cache_keys[i], plan->chunks[i],
                     plan->chunks[i]->ApproximateMemoryBytes());
    }
  }
  return Status::OK();
}

uint64_t QueryProcessor::AccountFetch(const std::vector<ChunkId>& ids,
                                      const FetchPlan& plan,
                                      const AsyncMultiGetResult& chunk_batch,
                                      const AsyncMultiGetResult& map_batch,
                                      QueryStats* stats) {
  uint64_t n_missing = 0;
  for (const ChunkRef& chunk : plan.chunks) {
    if (chunk == nullptr) ++n_missing;
  }
  // chunks_fetched stays the query's span (paper §2.5) regardless of the
  // cache; bytes/latency only count traffic that reached the backend.
  const uint64_t bytes = chunk_batch.bytes_read + map_batch.bytes_read;
  const uint64_t micros = chunk_batch.charged_micros + map_batch.charged_micros;
  stats->chunks_fetched += ids.size();
  stats->bytes_fetched += bytes;
  stats->simulated_micros += micros;
  stats->queue_wait_us += chunk_batch.queue_wait_us + map_batch.queue_wait_us;
  stats->service_us += chunk_batch.service_us + map_batch.service_us;
  stats->retry_penalty_us +=
      chunk_batch.retry_penalty_us + map_batch.retry_penalty_us;
  stats->hedge_delta_us += chunk_batch.hedge_delta_us + map_batch.hedge_delta_us;
  if (cache_ != nullptr) {
    stats->cache_hits += ids.size() - plan.miss.size();
    stats->cache_misses += plan.miss.size();
  }
  stats->missing_chunks += n_missing;
  const QueryMetrics& metrics = QueryMetrics::Get();
  metrics.chunks_fetched_total->Increment(ids.size());
  metrics.bytes_fetched_total->Increment(bytes);
  metrics.simulated_micros_total->Increment(micros);
  if (n_missing > 0) metrics.missing_chunks_total->Increment(n_missing);
  metrics.span_chunks->Observe(ids.size());
  return n_missing;
}

Future<AsyncMultiGetResult> QueryProcessor::ReadBatch(
    Executor* executor, const std::string& table,
    const std::vector<std::string>& keys, bool partial, TraceContext* trace) {
  if (executor == nullptr) {
    return kvs_->KVStore::MultiGetAsync(nullptr, table, keys, partial, trace);
  }
  return kvs_->MultiGetAsync(executor, table, keys, partial, trace);
}

void QueryProcessor::FetchChunksAsync(
    Executor* executor, std::vector<ChunkId> ids, TraceContext* trace,
    bool best_effort, std::function<void(AsyncFetchOutcome)> done) {
  auto state = std::make_shared<AsyncFetchState>();
  state->done = std::move(done);
  state->executor = executor;
  state->ids = std::move(ids);
  state->trace = trace;
  state->best_effort = best_effort;
  if (trace != nullptr) {
    state->fetch_span = trace->StartSpan("query.fetch_chunks");
    trace->Annotate(state->fetch_span, "chunks",
                    std::to_string(state->ids.size()));
  }
  state->plan = PrepareFetch(state->ids, trace);
  if (state->plan.miss.empty()) {
    // Fully served from cache: nothing reaches the backend, and the fetch
    // completes at the current virtual instant with zero charge.
    state->chunk_batch = MakeReadyFuture(AsyncMultiGetResult{});
    FinishFetchAsync(state, AsyncMultiGetResult{});
    return;
  }
  // Body batch first, map batch chained at its simulated completion
  // instant (which keeps this trace's spans LIFO).
  state->chunk_batch = ReadBatch(executor, options_.chunk_table,
                                 state->plan.chunk_keys, best_effort, trace);
  state->chunk_batch.OnReady(
      [this, state](const AsyncMultiGetResult& chunk_batch) {
        if (!chunk_batch.status.ok()) {
          AbortFetchAsync(state, chunk_batch.status);
          return;
        }
        ReadBatch(state->executor, options_.index_table, state->plan.map_keys,
                  state->best_effort, state->trace)
            .OnReady([this, state](const AsyncMultiGetResult& map_batch) {
              if (!map_batch.status.ok()) {
                AbortFetchAsync(state, map_batch.status);
                return;
              }
              FinishFetchAsync(state, map_batch);
            });
      });
}

void QueryProcessor::FinishFetchAsync(const FetchStatePtr& state,
                                      const AsyncMultiGetResult& map_batch) {
  const AsyncMultiGetResult& chunk_batch = state->chunk_batch.value();
  if (!state->plan.miss.empty()) {
    Status s = DecodeAndInsert(
        state->ids, &state->plan, chunk_batch, map_batch, state->trace,
        state->best_effort ? &state->out.degradation : nullptr);
    if (!s.ok()) {
      AbortFetchAsync(state, s);
      return;
    }
  }
  const uint64_t n_missing = AccountFetch(state->ids, state->plan, chunk_batch,
                                          map_batch, &state->out.stats);
  if (state->trace != nullptr) {
    if (n_missing > 0) {
      state->trace->Annotate(state->fetch_span, "missing",
                             std::to_string(n_missing));
    }
    state->trace->EndSpan(state->fetch_span);
  }
  state->out.chunks = std::move(state->plan.chunks);
  state->done(std::move(state->out));
}

void QueryProcessor::AbortFetchAsync(const FetchStatePtr& state,
                                     const Status& error) {
  if (state->trace != nullptr) state->trace->EndSpan(state->fetch_span);
  state->out.status = error;
  state->done(std::move(state->out));
}

Result<std::vector<Record>> QueryProcessor::ExtractVersionRecords(
    const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
    const std::string& key_lo, const std::string& key_hi) const {
  std::vector<std::vector<Record>> per_chunk(chunks.size());
  std::vector<Status> statuses(chunks.size());
  auto extract_one = [&](size_t c) {
    if (chunks[c] == nullptr) return;  // best-effort fetch casualty
    const Chunk& chunk = *chunks[c];
    std::vector<uint32_t> indices = chunk.chunk_map().RecordsOf(version);
    if (use_range) {
      std::vector<uint32_t> filtered;
      for (uint32_t idx : indices) {
        if (KeyInRange(chunk.records()[idx].key, key_lo, key_hi)) {
          filtered.push_back(idx);
        }
      }
      indices = std::move(filtered);
    }
    if (indices.empty()) return;  // lossy-projection artifact
    auto extracted = chunk.ExtractRecords(indices);
    if (!extracted.ok()) {
      statuses[c] = extracted.status();
      return;
    }
    per_chunk[c].reserve(extracted->size());
    for (auto& [ck, payload] : extracted.value()) {
      per_chunk[c].push_back(Record{ck, std::move(payload)});
    }
  };
  if (options_.parallel_extraction) {
    ParallelFor(chunks.size(), extract_one);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) extract_one(c);
  }
  std::vector<Record> out;
  for (size_t c = 0; c < chunks.size(); ++c) {
    RSTORE_RETURN_IF_ERROR(statuses[c]);
    for (Record& r : per_chunk[c]) out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key < b.key;
  });
  return out;
}

std::vector<ChunkId> QueryProcessor::DeltaChainIds(VersionId version) const {
  // DELTA layout: every delta object on root->version must be retrieved.
  // (Partial retrieval still reconstructs the full version first, then
  // filters — the paper's worst case for this baseline.)
  std::vector<ChunkId> ids;
  for (VersionId step : dataset_->graph.PathFromRoot(version)) {
    for (ChunkId id : catalog_->ChunksOriginatedAt(step)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<std::vector<Record>> QueryProcessor::ReplayDeltaChain(
    const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
    const std::string& key_lo, const std::string& key_hi) const {
  // The chain must be replayed in full: every record of every delta object
  // is decompressed (later deltas may be record-level-encoded against
  // earlier records), then membership — replayed on the application server
  // from the in-memory deltas — selects the live ones. This whole-chain
  // decompression is precisely the DELTA baseline's cost profile.
  ReplayedChain replayed;
  RSTORE_RETURN_IF_ERROR(ReplayChain(chunks, &replayed));
  VersionMembership members = dataset_->MaterializeVersion(version);
  std::vector<Record> out;
  for (const CompositeKey& ck : members) {
    if (use_range && !KeyInRange(ck.key, key_lo, key_hi)) continue;
    auto it = replayed.find(ck);
    if (it == replayed.end()) {
      return Status::Corruption("record " + ck.ToString() +
                                " missing from replayed chain");
    }
    out.push_back(Record{ck, std::move(it->second)});
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key < b.key;
  });
  return out;
}

std::vector<ChunkId> QueryProcessor::RangeChunkIds(
    VersionId version, const std::string& key_lo,
    const std::string& key_hi) const {
  std::vector<ChunkId> ids;
  if (layout_ == LayoutKind::kChunked) {
    // Index-ANDing: chunks of the version INTERSECT chunks holding any key
    // in the range. The key->chunks projection is keyed by exact key, so
    // candidates come from scanning each version chunk's record list once.
    for (ChunkId id : catalog_->ChunksOfVersion(version)) {
      const std::vector<CompositeKey>* records = catalog_->RecordsOfChunk(id);
      if (records == nullptr) continue;
      for (const CompositeKey& ck : *records) {
        if (KeyInRange(ck.key, key_lo, key_hi)) {
          ids.push_back(id);
          break;
        }
      }
    }
  } else {
    // One chunk per key: fetch the chunks whose key falls in the range.
    for (ChunkId id : catalog_->AllChunks()) {
      const std::vector<CompositeKey>* records = catalog_->RecordsOfChunk(id);
      if (records != nullptr && !records->empty() &&
          KeyInRange((*records)[0].key, key_lo, key_hi)) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

Result<std::vector<Record>> QueryProcessor::HistoryFromChunks(
    const std::vector<ChunkRef>& chunks, const std::string& key) const {
  std::vector<Record> out;
  if (layout_ == LayoutKind::kDeltaChain) {
    // Everything was fetched; replay it all (record-level deltas may chain
    // across versions) and filter by key.
    ReplayedChain replayed;
    RSTORE_RETURN_IF_ERROR(ReplayChain(chunks, &replayed));
    for (auto& [ck, payload] : replayed) {
      if (ck.key == key) out.push_back(Record{ck, std::move(payload)});
    }
  } else {
    for (const ChunkRef& chunk_ref : chunks) {
      const Chunk& chunk = *chunk_ref;
      std::vector<uint32_t> wanted;
      for (uint32_t i = 0; i < chunk.records().size(); ++i) {
        if (chunk.records()[i].key == key) wanted.push_back(i);
      }
      if (wanted.empty()) continue;
      auto extracted = chunk.ExtractRecords(wanted);
      if (!extracted.ok()) return extracted.status();
      for (auto& [ck, payload] : extracted.value()) {
        out.push_back(Record{ck, std::move(payload)});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key.version < b.key.version;
  });
  return out;
}

Result<Record> QueryProcessor::RecordFromChunks(
    const std::vector<ChunkRef>& chunks, const std::string& key,
    VersionId version) const {
  for (const ChunkRef& chunk_ref : chunks) {
    const Chunk& chunk = *chunk_ref;
    for (uint32_t idx : chunk.chunk_map().RecordsOf(version)) {
      if (chunk.records()[idx].key == key) {
        auto extracted = chunk.ExtractRecords({idx});
        if (!extracted.ok()) return extracted.status();
        auto& [ck, payload] = extracted.value()[0];
        return Record{std::move(ck), std::move(payload)};
      }
    }
  }
  return Status::NotFound("no record " + key + " in version " +
                          std::to_string(version));
}

// -- The query bodies. Each validates and plans inline (span, chunk ids),
//    submits the fetch, and turns the fetched chunks into its result in the
//    continuation — at the query's simulated completion instant on an
//    executor, or before returning when run on blocking backend reads.

Future<AsyncQueryResult> QueryProcessor::GetVersionAsync(Executor* executor,
                                                         VersionId version,
                                                         TraceContext* trace) {
  return VersionQuery(executor, version, /*use_range=*/false, "", "", trace);
}

Future<AsyncQueryResult> QueryProcessor::GetRangeAsync(
    Executor* executor, VersionId version, const std::string& key_lo,
    const std::string& key_hi, TraceContext* trace) {
  return VersionQuery(executor, version, /*use_range=*/true, key_lo, key_hi,
                      trace);
}

Future<AsyncQueryResult> QueryProcessor::VersionQuery(
    Executor* executor, VersionId version, bool use_range,
    const std::string& key_lo, const std::string& key_hi,
    TraceContext* trace) {
  if (version >= dataset_->graph.size()) {
    return QueryError<AsyncQueryResult>(
        Status::InvalidArgument("unknown version"));
  }
  if (use_range && key_lo > key_hi) {
    return QueryError<AsyncQueryResult>(
        Status::InvalidArgument("empty key range"));
  }
  const uint32_t span =
      StartQuery(trace, use_range ? "query.get_range" : "query.get_version");
  if (trace != nullptr) {
    trace->Annotate(span, "version", std::to_string(version));
  }
  // A delta chain with a hole cannot be replayed: that layout is always
  // strict (DESIGN.md "Fault tolerance").
  const bool best_effort = options_.read_mode == ReadMode::kBestEffort &&
                           layout_ != LayoutKind::kDeltaChain;
  std::vector<ChunkId> ids;
  if (layout_ == LayoutKind::kDeltaChain) {
    ids = DeltaChainIds(version);
  } else if (use_range) {
    ids = RangeChunkIds(version, key_lo, key_hi);
  } else if (layout_ == LayoutKind::kChunked) {
    ids = catalog_->ChunksOfVersion(version);
  } else {
    // No version->chunk index: every chunk must be retrieved (paper §2.2).
    ids = catalog_->AllChunks();
  }
  Promise<AsyncQueryResult> promise;
  FetchChunksAsync(
      executor, std::move(ids), trace, best_effort,
      [this, promise, version, use_range, key_lo, key_hi, trace,
       span](AsyncFetchOutcome fetch) {
        AsyncQueryResult result;
        result.stats = fetch.stats;
        result.degradation = std::move(fetch.degradation);
        result.status = fetch.status;
        if (result.status.ok()) {
          result.status = MoveInto(
              layout_ == LayoutKind::kDeltaChain
                  ? ReplayDeltaChain(fetch.chunks, version, use_range, key_lo,
                                     key_hi)
                  : ExtractVersionRecords(fetch.chunks, version, use_range,
                                          key_lo, key_hi),
              &result.records);
        }
        EndQuery(trace, span, &fetch);
        promise.Set(std::move(result));
      });
  return promise.future();
}

Future<AsyncQueryResult> QueryProcessor::GetHistoryAsync(Executor* executor,
                                                         const std::string& key,
                                                         TraceContext* trace) {
  const uint32_t span = StartQuery(trace, "query.get_history");
  if (trace != nullptr) trace->Annotate(span, "key", key);
  // "For DELTA, we need to reconstruct all the versions and then filter out
  // the required records which renders execution of Q3 impractical" (§5.4):
  // every chunk must come back.
  std::vector<ChunkId> ids = layout_ == LayoutKind::kDeltaChain
                                 ? catalog_->AllChunks()
                                 : catalog_->ChunksOfKey(key);
  Promise<AsyncQueryResult> promise;
  FetchChunksAsync(
      executor, std::move(ids), trace, /*best_effort=*/false,
      [this, promise, key, trace, span](AsyncFetchOutcome fetch) {
        AsyncQueryResult result;
        result.stats = fetch.stats;
        result.status = fetch.status;
        if (result.status.ok()) {
          result.status =
              MoveInto(HistoryFromChunks(fetch.chunks, key), &result.records);
        }
        EndQuery(trace, span, &fetch);
        promise.Set(std::move(result));
      });
  return promise.future();
}

Future<AsyncRecordResult> QueryProcessor::GetRecordAsync(
    Executor* executor, const std::string& key, VersionId version,
    TraceContext* trace) {
  if (version >= dataset_->graph.size()) {
    return QueryError<AsyncRecordResult>(
        Status::InvalidArgument("unknown version"));
  }
  const uint32_t span = StartQuery(trace, "query.get_record");
  if (trace != nullptr) {
    trace->Annotate(span, "key", key);
    trace->Annotate(span, "version", std::to_string(version));
  }
  std::vector<ChunkId> ids;
  switch (layout_) {
    case LayoutKind::kChunked: {
      // Index-ANDing of the two projections (paper §2.4).
      std::vector<ChunkId> by_version = catalog_->ChunksOfVersion(version);
      std::vector<ChunkId> by_key = catalog_->ChunksOfKey(key);
      std::set_intersection(by_version.begin(), by_version.end(),
                            by_key.begin(), by_key.end(),
                            std::back_inserter(ids));
      break;
    }
    case LayoutKind::kDeltaChain:
      ids = DeltaChainIds(version);
      break;
    case LayoutKind::kSubChunkPerKey:
      ids = catalog_->ChunksOfKey(key);
      break;
  }
  Promise<AsyncRecordResult> promise;
  FetchChunksAsync(
      executor, std::move(ids), trace, /*best_effort=*/false,
      [this, promise, key, version, trace, span](AsyncFetchOutcome fetch) {
        AsyncRecordResult result;
        result.stats = fetch.stats;
        result.status = fetch.status;
        if (result.status.ok() && layout_ == LayoutKind::kDeltaChain) {
          auto records = ReplayDeltaChain(fetch.chunks, version,
                                          /*use_range=*/true, key, key);
          if (!records.ok()) {
            result.status = records.status();
          } else if (records->empty()) {
            result.status = Status::NotFound("no record " + key +
                                             " in version " +
                                             std::to_string(version));
          } else {
            result.record = std::move(records->front());
          }
        } else if (result.status.ok()) {
          result.status = MoveInto(RecordFromChunks(fetch.chunks, key, version),
                                   &result.record);
        }
        EndQuery(trace, span, &fetch);
        promise.Set(std::move(result));
      });
  return promise.future();
}

// -- The blocking query methods: the bodies above with a null executor.

Result<std::vector<Record>> QueryProcessor::GetVersion(
    VersionId version, QueryStats* stats, TraceContext* trace,
    QueryDegradation* degradation) {
  return TakeQueryResult(GetVersionAsync(nullptr, version, trace), stats,
                         degradation);
}

Result<std::vector<Record>> QueryProcessor::GetRange(
    VersionId version, const std::string& key_lo, const std::string& key_hi,
    QueryStats* stats, TraceContext* trace, QueryDegradation* degradation) {
  return TakeQueryResult(
      GetRangeAsync(nullptr, version, key_lo, key_hi, trace), stats,
      degradation);
}

Result<std::vector<Record>> QueryProcessor::GetHistory(const std::string& key,
                                                       QueryStats* stats,
                                                       TraceContext* trace) {
  return TakeQueryResult(GetHistoryAsync(nullptr, key, trace), stats);
}

Result<Record> QueryProcessor::GetRecord(const std::string& key,
                                         VersionId version,
                                         QueryStats* stats,
                                         TraceContext* trace) {
  return TakeQueryResult(GetRecordAsync(nullptr, key, version, trace), stats);
}

Result<std::vector<Record>> TakeQueryResult(Future<AsyncQueryResult> future,
                                            QueryStats* stats,
                                            QueryDegradation* degradation) {
  AsyncQueryResult result = future.Take();
  if (stats != nullptr) *stats += result.stats;
  if (degradation != nullptr) {
    QueryDegradation& report = result.degradation;
    degradation->missing_chunks.insert(degradation->missing_chunks.end(),
                                       report.missing_chunks.begin(),
                                       report.missing_chunks.end());
    degradation->messages.insert(
        degradation->messages.end(),
        std::make_move_iterator(report.messages.begin()),
        std::make_move_iterator(report.messages.end()));
  }
  if (!result.status.ok()) return result.status;
  return std::move(result.records);
}

Result<Record> TakeQueryResult(Future<AsyncRecordResult> future,
                               QueryStats* stats) {
  AsyncRecordResult result = future.Take();
  if (stats != nullptr) *stats += result.stats;
  if (!result.status.ok()) return result.status;
  return std::move(result.record);
}

}  // namespace rstore
