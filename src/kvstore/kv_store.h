#ifndef RSTORE_KVSTORE_KV_STORE_H_
#define RSTORE_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace rstore {

class TraceContext;

/// Aggregate counters for traffic against a KV store. RStore's evaluation
/// metrics (number of queries issued to the backend, bytes moved, simulated
/// latency) are read from here.
struct KVStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t multiget_batches = 0;
  /// Individual key lookups, including those inside MultiGet batches.
  uint64_t keys_requested = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Simulated wall-clock cost accumulated by the latency model (zero for
  /// plain in-memory stores).
  uint64_t simulated_micros = 0;

  // Fault-tolerance counters (nonzero only for stores that model faults).
  /// Attempts re-issued after a transient error (backoff charged to
  /// simulated_micros).
  uint64_t retries = 0;
  /// Speculative reads issued because a replica exceeded the latency model's
  /// hedge threshold, and how many of them completed first.
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  /// Requests abandoned at the RetryPolicy's simulated deadline.
  uint64_t timeouts = 0;
  /// Writes staged for a down replica, and hints later replayed to a
  /// recovered node (hinted handoff).
  uint64_t handoff_hints = 0;
  uint64_t handoff_replays = 0;

  // Latency attribution: a decomposition of simulated_micros. For stores
  // that model latency the invariant
  //   queue_wait_us + service_us + retry_penalty_us - hedge_delta_us
  //     == simulated_micros
  // holds exactly (all four are zero for plain in-memory stores, which
  // charge nothing). Batched reads attribute the critical path — the event
  // chain of the member that determined the batch's completion time.
  /// Time spent queued behind earlier work at the serving node (async
  /// busy horizons; always zero for one-at-a-time blocking reads).
  uint64_t queue_wait_us = 0;
  /// Time the serving node (plus coordinator overhead) spent doing work.
  uint64_t service_us = 0;
  /// Backoff, failed attempts, and failover delay before the serving
  /// attempt started.
  uint64_t retry_penalty_us = 0;
  /// Micros saved because a hedged read beat the slow primary (subtracts
  /// from the sum: the primary's full service time is still attributed).
  uint64_t hedge_delta_us = 0;

  KVStats& operator+=(const KVStats& other) {
    gets += other.gets;
    puts += other.puts;
    deletes += other.deletes;
    multiget_batches += other.multiget_batches;
    keys_requested += other.keys_requested;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    simulated_micros += other.simulated_micros;
    retries += other.retries;
    hedges += other.hedges;
    hedge_wins += other.hedge_wins;
    timeouts += other.timeouts;
    handoff_hints += other.handoff_hints;
    handoff_replays += other.handoff_replays;
    queue_wait_us += other.queue_wait_us;
    service_us += other.service_us;
    retry_penalty_us += other.retry_penalty_us;
    hedge_delta_us += other.hedge_delta_us;
    return *this;
  }
};

/// One key a partial batched read could not serve, with the reason (e.g. all
/// replicas down, or attempts exhausted). Reported by MultiGetPartial so
/// best-effort readers can degrade gracefully instead of failing the batch.
struct KeyReadFailure {
  std::string key;
  Status status;
};

/// Completion payload of one asynchronous MultiGet batch. Unlike the
/// synchronous path — where callers difference stats() snapshots — every
/// per-call figure rides in the result, because stats() deltas are
/// meaningless while hundreds of batches are in flight.
struct AsyncMultiGetResult {
  Status status = Status::OK();
  std::map<std::string, std::string> values;
  /// Per-key degradations (partial mode only; strict batches fail whole).
  std::vector<KeyReadFailure> failures;
  uint64_t bytes_read = 0;
  /// Exactly what this batch added to stats().simulated_micros.
  uint64_t charged_micros = 0;
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t timeouts = 0;
  /// Attribution of charged_micros (see KVStats): queue_wait + service +
  /// retry_penalty - hedge_delta == charged_micros, exactly.
  uint64_t queue_wait_us = 0;
  uint64_t service_us = 0;
  uint64_t retry_penalty_us = 0;
  uint64_t hedge_delta_us = 0;
};

/// Abstract distributed key-value store interface.
///
/// RStore is "intended to act as a layer on top of a distributed key-value
/// store ... we only assume basic get/put functionality from it" (paper
/// §2.4). This interface is that assumption made explicit: named tables
/// (chunks and indexes are stored "in two distinct tables"), binary keys and
/// values, point get/put/delete, a batched MultiGet (issued as parallel
/// queries, matching how RStore retrieves chunks), and a full-table scan used
/// only by administrative tooling.
class KVStore {
 public:
  virtual ~KVStore() = default;

  /// Creates `table` if absent; OK if it already exists.
  virtual Status CreateTable(const std::string& table) = 0;

  /// Stores `value` under `key`, overwriting any previous value.
  virtual Status Put(const std::string& table, Slice key, Slice value) = 0;

  /// Group commit: stores every (key, value) pair of `entries`, equivalent
  /// to issuing the Puts in order. The default implementation is exactly
  /// that loop, so stats and simulated charges match the serial path
  /// byte-for-byte; single-node stores override it to apply the whole group
  /// under one lock acquisition (the ingest pipeline's write batches). Not
  /// atomic: a mid-batch error leaves the earlier entries applied, like the
  /// equivalent Put sequence.
  virtual Status WriteBatch(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    for (const auto& [key, value] : entries) {
      RSTORE_RETURN_IF_ERROR(Put(table, key, value));
    }
    return Status::OK();
  }

  /// Point lookup. kNotFound if the key is absent.
  virtual Result<std::string> Get(const std::string& table, Slice key) = 0;

  /// Batched lookup. Returns one entry per found key in `*out` (missing keys
  /// are simply absent, not errors). Implementations issue the per-key reads
  /// in parallel across the nodes that own them.
  ///
  /// `trace` may be null (the common case). When set, implementations that
  /// model distribution record one child span per contacted node covering
  /// that node's simulated service interval, and advance the context's
  /// simulated clock by exactly the micros they charge to stats() — the
  /// contract the observability tests reconcile. Implementations that
  /// override only the traced form inherit the untraced convenience overload
  /// via `using KVStore::MultiGet;`.
  virtual Status MultiGet(const std::string& table,
                          const std::vector<std::string>& keys,
                          std::map<std::string, std::string>* out,
                          TraceContext* trace) = 0;

  /// Untraced convenience form.
  Status MultiGet(const std::string& table,
                  const std::vector<std::string>& keys,
                  std::map<std::string, std::string>* out) {
    return MultiGet(table, keys, out, nullptr);
  }

  /// Best-effort batched lookup: keys whose owning replicas are unavailable
  /// are reported in `*failures` (with the reason) instead of failing the
  /// whole batch. Only returns a non-OK status for errors unrelated to
  /// individual keys. Keys absent from both `*out` and `*failures` were
  /// served fine and simply do not exist. The default implementation
  /// delegates to MultiGet and, on failure, attributes the batch error to
  /// every key — stores without partial-failure modes degrade all-or-nothing.
  virtual Status MultiGetPartial(const std::string& table,
                                 const std::vector<std::string>& keys,
                                 std::map<std::string, std::string>* out,
                                 std::vector<KeyReadFailure>* failures,
                                 TraceContext* trace) {
    Status s = MultiGet(table, keys, out, trace);
    if (!s.ok() && failures != nullptr) {
      for (const std::string& key : keys) {
        if (out->count(key) == 0) failures->push_back({key, s});
      }
      return Status::OK();
    }
    return s;
  }

  /// Asynchronous batched lookup, completing on `executor`'s virtual
  /// timeline. With `partial` false the batch is strict: the first
  /// unavailable key fails the whole batch (mirroring MultiGet); with true,
  /// unavailable keys land in AsyncMultiGetResult::failures. The default
  /// implementation bridges to the synchronous path and returns an
  /// already-completed future — stores without a latency model serve
  /// instantly on the virtual clock, charging exactly what the sync call
  /// charged. Stores that model distribution (Cluster) override this with a
  /// genuinely pipelined implementation.
  virtual Future<AsyncMultiGetResult> MultiGetAsync(
      Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      TraceContext* trace) {
    (void)executor;
    AsyncMultiGetResult result;
    const KVStats before = stats();
    if (partial) {
      result.status = MultiGetPartial(table, keys, &result.values,
                                      &result.failures, trace);
    } else {
      result.status = MultiGet(table, keys, &result.values, trace);
    }
    const KVStats after = stats();
    result.bytes_read = after.bytes_read - before.bytes_read;
    result.charged_micros = after.simulated_micros - before.simulated_micros;
    result.retries = after.retries - before.retries;
    result.hedges = after.hedges - before.hedges;
    result.hedge_wins = after.hedge_wins - before.hedge_wins;
    result.timeouts = after.timeouts - before.timeouts;
    result.queue_wait_us = after.queue_wait_us - before.queue_wait_us;
    result.service_us = after.service_us - before.service_us;
    result.retry_penalty_us = after.retry_penalty_us - before.retry_penalty_us;
    result.hedge_delta_us = after.hedge_delta_us - before.hedge_delta_us;
    return MakeReadyFuture(std::move(result));
  }

  virtual Status Delete(const std::string& table, Slice key) = 0;

  /// Invokes `fn` for every key/value in `table`, in unspecified order.
  /// Administrative/testing use only: real deployments never scan. `fn`
  /// must not call back into the same store (implementations may hold
  /// internal locks across the scan).
  virtual Status Scan(
      const std::string& table,
      const std::function<void(Slice key, Slice value)>& fn) = 0;

  /// Number of keys in `table` (kNotFound if the table does not exist).
  virtual Result<uint64_t> TableSize(const std::string& table) = 0;

  /// Cumulative traffic counters since construction (or ResetStats).
  virtual KVStats stats() const = 0;
  virtual void ResetStats() = 0;
};

}  // namespace rstore

#endif  // RSTORE_KVSTORE_KV_STORE_H_
