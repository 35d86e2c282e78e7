#ifndef RSTORE_KVSTORE_CLUSTER_H_
#define RSTORE_KVSTORE_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/sync.h"
#include "common/trace.h"
#include "kvstore/fault_injector.h"
#include "kvstore/hash_ring.h"
#include "kvstore/kv_store.h"
#include "kvstore/latency_model.h"
#include "kvstore/memory_store.h"
#include "kvstore/retry_policy.h"

namespace rstore {

/// Configuration for a simulated cluster.
struct ClusterOptions {
  uint32_t num_nodes = 4;
  /// Copies of every key, Cassandra-style; writes go to all replicas, reads
  /// are served by the first alive replica, failing over down the replica
  /// list on errors/timeouts and hedging per LatencyModel::hedge_threshold_us.
  uint32_t replication_factor = 1;
  uint32_t virtual_nodes_per_node = 64;
  LatencyModel latency = DefaultLatencyModel();
  uint64_t ring_seed = 0x5274537265ull;  // "RtSre"
  /// Deterministic fault schedule (default: no faults injected).
  FaultInjectorOptions faults;
  /// Coordinator retry/backoff/timeout discipline (simulated clock).
  RetryPolicy retry;
};

/// An in-process distributed key-value store: the Cassandra stand-in.
///
/// N MemoryStore nodes behind a consistent-hash ring, a coordinator that
/// routes requests, and a LatencyModel that charges simulated time for every
/// round trip and byte. Data placement, replication, routing, and failover
/// are executed for real; only the wall-clock is simulated (accumulated in
/// stats().simulated_micros so callers can report "how long this would have
/// taken" on the modeled hardware).
///
/// Fault tolerance: a seeded FaultInjector supplies transient errors, latency
/// spikes, and crash windows per ClusterOptions::faults; the coordinator
/// retries with deterministic exponential backoff (ClusterOptions::retry),
/// hedges slow reads to the next alive replica, and stages hinted-handoff
/// writes for down replicas, replaying them when the node returns. The same
/// options therefore replay an exact fault timeline — same results, same
/// retry/hedge counters — which the chaos suite exploits.
///
/// MultiGet is the workhorse: RStore retrieves the chunks for a version "by
/// issuing queries in parallel to the backend store" (paper §2.4), so the
/// batch's simulated latency is the *max* over nodes of each node's serial
/// service time, plus one coordinator overhead.
class Cluster : public KVStore {
 public:
  explicit Cluster(const ClusterOptions& options);

  Status CreateTable(const std::string& table) override;
  Status Put(const std::string& table, Slice key, Slice value) override;
  /// A one-key read batch (so it fails over, hedges and times out exactly
  /// like MultiGet) that is counted in stats() as a get, not a batch.
  Result<std::string> Get(const std::string& table, Slice key) override;
  /// When `trace` is non-null, records a "kvs.multiget" span with one
  /// "node<N>" child per contacted node covering [batch start, batch start +
  /// that node's service time] on the simulated clock — the children all
  /// start at the same simulated instant because the nodes serve their
  /// shares in parallel — and advances the trace's simulated clock by
  /// exactly the micros charged to stats(). Under faults, additional
  /// "node<N>.retry<k>" / "node<N>.hedge" children record the failed
  /// attempts and speculative reads, all contained in the parent interval.
  using KVStore::MultiGet;
  Status MultiGet(const std::string& table,
                  const std::vector<std::string>& keys,
                  std::map<std::string, std::string>* out,
                  TraceContext* trace) override;
  /// Per-key degradation: unavailable keys land in `*failures` instead of
  /// failing the batch (see KVStore::MultiGetPartial).
  Status MultiGetPartial(const std::string& table,
                         const std::vector<std::string>& keys,
                         std::map<std::string, std::string>* out,
                         std::vector<KeyReadFailure>* failures,
                         TraceContext* trace) override;
  /// Asynchronous MultiGet: the same read engine as the blocking calls,
  /// scheduled on a deterministic virtual-time Executor so many batches
  /// from many queries overlap through one coordinator. Fault decisions draw
  /// from the same (tick, node, round, salt) streams either way; when
  /// batches overlap, a per-node FIFO queue (async_node_busy_us_) serializes
  /// each node's service so saturation is bounded by aggregate node
  /// capacity, exactly the resource a blocking caller leaves idle between
  /// batches.
  ///
  /// With `partial` false the batch is strict (first unavailable key fails
  /// the whole batch, nothing is charged — as in MultiGet); with true,
  /// unavailable keys land in AsyncMultiGetResult::failures. The returned
  /// future completes on the executor at the batch's simulated completion
  /// instant, after this batch's charge lands in stats(). `trace` must
  /// belong to the submitting query chain and stay open (no span started
  /// before submission may close) until the future completes; per-node /
  /// per-attempt children and the simulated advance are recorded at
  /// completion and reconcile exactly with the charge.
  ///
  /// All async traffic against one Cluster must share one Executor (one
  /// virtual timeline); mixing executors trips a DCHECK. Writes must not
  /// run concurrently with in-flight async reads.
  Future<AsyncMultiGetResult> MultiGetAsync(
      Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      TraceContext* trace) override;

  Status Delete(const std::string& table, Slice key) override;
  Status Scan(const std::string& table,
              const std::function<void(Slice key, Slice value)>& fn) override;
  Result<uint64_t> TableSize(const std::string& table) override;

  KVStats stats() const override;
  void ResetStats() override;

  uint32_t num_nodes() const { return ring_.num_nodes(); }

  /// Failure injection: a down node rejects requests; reads fail over to the
  /// next alive replica, writes stage a hinted-handoff entry that is
  /// replayed when the node comes back (SetNodeAlive(node, true) replays
  /// synchronously; injector crash windows are backfilled at the next
  /// coordinator operation after the window closes).
  void SetNodeAlive(uint32_t node, bool alive);
  bool IsNodeAlive(uint32_t node) const;

  /// Bytes resident on one node (for balance/skew inspection).
  uint64_t NodeBytes(uint32_t node) const;

  /// Hinted-handoff entries currently staged for `node` (tests/inspection).
  size_t PendingHints(uint32_t node) const;

  /// The fault schedule this cluster draws from, exposed so chaos tests can
  /// reconcile the injected-fault tallies against the coordinator's stats.
  const FaultInjector& fault_injector() const { return injector_; }

 private:
  /// A write captured for a down replica, replayed on recovery.
  struct Hint {
    std::string table;
    std::string key;
    std::string value;
    bool is_delete = false;
  };

  /// True when `node` serves requests at `tick`: the liveness flag is set
  /// and no injector crash window covers the tick.
  bool NodeUp(uint32_t node, uint64_t tick) const;

  /// Position of the first serving replica in `replicas` at `tick`, or -1
  /// if all are down.
  int FirstUp(const std::vector<uint32_t>& replicas, uint64_t tick) const;
  /// Position of the first serving replica strictly after `after`, or -1.
  int NextUp(const std::vector<uint32_t>& replicas, size_t after,
             uint64_t tick) const;

  /// Simulated outcome of one request's attempt chain against one node:
  /// transient errors consume attempts (with backoff between them) until an
  /// attempt is served or the RetryPolicy is exhausted. Pure function of
  /// (node, tick, round, salt_base) given the schedule — no state mutated.
  struct AttemptChain {
    bool served = false;
    /// Issue time of the successful attempt (offset from the op start).
    uint64_t start_us = 0;
    double slow_multiplier = 1.0;
    /// When the chain gave up (valid when !served).
    uint64_t failure_us = 0;
    uint32_t retries = 0;
    /// [issue, error) intervals of the attempts that failed, for tracing.
    std::vector<std::pair<uint64_t, uint64_t>> failed_attempts;
  };
  AttemptChain SimulateAttempts(uint32_t node, uint64_t tick, uint32_t round,
                                uint32_t salt_base, uint64_t start_us) const;

  /// How an event's instant (relative to its operation's start) decomposes
  /// into queue wait, service and retry penalty, minus hedge savings:
  ///   queue_us + service_us + retry_us - hedge_saved_us == event instant
  /// holds for every event an operation produces; the operation's
  /// attribution is its critical event's (the one that set the charged
  /// latency), plus the coordinator overhead as service.
  struct Attribution {
    uint64_t queue_us = 0;
    uint64_t service_us = 0;
    uint64_t retry_us = 0;
    uint64_t hedge_saved_us = 0;
  };

  /// The read engine's state for one batch — MultiGet, MultiGetPartial, Get
  /// or MultiGetAsync — shared by every group event the batch runs. A
  /// blocking call (null `executor`) drains its groups inline in FIFO
  /// worklist order and treats every node as idle: it never consults
  /// async_node_busy_us_ and never pins the executor, because a blocking
  /// caller waits out each batch before issuing the next. An async batch
  /// posts each group at its virtual issue instant and queues behind the
  /// nodes' busy horizons. Only one event touches the state at a time (the
  /// caller's thread, or the executor, which runs events one at a time), so
  /// no lock guards it; cross-thread publication happens via the executor's
  /// own queue lock.
  struct ReadBatch {
    struct Member {
      size_t key_idx;
      std::vector<uint32_t> replicas;
      size_t pos;
    };
    struct Group {
      uint32_t node;
      uint64_t start_us;  // virtual instant the group was issued
      uint32_t round;     // failover depth, decorrelates fault decisions
      std::vector<Member> members;
      /// Attribution inherited from the event chain that issued this group
      /// (zero for initial groups): how start_us - submit_us decomposes.
      /// Every event this group produces extends it, keeping the
      /// conservation invariant exact through arbitrary failover chains.
      Attribution attr;
    };
    /// A child span recorded at a virtual interval, re-based onto the
    /// trace's simulated clock when the batch finishes.
    struct SimSpan {
      std::string name;
      uint64_t start_us;
      uint64_t end_us;
      std::vector<std::pair<std::string, std::string>> notes;
    };

    Executor* executor = nullptr;  // null: a blocking call
    std::string table;
    std::vector<std::string> keys;
    bool partial = false;
    bool point_get = false;  // charged as a get rather than a batch
    TraceContext* trace = nullptr;
    uint64_t tick = 0;
    uint64_t submit_us = 0;        // virtual submission instant (0 if blocking)
    uint64_t sim_batch_start = 0;  // trace sim clock at submission
    uint32_t span_id = TraceSpan::kNoParent;

    std::vector<Group> groups;  // append-only worklist; events index into it
    size_t outstanding = 0;
    bool failed = false;

    std::vector<SimSpan> sim_spans;  // recorded only when traced
    uint64_t last_event_us = 0;      // latest completion/failure instant
    /// Attribution of the critical event — the one that set last_event_us.
    /// Strictly-greater updates resolve ties toward the first event in
    /// processing order.
    Attribution crit;
    uint32_t nodes_contacted = 0;

    /// Counters and per-key outcomes; `values` and `failures` point into it
    /// or, for a blocking call, at the caller's out-params.
    AsyncMultiGetResult result;
    std::map<std::string, std::string>* values = &result.values;
    std::vector<KeyReadFailure>* failures = &result.failures;
    Promise<AsyncMultiGetResult> promise;  // completed for async batches
  };
  using BatchPtr = std::shared_ptr<ReadBatch>;

  /// The blocking reads: runs a ReadBatch inline and returns its status.
  /// `failures` null means strict.
  Status ReadBlocking(const std::string& table,
                      const std::vector<std::string>& keys,
                      std::map<std::string, std::string>* out,
                      std::vector<KeyReadFailure>* failures, bool point_get,
                      TraceContext* trace);
  /// Draws the batch's tick, opens its span, routes every key to its first
  /// serving replica and schedules the resulting groups; a blocking batch
  /// has finished when this returns.
  void StartBatch(const BatchPtr& batch);
  /// One group event: physical read, (queued) service + attempt chain,
  /// hedging, per-member completion, failover scheduling.
  void ProcessGroup(const BatchPtr& batch, size_t group_index);
  /// Routes members that failed at `fail_us` to their next serving
  /// replicas as new groups, which inherit the failing event's attribution
  /// `attr` (queue + service + retry == fail_us - submit_us). Strict-mode
  /// exhaustion returns the error (the caller aborts the batch).
  Status FailOver(const BatchPtr& batch,
                  std::vector<ReadBatch::Member> failed, uint64_t fail_us,
                  uint32_t next_round, const Attribution& attr,
                  const char* reason);
  /// Marks one group resolved; the last one finalizes the batch at its
  /// simulated completion instant.
  void GroupResolved(const BatchPtr& batch);
  /// Charges stats/metrics, emits the trace children + simulated advance,
  /// and completes an async batch's promise (with no locks held).
  void FinalizeBatch(const BatchPtr& batch);
  /// Strict-mode batch failure: the span closes without an advance and
  /// nothing is charged.
  void AbortBatch(const BatchPtr& batch, Status error);
  /// Re-bases the recorded child spans onto the trace's simulated clock.
  void EmitSimSpans(const ReadBatch& batch);

  /// Samples every node's async busy horizon into the process-wide
  /// FlightRecorder time series, at most once per sampling interval of
  /// virtual time. Snapshot under mu_, recording outside it.
  void MaybeSampleAsyncLoad(uint64_t now_us);

  /// Replays staged hints for every node that is up at `tick`. Called at
  /// the start of each coordinator operation (before routing, so a write
  /// issued after recovery can never be overwritten by an older hint) and
  /// from SetNodeAlive. Replayed writes are charged zero simulated micros:
  /// handoff replay is background repair traffic, not client latency.
  void ReplayReadyHints(uint64_t tick);

  /// Appends hints (collected during one write op) to the per-node queues.
  void CommitHints(std::vector<std::pair<uint32_t, Hint>> staged);

  /// Routing state (ring_, nodes_, options_) is immutable after
  /// construction and alive_ is atomic, so requests route lock-free; mu_
  /// guards only the coordinator's stats and is never held across a node
  /// call (node locks rank below kLockRankCluster — see sync.h).
  ClusterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<MemoryStore>> nodes_;
  /// Per-node liveness, atomic so failure injection (SetNodeAlive) can race
  /// with request routing without tearing; a std::vector<bool> here is a
  /// data race under TSan because neighbouring bits share a byte.
  /// analyze:atomic -- lock-free flags, racing with routing by design.
  std::vector<std::atomic<bool>> alive_;
  /// Deterministic fault source; inert unless ClusterOptions::faults has
  /// any fault configured.
  FaultInjector injector_;

  /// Staged hinted-handoff writes, one queue per node. hints_mu_ is never
  /// held across a node call: replay swaps a queue out under the lock and
  /// writes with it released. hint_count_ lets the per-operation replay
  /// check skip the lock entirely while no hints are staged (the common,
  /// fault-free case).
  mutable Mutex hints_mu_{kLockRankClusterHints, "Cluster::hints_mu_"};
  std::vector<std::vector<Hint>> hints_ RSTORE_GUARDED_BY(hints_mu_);
  /// Written under hints_mu_, read lock-free as an empty-queue fast path;
  /// over/under-reads only delay or waste a replay probe, never lose a
  /// hint (the queue itself is guarded). analyze:atomic
  std::atomic<uint64_t> hint_count_{0};

  mutable Mutex mu_{kLockRankCluster, "Cluster::mu_"};
  KVStats stats_ RSTORE_GUARDED_BY(mu_);
  /// Virtual-time instant (on the async executor's clock) until which each
  /// node is busy serving async reads — the per-node FIFO queue that keeps
  /// saturation finite when hundreds of async queries overlap. Blocking
  /// reads never consult it: their caller waits out each batch before
  /// issuing the next, so its nodes are idle by construction.
  std::vector<uint64_t> async_node_busy_us_ RSTORE_GUARDED_BY(mu_);
  /// All async traffic on one cluster shares one virtual timeline; pinned
  /// at the first MultiGetAsync and DCHECKed on every later one.
  const Executor* async_executor_ RSTORE_GUARDED_BY(mu_) = nullptr;
  /// Next virtual instant at which the async path samples the per-node
  /// busy horizons into the flight recorder's time series (saturation
  /// visibility over time; see common/flight_recorder.h).
  uint64_t next_sample_us_ RSTORE_GUARDED_BY(mu_) = 0;
};

}  // namespace rstore

#endif  // RSTORE_KVSTORE_CLUSTER_H_
