#include "kvstore/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace rstore {

namespace {

/// Registry handles for the coordinator's traffic counters, resolved once.
/// Every update below is one relaxed atomic op — no locks on the hot path.
struct ClusterMetrics {
  Counter* requests_total;
  Counter* multiget_batches_total;
  Counter* keys_requested_total;
  Counter* bytes_read_total;
  Counter* bytes_written_total;
  Counter* simulated_micros_total;
  Counter* retries_total;
  Counter* hedges_total;
  Counter* hedge_wins_total;
  Counter* timeouts_total;
  Counter* handoff_hints_total;
  Counter* handoff_replays_total;
  Counter* queue_wait_micros_total;
  Counter* service_micros_total;
  Counter* retry_penalty_micros_total;
  Counter* hedge_saved_micros_total;
  Histogram* multiget_batch_keys;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      ClusterMetrics m;
      m.requests_total = registry.GetCounter("rstore_kvs_requests_total");
      m.multiget_batches_total =
          registry.GetCounter("rstore_kvs_multiget_batches_total");
      m.keys_requested_total =
          registry.GetCounter("rstore_kvs_keys_requested_total");
      m.bytes_read_total = registry.GetCounter("rstore_kvs_bytes_read_total");
      m.bytes_written_total =
          registry.GetCounter("rstore_kvs_bytes_written_total");
      m.simulated_micros_total =
          registry.GetCounter("rstore_kvs_simulated_micros_total");
      m.retries_total = registry.GetCounter("rstore_kvs_retries_total");
      m.hedges_total = registry.GetCounter("rstore_kvs_hedges_total");
      m.hedge_wins_total = registry.GetCounter("rstore_kvs_hedge_wins_total");
      m.timeouts_total = registry.GetCounter("rstore_kvs_timeouts_total");
      m.handoff_hints_total =
          registry.GetCounter("rstore_kvs_handoff_hints_total");
      m.handoff_replays_total =
          registry.GetCounter("rstore_kvs_handoff_replays_total");
      m.queue_wait_micros_total =
          registry.GetCounter("rstore_kvs_queue_wait_micros_total");
      m.service_micros_total =
          registry.GetCounter("rstore_kvs_service_micros_total");
      m.retry_penalty_micros_total =
          registry.GetCounter("rstore_kvs_retry_penalty_micros_total");
      m.hedge_saved_micros_total =
          registry.GetCounter("rstore_kvs_hedge_saved_micros_total");
      m.multiget_batch_keys = registry.GetHistogram(
          "rstore_kvs_multiget_batch_keys",
          Histogram::ExponentialBoundaries(1, 4.0, 8));  // 1..16384 keys
      return m;
    }();
    return metrics;
  }
};

/// Salt bases feeding FaultInjector::Decide/UniformAt so the different uses
/// of one operation tick (primary read vs. write vs. hedge vs. backoff
/// jitter) draw from independent deterministic streams. Failover rounds are
/// decorrelated by striding the salt.
constexpr uint32_t kSaltRead = 0;
constexpr uint32_t kSaltWrite = 1;
constexpr uint32_t kSaltDelete = 2;
constexpr uint32_t kSaltHedge = 3;
constexpr uint32_t kSaltJitter = 4;
constexpr uint32_t kSaltStride = 8;

/// Applies a latency-spike multiplier, rounding to whole micros.
uint64_t ScaleMicros(uint64_t us, double multiplier) {
  if (multiplier <= 1.0) return us;
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(us) * multiplier));
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      ring_(options.num_nodes, options.virtual_nodes_per_node,
            options.ring_seed),
      alive_(options.num_nodes),
      injector_(options.faults, options.num_nodes),
      hints_(options.num_nodes),
      async_node_busy_us_(options.num_nodes, 0) {
  RSTORE_CHECK(options.num_nodes >= 1);
  RSTORE_CHECK(options.replication_factor >= 1);
  RSTORE_CHECK(options.retry.max_attempts >= 1);
  nodes_.reserve(options.num_nodes);
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemoryStore>());
  }
  for (std::atomic<bool>& alive : alive_) {
    alive.store(true, std::memory_order_relaxed);
  }
}

Status Cluster::CreateTable(const std::string& table) {
  for (auto& node : nodes_) {
    RSTORE_RETURN_IF_ERROR(node->CreateTable(table));
  }
  return Status::OK();
}

bool Cluster::NodeUp(uint32_t node, uint64_t tick) const {
  return alive_[node].load(std::memory_order_acquire) &&
         !injector_.Crashed(node, tick);
}

int Cluster::FirstUp(const std::vector<uint32_t>& replicas,
                     uint64_t tick) const {
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (NodeUp(replicas[i], tick)) return static_cast<int>(i);
  }
  return -1;
}

int Cluster::NextUp(const std::vector<uint32_t>& replicas, size_t after,
                    uint64_t tick) const {
  for (size_t i = after + 1; i < replicas.size(); ++i) {
    if (NodeUp(replicas[i], tick)) return static_cast<int>(i);
  }
  return -1;
}

Cluster::AttemptChain Cluster::SimulateAttempts(uint32_t node, uint64_t tick,
                                                uint32_t round,
                                                uint32_t salt_base,
                                                uint64_t start_us) const {
  AttemptChain chain;
  chain.start_us = start_us;
  if (!injector_.enabled()) {
    chain.served = true;
    return chain;
  }
  const uint32_t salt = salt_base + kSaltStride * round;
  for (uint32_t attempt = 0;; ++attempt) {
    const FaultDecision d = injector_.Decide(node, tick, attempt, salt);
    if (d.kind != FaultKind::kTransientError) {
      chain.served = true;
      chain.start_us = start_us;
      chain.slow_multiplier = d.slow_multiplier;
      return chain;
    }
    // A failed attempt costs the round trip that returned the error.
    const uint64_t fail_at = start_us + options_.latency.request_overhead_us;
    chain.failed_attempts.emplace_back(start_us, fail_at);
    if (attempt + 1 >= options_.retry.max_attempts) {
      chain.failure_us = fail_at;
      return chain;
    }
    const double jitter = injector_.UniformAt(
        node, tick, attempt, kSaltJitter + kSaltStride * round);
    start_us = fail_at + options_.retry.BackoffMicros(attempt + 1, jitter);
    ++chain.retries;
  }
}

Status Cluster::Put(const std::string& table, Slice key, Slice value) {
  const uint64_t tick = injector_.NextTick();
  ReplayReadyHints(tick);
  const auto replicas = ring_.Replicas(key, options_.replication_factor);
  const uint64_t timeout_us = options_.retry.request_timeout_us;
  std::vector<std::pair<uint32_t, Hint>> staged;
  int wrote = 0;
  uint64_t slowest_us = 0;
  Attribution crit;
  uint64_t n_retries = 0;
  uint64_t n_timeouts = 0;
  for (uint32_t node : replicas) {
    if (!NodeUp(node, tick)) {
      // Hinted handoff: capture the write for replay when the node returns
      // (the pre-fault-tolerance coordinator silently dropped it here).
      staged.push_back(
          {node, Hint{table, key.ToString(), value.ToString(), false}});
      continue;
    }
    const AttemptChain chain =
        SimulateAttempts(node, tick, /*round=*/0, kSaltWrite, /*start_us=*/0);
    n_retries += chain.retries;
    bool ok = chain.served;
    uint64_t completion = chain.failure_us;
    Attribution event;
    // A chain that gave up spent its whole interval on failed attempts.
    event.retry_us = chain.failure_us;
    if (ok) {
      completion = chain.start_us +
                   ScaleMicros(options_.latency.NodeServiceMicros(
                                   1, value.size()),
                               chain.slow_multiplier);
      event.retry_us = chain.start_us;
      event.service_us = completion - chain.start_us;
      if (timeout_us > 0 && completion > timeout_us) {
        ok = false;
        completion = timeout_us;
        // The coordinator stopped waiting at the deadline: only the
        // in-deadline part of the attempt is attributed.
        event.retry_us = std::min(chain.start_us, timeout_us);
        event.service_us = timeout_us - event.retry_us;
        ++n_timeouts;
      }
    }
    if (completion > slowest_us) {
      slowest_us = completion;
      crit = event;
    }
    if (!ok) {
      staged.push_back(
          {node, Hint{table, key.ToString(), value.ToString(), false}});
      continue;
    }
    RSTORE_RETURN_IF_ERROR(nodes_[node]->Put(table, key, value));
    ++wrote;
  }
  if (wrote == 0) {
    // Nothing durable: fail the write loudly and drop the staged hints (a
    // hint is a promise about a write that succeeded somewhere).
    return Status::IOError("all replicas down");
  }
  const uint64_t hinted = staged.size();
  CommitHints(std::move(staged));
  // Replica writes proceed in parallel; charge the slowest replica's chain.
  const uint64_t micros = options_.latency.coordinator_overhead_us +
                          slowest_us;
  const uint64_t service_us =
      crit.service_us + options_.latency.coordinator_overhead_us;
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  metrics.requests_total->Increment();
  metrics.bytes_written_total->Increment(key.size() + value.size());
  metrics.simulated_micros_total->Increment(micros);
  metrics.service_micros_total->Increment(service_us);
  if (crit.retry_us > 0) {
    metrics.retry_penalty_micros_total->Increment(crit.retry_us);
  }
  if (n_retries > 0) metrics.retries_total->Increment(n_retries);
  if (n_timeouts > 0) metrics.timeouts_total->Increment(n_timeouts);
  if (hinted > 0) metrics.handoff_hints_total->Increment(hinted);
  MutexLock lock(mu_);
  ++stats_.puts;
  stats_.bytes_written += key.size() + value.size();
  stats_.simulated_micros += micros;
  stats_.service_us += service_us;
  stats_.retry_penalty_us += crit.retry_us;
  stats_.retries += n_retries;
  stats_.timeouts += n_timeouts;
  stats_.handoff_hints += hinted;
  return Status::OK();
}

Result<std::string> Cluster::Get(const std::string& table, Slice key) {
  std::map<std::string, std::string> out;
  RSTORE_RETURN_IF_ERROR(ReadBlocking(table, {key.ToString()}, &out,
                                      /*failures=*/nullptr,
                                      /*point_get=*/true, /*trace=*/nullptr));
  if (out.empty()) return Status::NotFound("key: " + key.ToString());
  return std::move(out.begin()->second);
}

Status Cluster::MultiGet(const std::string& table,
                         const std::vector<std::string>& keys,
                         std::map<std::string, std::string>* out,
                         TraceContext* trace) {
  return ReadBlocking(table, keys, out, /*failures=*/nullptr,
                      /*point_get=*/false, trace);
}

Status Cluster::MultiGetPartial(const std::string& table,
                                const std::vector<std::string>& keys,
                                std::map<std::string, std::string>* out,
                                std::vector<KeyReadFailure>* failures,
                                TraceContext* trace) {
  RSTORE_CHECK(failures != nullptr);
  return ReadBlocking(table, keys, out, failures, /*point_get=*/false, trace);
}

Status Cluster::ReadBlocking(const std::string& table,
                             const std::vector<std::string>& keys,
                             std::map<std::string, std::string>* out,
                             std::vector<KeyReadFailure>* failures,
                             bool point_get, TraceContext* trace) {
  auto batch = std::make_shared<ReadBatch>();
  batch->table = table;
  batch->keys = keys;
  batch->partial = failures != nullptr;
  batch->point_get = point_get;
  batch->trace = trace;
  batch->values = out;
  if (failures != nullptr) batch->failures = failures;
  StartBatch(batch);
  return batch->result.status;
}

Future<AsyncMultiGetResult> Cluster::MultiGetAsync(
    Executor* executor, const std::string& table,
    const std::vector<std::string>& keys, bool partial, TraceContext* trace) {
  RSTORE_CHECK(executor != nullptr);
  {
    MutexLock lock(mu_);
    RSTORE_DCHECK(async_executor_ == nullptr || async_executor_ == executor)
        << "one Cluster, one async executor (one virtual timeline)";
    async_executor_ = executor;
  }
  auto batch = std::make_shared<ReadBatch>();
  batch->executor = executor;
  batch->table = table;
  batch->keys = keys;
  batch->partial = partial;
  batch->trace = trace;
  StartBatch(batch);
  return batch->promise.future();
}

void Cluster::StartBatch(const BatchPtr& batch) {
  // Batches submitted in the same order draw the same fault streams, which
  // is what makes a sequentially drained async run replay a blocking one.
  batch->tick = injector_.NextTick();
  ReplayReadyHints(batch->tick);
  Executor* executor = batch->executor;
  batch->submit_us = executor != nullptr ? executor->now_us() : 0;
  batch->last_event_us = batch->submit_us;
  if (batch->trace != nullptr) {
    batch->span_id = batch->trace->StartSpan("kvs.multiget");
    batch->sim_batch_start = batch->trace->sim_now_us();
  }

  // Route each key to its first serving replica. A routed key remembers its
  // replica list and position so retry exhaustion or a timeout can fail it
  // over down the list. Initial groups are issued at submission.
  using Member = ReadBatch::Member;
  std::vector<std::vector<Member>> initial(nodes_.size());
  for (size_t i = 0; i < batch->keys.size(); ++i) {
    auto replicas = ring_.Replicas(batch->keys[i],
                                   options_.replication_factor);
    const int pos = FirstUp(replicas, batch->tick);
    if (pos < 0) {
      Status down = Status::IOError("all replicas down for a key");
      if (!batch->partial) {
        AbortBatch(batch, std::move(down));
        return;
      }
      batch->failures->push_back({batch->keys[i], std::move(down)});
      continue;
    }
    const uint32_t node = replicas[static_cast<size_t>(pos)];
    initial[node].push_back(
        Member{i, std::move(replicas), static_cast<size_t>(pos)});
  }
  for (size_t node = 0; node < initial.size(); ++node) {
    if (initial[node].empty()) continue;
    batch->groups.push_back(ReadBatch::Group{static_cast<uint32_t>(node),
                                             batch->submit_us, /*round=*/0,
                                             std::move(initial[node]),
                                             Attribution{}});
  }
  batch->outstanding = batch->groups.size();
  if (batch->outstanding == 0) {
    // Nothing to contact: resolving one empty group charges the batch its
    // coordinator overhead.
    batch->outstanding = 1;
    GroupResolved(batch);
    return;
  }
  if (executor != nullptr) {
    for (size_t gi = 0; gi < batch->groups.size(); ++gi) {
      executor->PostAt(batch->submit_us,
                       [this, batch, gi] { ProcessGroup(batch, gi); });
    }
    return;
  }
  // Blocking: walk the worklist in FIFO order; failovers append to it.
  for (size_t gi = 0; gi < batch->groups.size(); ++gi) {
    ProcessGroup(batch, gi);
  }
}

void Cluster::ProcessGroup(const BatchPtr& batch, size_t group_index) {
  if (batch->failed) return;
  using Member = ReadBatch::Member;
  // Move the group out: failovers may reallocate batch->groups.
  ReadBatch::Group g = std::move(batch->groups[group_index]);
  const bool queued = batch->executor != nullptr;
  TraceContext* const trace = batch->trace;

  // Physical read from the serving replica. Replicas hold identical data:
  // down nodes are never routed to, and recovered ones are backfilled by
  // ReplayReadyHints before routing.
  std::vector<std::string> group_keys;
  group_keys.reserve(g.members.size());
  for (const Member& m : g.members) group_keys.push_back(batch->keys[m.key_idx]);
  std::map<std::string, std::string> node_result;
  Status read = nodes_[g.node]->MultiGet(batch->table, group_keys,
                                         &node_result);
  if (!read.ok()) {
    AbortBatch(batch, std::move(read));
    return;
  }
  uint64_t node_bytes = 0;
  for (const auto& [key, value] : node_result) node_bytes += value.size();

  const uint64_t timeout_us = options_.retry.request_timeout_us;
  const uint64_t hedge_threshold = options_.latency.hedge_threshold_us;
  // The group abandons all outstanding work at its simulated deadline,
  // which runs from its issue instant — queueing at the node eats into the
  // coordinator's patience. Every span it records is clamped there, which
  // keeps children inside the "kvs.multiget" parent interval.
  const uint64_t deadline = timeout_us > 0
                                ? g.start_us + timeout_us
                                : std::numeric_limits<uint64_t>::max();

  // Per-node FIFO queue (async only): service begins once the node has
  // drained every batch it previously accepted on this virtual timeline.
  uint64_t service_start = g.start_us;
  if (queued) {
    MutexLock lock(mu_);
    service_start = std::max(g.start_us, async_node_busy_us_[g.node]);
  }

  const AttemptChain chain =
      SimulateAttempts(g.node, batch->tick, g.round, kSaltRead, service_start);
  batch->result.retries += chain.retries;
  if (trace != nullptr) {
    for (size_t k = 0; k < chain.failed_attempts.size(); ++k) {
      const uint64_t attempt_start =
          std::min(chain.failed_attempts[k].first, deadline);
      const uint64_t attempt_end =
          std::min(chain.failed_attempts[k].second, deadline);
      if (attempt_start >= attempt_end) continue;  // abandoned before issue
      batch->sim_spans.push_back(
          {StringPrintf("node%u.retry%zu", g.node, k + 1), attempt_start,
           attempt_end, {}});
    }
  }
  // Considers one event as the batch's critical event.
  auto consider = [&batch](uint64_t event_us, const Attribution& attr) {
    if (event_us > batch->last_event_us) {
      batch->last_event_us = event_us;
      batch->crit = attr;
    }
  };
  // Fails the group's `members` over at `event_us`: the wait for the node's
  // queue (clamped at the event — the coordinator may stop waiting
  // mid-queue) is queue wait, the rest of the interval went to failed
  // attempts / backoff, except `service_us` of an attempt that was cut off
  // at the deadline.
  auto fail_over = [&](std::vector<Member> members, uint64_t event_us,
                       uint64_t service_us, const char* reason) {
    const uint64_t queue_end = std::min(service_start, event_us);
    const Attribution event{
        g.attr.queue_us + (queue_end - g.start_us),
        g.attr.service_us + service_us,
        g.attr.retry_us + (event_us - queue_end - service_us), 0};
    consider(event_us, event);
    Status status = FailOver(batch, std::move(members), event_us, g.round + 1,
                             event, reason);
    if (status.ok()) return true;
    AbortBatch(batch, std::move(status));
    return false;
  };
  if (!chain.served) {
    if (fail_over(std::move(g.members), std::min(chain.failure_us, deadline),
                  0, "replicas exhausted for a key")) {
      GroupResolved(batch);
    }
    return;
  }
  if (chain.start_us >= deadline) {
    // Queueing and/or retry backoff pushed the serving attempt past the
    // deadline: the whole group times out without the attempt being issued.
    ++batch->result.timeouts;
    if (fail_over(std::move(g.members), deadline, 0, "request timed out")) {
      GroupResolved(batch);
    }
    return;
  }

  const uint64_t node_us = ScaleMicros(
      options_.latency.NodeServiceMicros(group_keys.size(), node_bytes),
      chain.slow_multiplier);
  const uint64_t primary_completion = chain.start_us + node_us;
  ++batch->nodes_contacted;
  if (queued) {
    {
      MutexLock lock(mu_);
      async_node_busy_us_[g.node] =
          std::max(async_node_busy_us_[g.node], primary_completion);
    }
    MaybeSampleAsyncLoad(batch->executor->now_us());
  }

  // Hedged reads: when the replica's modeled service time crosses the
  // threshold, speculatively re-issue each key to its next serving replica
  // and complete at whichever finishes first. The hedge reads the same
  // bytes, so data still comes from the primary's result. No hedge fires
  // once the deadline has passed its issue time. On the async timeline the
  // hedge target's queue delays the speculative request, so whether a hedge
  // wins depends on how busy its target is.
  std::vector<uint64_t> completion(g.members.size(), primary_completion);
  struct HedgeEvent {
    uint32_t target;
    uint64_t end_us;
    size_t num_members;
    uint64_t latest_need;  // last effective completion among its members
  };
  std::vector<HedgeEvent> hedge_events;
  const uint64_t hedge_issue = chain.start_us + hedge_threshold;
  if (hedge_threshold > 0 && node_us > hedge_threshold &&
      hedge_issue < deadline) {
    std::map<uint32_t, std::vector<size_t>> by_target;  // member indexes
    for (size_t mi = 0; mi < g.members.size(); ++mi) {
      const Member& m = g.members[mi];
      const int next = NextUp(m.replicas, m.pos, batch->tick);
      if (next >= 0) {
        by_target[m.replicas[static_cast<size_t>(next)]].push_back(mi);
      }
    }
    for (const auto& [target, member_idxs] : by_target) {
      ++batch->result.hedges;
      const FaultDecision hd =
          injector_.Decide(target, batch->tick, /*attempt=*/0,
                           kSaltHedge + kSaltStride * g.round);
      const bool hedge_ok = hd.kind != FaultKind::kTransientError;
      uint64_t hedge_begin = hedge_issue;
      if (queued) {
        MutexLock lock(mu_);
        hedge_begin = std::max(hedge_issue, async_node_busy_us_[target]);
      }
      uint64_t hedge_end = hedge_begin + options_.latency.request_overhead_us;
      if (hedge_ok) {
        uint64_t hedge_bytes = 0;
        for (size_t mi : member_idxs) {
          auto it = node_result.find(batch->keys[g.members[mi].key_idx]);
          if (it != node_result.end()) hedge_bytes += it->second.size();
        }
        hedge_end = hedge_begin +
                    ScaleMicros(options_.latency.NodeServiceMicros(
                                    member_idxs.size(), hedge_bytes),
                                hd.slow_multiplier);
        if (queued) {
          MutexLock lock(mu_);
          async_node_busy_us_[target] =
              std::max(async_node_busy_us_[target], hedge_end);
        }
        if (hedge_end < primary_completion) {
          ++batch->result.hedge_wins;
          for (size_t mi : member_idxs) completion[mi] = hedge_end;
        }
      }
      HedgeEvent ev{target, hedge_end, member_idxs.size(), /*latest=*/0};
      for (size_t mi : member_idxs) {
        ev.latest_need =
            std::max(ev.latest_need, std::min(completion[mi], deadline));
      }
      hedge_events.push_back(ev);
    }
  }

  // Per-key deadline check, then serve whatever made it in time. A member's
  // effective completion — when the coordinator stops waiting on it — is
  // its (possibly hedged) completion, or the deadline.
  std::vector<Member> timed_out;
  uint64_t group_end = chain.start_us;  // last instant this node mattered
  for (size_t mi = 0; mi < g.members.size(); ++mi) {
    if (completion[mi] > deadline) {
      group_end = std::max(group_end, deadline);
      timed_out.push_back(std::move(g.members[mi]));
      continue;
    }
    group_end = std::max(group_end, completion[mi]);
    // Queue wait ends when the node starts the chain; backoffs until the
    // serving attempt are penalty; the node's full modeled service is
    // service; a winning hedge's saving subtracts.
    consider(completion[mi],
             Attribution{g.attr.queue_us + (service_start - g.start_us),
                         g.attr.service_us + node_us,
                         g.attr.retry_us + (chain.start_us - service_start),
                         primary_completion - completion[mi]});
    auto it = node_result.find(batch->keys[g.members[mi].key_idx]);
    if (it != node_result.end()) {
      // Moved, not copied; erasing it keeps a key requested twice from
      // being served (and counted) twice.
      batch->result.bytes_read += it->second.size();
      (*batch->values)[it->first] = std::move(it->second);
      node_result.erase(it);
    }
  }
  if (trace != nullptr) {
    // The node's span ends when its last member resolved (completed,
    // superseded by a hedge, or abandoned at the deadline) — not at the
    // modeled completion of a request nobody waited for.
    batch->sim_spans.push_back(
        {StringPrintf("node%u", g.node), chain.start_us,
         std::min(group_end, primary_completion),
         {{"keys", std::to_string(group_keys.size())},
          {"bytes", std::to_string(node_bytes)}}});
    for (const HedgeEvent& ev : hedge_events) {
      batch->sim_spans.push_back(
          {StringPrintf("node%u.hedge", ev.target), hedge_issue,
           std::max(hedge_issue, std::min(ev.end_us, ev.latest_need)),
           {{"keys", std::to_string(ev.num_members)}}});
    }
  }
  if (!timed_out.empty()) {
    ++batch->result.timeouts;
    // The coordinator waited out [issue, deadline]: queue wait, then
    // backoffs, then the in-deadline slice of the attempt as service.
    if (!fail_over(std::move(timed_out), deadline, deadline - chain.start_us,
                   "request timed out")) {
      return;
    }
  }
  GroupResolved(batch);
}

void Cluster::MaybeSampleAsyncLoad(uint64_t now_us) {

  // One sample sweep per interval of virtual time keeps the recorder's
  // bounded ring meaningful under saturation (thousands of groups per
  // virtual millisecond would otherwise rotate it instantly).
  constexpr uint64_t kSampleIntervalUs = 1000;
  std::vector<uint64_t> busy;
  {
    MutexLock lock(mu_);
    if (now_us < next_sample_us_) return;
    next_sample_us_ = now_us + kSampleIntervalUs;
    busy = async_node_busy_us_;
  }
  FlightRecorder& recorder = FlightRecorder::Default();
  for (uint32_t node = 0; node < busy.size(); ++node) {
    FlightSample sample;
    sample.sim_us = now_us;
    sample.node = node;
    sample.busy_horizon_us = busy[node];
    sample.backlog_us = busy[node] > now_us ? busy[node] - now_us : 0;
    recorder.AddSample(sample);
  }
}

Status Cluster::FailOver(const BatchPtr& batch,
                         std::vector<ReadBatch::Member> failed,
                         uint64_t fail_us, uint32_t next_round,
                         const Attribution& attr, const char* reason) {
  std::map<uint32_t, std::vector<ReadBatch::Member>> regrouped;
  for (ReadBatch::Member& m : failed) {
    const int next = NextUp(m.replicas, m.pos, batch->tick);
    if (next < 0) {
      Status exhausted = Status::IOError(reason);
      if (!batch->partial) return exhausted;
      batch->failures->push_back(
          {batch->keys[m.key_idx], std::move(exhausted)});
      continue;
    }
    m.pos = static_cast<size_t>(next);
    regrouped[m.replicas[m.pos]].push_back(std::move(m));
  }
  for (auto& [node, members] : regrouped) {
    // The new group starts at the failing event's instant, whose
    // attribution it inherits.
    batch->groups.push_back(
        ReadBatch::Group{node, fail_us, next_round, std::move(members), attr});
    ++batch->outstanding;
    if (batch->executor != nullptr) {
      const size_t gi = batch->groups.size() - 1;
      batch->executor->PostAt(fail_us,
                              [this, batch, gi] { ProcessGroup(batch, gi); });
    }
  }
  return Status::OK();
}

void Cluster::GroupResolved(const BatchPtr& batch) {
  RSTORE_DCHECK(batch->outstanding > 0);
  if (--batch->outstanding > 0 || batch->failed) return;
  const uint64_t charged = options_.latency.coordinator_overhead_us +
                           (batch->last_event_us - batch->submit_us);
  batch->result.charged_micros = charged;
  if (batch->executor == nullptr) {
    FinalizeBatch(batch);
    return;
  }
  // The future completes at the batch's simulated completion instant, so a
  // continuation that issues a dependent batch (the map-key fetch of a
  // query) submits it at the causally correct virtual time.
  batch->executor->PostAt(batch->submit_us + charged,
                          [this, batch] { FinalizeBatch(batch); });
}

void Cluster::EmitSimSpans(const ReadBatch& batch) {
  for (const ReadBatch::SimSpan& span : batch.sim_spans) {
    const uint32_t id = batch.trace->AddSimulatedSpan(
        span.name, batch.sim_batch_start + (span.start_us - batch.submit_us),
        batch.sim_batch_start + (span.end_us - batch.submit_us));
    for (const auto& [key, value] : span.notes) {
      batch.trace->Annotate(id, key, value);
    }
  }
}

void Cluster::FinalizeBatch(const BatchPtr& batch) {
  AsyncMultiGetResult& result = batch->result;
  const uint64_t charged = result.charged_micros;
  // The batch's attribution is its critical event's, plus the coordinator
  // overhead as service: queue + service + retry - hedge == charged.
  result.queue_wait_us = batch->crit.queue_us;
  result.service_us =
      batch->crit.service_us + options_.latency.coordinator_overhead_us;
  result.retry_penalty_us = batch->crit.retry_us;
  result.hedge_delta_us = batch->crit.hedge_saved_us;
  const size_t num_keys = batch->keys.size();

  if (TraceContext* trace = batch->trace; trace != nullptr) {
    // Ending the span after this advance makes its simulated duration equal
    // the charge (asserted by the observability tests).
    EmitSimSpans(*batch);
    trace->AdvanceSim(charged);
    const uint32_t id = batch->span_id;
    trace->Annotate(id, "keys", std::to_string(num_keys));
    trace->Annotate(id, "bytes", std::to_string(result.bytes_read));
    trace->Annotate(id, "nodes", std::to_string(batch->nodes_contacted));
    trace->Annotate(id, "queue_wait_us", std::to_string(result.queue_wait_us));
    trace->Annotate(id, "service_us", std::to_string(result.service_us));
    trace->Annotate(id, "retry_penalty_us",
                    std::to_string(result.retry_penalty_us));
    trace->Annotate(id, "hedge_delta_us",
                    std::to_string(result.hedge_delta_us));
    trace->EndSpan(id);
  }
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  metrics.requests_total->Increment();
  if (!batch->point_get) {
    metrics.multiget_batches_total->Increment();
    metrics.multiget_batch_keys->Observe(num_keys);
  }
  metrics.keys_requested_total->Increment(num_keys);
  metrics.bytes_read_total->Increment(result.bytes_read);
  metrics.simulated_micros_total->Increment(charged);
  metrics.service_micros_total->Increment(result.service_us);
  if (result.queue_wait_us > 0) {
    metrics.queue_wait_micros_total->Increment(result.queue_wait_us);
  }
  if (result.retry_penalty_us > 0) {
    metrics.retry_penalty_micros_total->Increment(result.retry_penalty_us);
  }
  if (result.hedge_delta_us > 0) {
    metrics.hedge_saved_micros_total->Increment(result.hedge_delta_us);
  }
  if (result.retries > 0) metrics.retries_total->Increment(result.retries);
  if (result.hedges > 0) metrics.hedges_total->Increment(result.hedges);
  if (result.hedge_wins > 0) {
    metrics.hedge_wins_total->Increment(result.hedge_wins);
  }
  if (result.timeouts > 0) metrics.timeouts_total->Increment(result.timeouts);
  {
    MutexLock lock(mu_);
    if (batch->point_get) {
      ++stats_.gets;
    } else {
      ++stats_.multiget_batches;
    }
    stats_.keys_requested += num_keys;
    stats_.bytes_read += result.bytes_read;
    stats_.simulated_micros += charged;
    stats_.queue_wait_us += result.queue_wait_us;
    stats_.service_us += result.service_us;
    stats_.retry_penalty_us += result.retry_penalty_us;
    stats_.hedge_delta_us += result.hedge_delta_us;
    stats_.retries += result.retries;
    stats_.hedges += result.hedges;
    stats_.hedge_wins += result.hedge_wins;
    stats_.timeouts += result.timeouts;
  }
  // Last, with no locks held: continuations may submit follow-up batches.
  // A blocking caller reads the result in place.
  if (batch->executor != nullptr) batch->promise.Set(std::move(result));
}

void Cluster::AbortBatch(const BatchPtr& batch, Status error) {
  batch->failed = true;
  if (batch->trace != nullptr) {
    // Nothing is charged and the span closes without a simulated advance. A
    // blocking call's trace keeps the children of the attempts it made
    // before the failure; an async batch's span closes bare.
    if (batch->executor == nullptr) EmitSimSpans(*batch);
    batch->trace->EndSpan(batch->span_id);
  }
  batch->result.status = std::move(error);
  if (batch->executor != nullptr) batch->promise.Set(std::move(batch->result));
}

Status Cluster::Delete(const std::string& table, Slice key) {
  const uint64_t tick = injector_.NextTick();
  ReplayReadyHints(tick);
  const auto replicas = ring_.Replicas(key, options_.replication_factor);
  const uint64_t timeout_us = options_.retry.request_timeout_us;
  std::vector<std::pair<uint32_t, Hint>> staged;
  int deleted = 0;
  uint64_t slowest_us = 0;
  Attribution crit;
  uint64_t n_retries = 0;
  uint64_t n_timeouts = 0;
  for (uint32_t node : replicas) {
    if (!NodeUp(node, tick)) {
      staged.push_back({node, Hint{table, key.ToString(), "", true}});
      continue;
    }
    const AttemptChain chain =
        SimulateAttempts(node, tick, /*round=*/0, kSaltDelete, /*start_us=*/0);
    n_retries += chain.retries;
    bool ok = chain.served;
    uint64_t completion = chain.failure_us;
    Attribution event;
    event.retry_us = chain.failure_us;
    if (ok) {
      completion =
          chain.start_us + ScaleMicros(options_.latency.NodeServiceMicros(1, 0),
                                       chain.slow_multiplier);
      event.retry_us = chain.start_us;
      event.service_us = completion - chain.start_us;
      if (timeout_us > 0 && completion > timeout_us) {
        ok = false;
        completion = timeout_us;
        event.retry_us = std::min(chain.start_us, timeout_us);
        event.service_us = timeout_us - event.retry_us;
        ++n_timeouts;
      }
    }
    if (completion > slowest_us) {
      slowest_us = completion;
      crit = event;
    }
    if (!ok) {
      staged.push_back({node, Hint{table, key.ToString(), "", true}});
      continue;
    }
    RSTORE_RETURN_IF_ERROR(nodes_[node]->Delete(table, key));
    ++deleted;
  }
  if (deleted == 0) return Status::IOError("all replicas down");
  const uint64_t hinted = staged.size();
  CommitHints(std::move(staged));
  MutexLock lock(mu_);
  ++stats_.deletes;
  stats_.simulated_micros +=
      options_.latency.coordinator_overhead_us + slowest_us;
  stats_.service_us +=
      crit.service_us + options_.latency.coordinator_overhead_us;
  stats_.retry_penalty_us += crit.retry_us;
  stats_.retries += n_retries;
  stats_.timeouts += n_timeouts;
  stats_.handoff_hints += hinted;
  return Status::OK();
}

Status Cluster::Scan(const std::string& table,
                     const std::function<void(Slice key, Slice value)>& fn) {
  const uint64_t tick = injector_.CurrentTick();
  ReplayReadyHints(tick);
  // With replication a key lives on several nodes; dedupe by only emitting
  // keys whose first serving replica is the node being scanned. Keys whose
  // replicas are all down are silently skipped — Scan is administrative and
  // reports what the cluster can currently see.
  for (uint32_t node = 0; node < nodes_.size(); ++node) {
    if (!NodeUp(node, tick)) continue;
    Status s = nodes_[node]->Scan(table, [&](Slice key, Slice value) {
      auto replicas = ring_.Replicas(key, options_.replication_factor);
      const int pos = FirstUp(replicas, tick);
      if (pos >= 0 && replicas[static_cast<size_t>(pos)] == node) {
        fn(key, value);
      }
    });
    RSTORE_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Result<uint64_t> Cluster::TableSize(const std::string& table) {
  uint64_t count = 0;
  Status s = Scan(table, [&](Slice, Slice) { ++count; });
  if (!s.ok()) return s;
  return count;
}

void Cluster::CommitHints(std::vector<std::pair<uint32_t, Hint>> staged) {
  if (staged.empty()) return;
  MutexLock lock(hints_mu_);
  for (auto& [node, hint] : staged) {
    hints_[node].push_back(std::move(hint));
  }
  hint_count_.fetch_add(staged.size(), std::memory_order_relaxed);
}

void Cluster::ReplayReadyHints(uint64_t tick) {
  if (hint_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<std::pair<uint32_t, std::vector<Hint>>> ready;
  {
    MutexLock lock(hints_mu_);
    for (uint32_t node = 0; node < hints_.size(); ++node) {
      if (hints_[node].empty() || !NodeUp(node, tick)) continue;
      ready.emplace_back(node, std::move(hints_[node]));
      hints_[node].clear();
    }
    uint64_t moved = 0;
    for (const auto& [node, hints] : ready) moved += hints.size();
    if (moved > 0) hint_count_.fetch_sub(moved, std::memory_order_relaxed);
  }
  if (ready.empty()) return;
  uint64_t replayed = 0;
  for (auto& [node, hints] : ready) {
    for (Hint& hint : hints) {
      if (hint.is_delete) {
        // The key may never have reached this node; NotFound is fine.
        Status s = nodes_[node]->Delete(hint.table, hint.key);
        (void)s;
      } else {
        Status s = nodes_[node]->Put(hint.table, hint.key, hint.value);
        RSTORE_CHECK(s.ok()) << "hint replay failed: " << s.ToString();
      }
      ++replayed;
    }
  }
  // Replayed writes are repair traffic, not client latency: they charge no
  // simulated micros, only the counter.
  ClusterMetrics::Get().handoff_replays_total->Increment(replayed);
  MutexLock lock(mu_);
  stats_.handoff_replays += replayed;
}

KVStats Cluster::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void Cluster::ResetStats() {
  MutexLock lock(mu_);
  stats_ = KVStats{};
}

void Cluster::SetNodeAlive(uint32_t node, bool alive) {
  RSTORE_CHECK(node < alive_.size());
  alive_[node].store(alive, std::memory_order_release);
  // Recovery backfills the node from its hint queue right away, so a query
  // issued immediately after the flip already sees the healed replica.
  if (alive) ReplayReadyHints(injector_.CurrentTick());
}

bool Cluster::IsNodeAlive(uint32_t node) const {
  RSTORE_CHECK(node < alive_.size());
  return alive_[node].load(std::memory_order_acquire);
}

uint64_t Cluster::NodeBytes(uint32_t node) const {
  RSTORE_CHECK(node < nodes_.size());
  return nodes_[node]->TotalBytes();
}

size_t Cluster::PendingHints(uint32_t node) const {
  RSTORE_CHECK(node < nodes_.size());
  MutexLock lock(hints_mu_);
  return hints_[node].size();
}

}  // namespace rstore
