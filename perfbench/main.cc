// End-to-end benchmark of RStore: one process generates a seeded dataset and
// query stream, drives RStore's public API, checks every answer against an
// oracle computed from the dataset, and prints each metric by name and unit.
//
//   perfbench --workload checkout|interactive|ingest --seed N --seconds S
//             --trace 0|1
//
// --trace 0 reports the end-to-end metrics (wall, simulated and Fig. 12
// wall + simulated latency, throughput, ingest rate, space, memory).
// --trace 1 is a separate run that reports per-layer metrics: it opens the
// store behind a counting KVStore wrapper, passes a TraceContext to every
// call, and reads the spans the library emits. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "oracle.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rstore::QueryStats;
using rstore::workload::Query;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  Workload workload = Workload::kCheckout;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Collects metrics, checks and operation counts, and prints them.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  /// Records a percentile metric and the sample it came from.
  void AddPercentile(const std::string& name, const Percentile& p) {
    Add(name, "us", p.value);
    Note(name + ": " + Describe(p));
  }
  /// A metric measured and printed but left out of the result: its
  /// run-to-run spread on a shared host exceeds a tenth (see README.md).
  void AddUnsteady(const std::string& name, const std::string& unit,
                   double value, const std::string& detail = "") {
    Note(name + " = " + Format(value) + " " + unit + " (" + detail +
         (detail.empty() ? "" : "; ") +
         "not in BENCHMARK.json: wall-clock noise)");
  }
  static std::string Describe(const Percentile& p) {
    return "p" + Format(p.p) + " of " + std::to_string(p.count) +
           " samples, " + std::to_string(p.beyond) + " beyond";
  }
  void Note(const std::string& line) { notes_.push_back(line); }
  /// One operation against the store; `ok` is false for a failed call or a
  /// wrong answer.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A check of the run itself (determinism, equivalence, attribution).
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    Note("CHECK FAILED: " + what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print() const {
    for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-36s %18s %s\n", m.name.c_str(), Format(m.value).c_str(),
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct_ && failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " +
              Format(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  /// Shortest decimal form that reads back as the same double.
  static std::string Format(double value) {
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

bool SameStats(const QueryStats& a, const QueryStats& b) {
  for (const QueryStats::Field& field : rstore::kQueryStatsFields) {
    if (a.*field.member != b.*field.member) return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MedianOf(std::vector<double> values) { return Median(values).value; }

[[noreturn]] void Die(const std::string& what, const rstore::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

bool IsReadWorkload(Workload w) { return w != Workload::kIngest; }

/// Set-up: generate the datasets, open the stores, and (read workloads)
/// bulk load them. Timed as a whole; bulk loads also timed alone.
struct SetupResult {
  std::vector<rstore::workload::GeneratedDataset> gens;
  StoreSet set;
  double seconds = 0;
  double bulk_seconds = 0;
  uint64_t bulk_sim_us = 0;
  uint64_t unique_records = 0;
  uint64_t user_bytes = 0;
};

void DoSetup(const Config& config, bool counting, SetupResult* out) {
  // Release the previous round's stores and datasets before the clock.
  out->set = StoreSet{};
  out->gens.clear();
  const auto start = Clock::now();
  out->gens = GenerateDatasets(config.seed);
  auto set = OpenStores(out->gens, config.workload, counting);
  if (!set.ok()) Die("open", set.status());
  out->set = std::move(set).value();
  out->bulk_seconds = 0;
  if (IsReadWorkload(config.workload)) {
    const uint64_t sim_before = out->set.cluster->stats().simulated_micros;
    const auto bulk_start = Clock::now();
    for (size_t i = 0; i < out->gens.size(); ++i) {
      rstore::Status s = out->set.stores[i]->BulkLoad(out->gens[i].dataset,
                                                      out->gens[i].payloads);
      if (!s.ok()) Die("bulk load", s);
    }
    out->bulk_seconds = SecondsSince(bulk_start);
    out->bulk_sim_us =
        out->set.cluster->stats().simulated_micros - sim_before;
  }
  out->seconds = SecondsSince(start);
  out->unique_records = 0;
  out->user_bytes = 0;
  for (const auto& gen : out->gens) {
    out->unique_records += gen.stats.unique_records;
    out->user_bytes += gen.stats.unique_record_bytes;
  }
}

/// Per-call samples of one complete pass over the stream.
struct Pass {
  std::vector<double> wall_us;
  std::vector<double> e2e_us;  // wall + simulated
  double call_seconds = 0;

  void Add(const SyncOutcome& o) {
    const double wall = static_cast<double>(o.wall_ns) / 1e3;
    wall_us.push_back(wall);
    e2e_us.push_back(wall + static_cast<double>(o.stats.simulated_micros));
    call_seconds += static_cast<double>(o.wall_ns) / 1e9;
  }
};

/// Samples of a measured read phase.
struct ReadSamples {
  std::vector<Pass> passes;  // complete passes only
  std::vector<double> sim_us;  // first pass (deterministic)
  std::vector<SyncOutcome> first_pass;

  /// The complete pass with the least total call time. The wall metrics
  /// come from it: other tenants of the host only ever slow a pass down,
  /// by up to half on a shared machine, so the fastest pass is the
  /// steadiest estimate of the program's own cost.
  const Pass& Fastest() const {
    const Pass* best = &passes.front();
    for (const Pass& p : passes) {
      if (p.call_seconds < best->call_seconds) best = &p;
    }
    return *best;
  }
};

/// Closed loop, one client, sync API: replays `stream` pass after pass
/// until `deadline`, the first pass always in full; a pass the deadline
/// cuts short is checked but not sampled. The cache is emptied
/// before each pass so every pass repeats the first one's backend traffic
/// exactly, which is checked.
void MeasureReads(const StoreSet& set, const std::vector<TaggedQuery>& stream,
                  const std::vector<Answer>& expected,
                  Clock::time_point deadline, ReadSamples* samples,
                  Report* report) {
  bool deterministic = true;
  bool attributed = true;
  for (size_t pass = 0;; ++pass) {
    set.ClearCache();
    Pass samples_of_pass;
    for (size_t i = 0; i < stream.size(); ++i) {
      if (pass > 0 && Clock::now() >= deadline) break;
      SyncOutcome o = RunSync(set.stores[stream[i].store].get(),
                              stream[i].query, nullptr);
      report->Op(o.answer == expected[i]);
      attributed &= AttributionHolds(o.stats);
      samples_of_pass.Add(o);
      if (pass == 0) {
        samples->sim_us.push_back(
            static_cast<double>(o.stats.simulated_micros));
        samples->first_pass.push_back(o);
      } else {
        deterministic &= SameStats(o.stats, samples->first_pass[i].stats);
      }
    }
    if (samples_of_pass.wall_us.size() == stream.size()) {
      samples->passes.push_back(std::move(samples_of_pass));
    }
    if (Clock::now() >= deadline) break;
  }
  report->Check(deterministic,
                "a repeated pass charged different backend traffic");
  report->Check(attributed,
                "queue_wait + service + retry - hedge != simulated");
}

/// Replays the stream through the async API with four queries in flight and
/// checks it against the sync pass: same answers, same span per query, and
/// (without a cache, whose hits depend on completion order) the same bytes.
/// With a cache, a one-in-flight replay must match the sync pass counter
/// for counter. Returns the replay at four in flight.
AsyncRun ReplayAsync(const StoreSet& set, const std::vector<TaggedQuery>& stream,
                     const std::vector<Answer>& expected,
                     const std::vector<SyncOutcome>& sync,
                     rstore::Executor* executor, Report* report) {
  const bool cached = set.cache != nullptr;
  set.ClearCache();
  AsyncRun run = RunAsync(set, executor, stream, 4);
  bool same_span = true;
  bool same_bytes = true;
  bool attributed = true;
  for (size_t i = 0; i < stream.size(); ++i) {
    report->Op(run.answers[i] == expected[i]);
    same_span &= run.stats[i].chunks_fetched == sync[i].stats.chunks_fetched;
    same_bytes &= run.stats[i].bytes_fetched == sync[i].stats.bytes_fetched;
    attributed &= AttributionHolds(run.stats[i]);
  }
  report->Check(same_span, "async replay fetched different chunks");
  report->Check(cached || same_bytes, "async replay fetched different bytes");
  report->Check(attributed,
                "async queue_wait + service + retry - hedge != simulated");
  if (cached) {
    set.ClearCache();
    AsyncRun serial = RunAsync(set, executor, stream, 1);
    bool same = true;
    for (size_t i = 0; i < stream.size(); ++i) {
      report->Op(serial.answers[i] == expected[i]);
      same &= SameStats(serial.stats[i], sync[i].stats);
    }
    report->Check(same, "one-in-flight async replay differs from sync pass");
  }
  return run;
}

/// Replays every dataset's commits (consumed) into its store; returns the
/// records committed.
uint64_t IngestAll(const StoreSet& set, std::vector<CommitPlan> plans,
                   rstore::TraceContext* trace, Report* report) {
  uint64_t records = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    records += plans[i].records;
    rstore::Status s =
        ReplayCommits(set.stores[i].get(), std::move(plans[i]), trace);
    report->Op(s.ok());
    if (!s.ok()) Die("ingest", s);
  }
  return records;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

constexpr int kSetupRounds = 5;

void MeasuredRun(const Config& config, Report* report) {
  SetupResult setup;
  std::vector<double> setup_s;
  std::vector<double> ingest_rps;
  std::vector<double> ingest_sim_s;
  for (int round = 0; round < kSetupRounds; ++round) {
    DoSetup(config, /*counting=*/false, &setup);
    setup_s.push_back(setup.seconds);
    if (IsReadWorkload(config.workload)) {
      // Read workloads ingest by bulk load, inside set-up.
      ingest_rps.push_back(static_cast<double>(setup.unique_records) /
                           setup.bulk_seconds);
      ingest_sim_s.push_back(static_cast<double>(setup.bulk_sim_us) / 1e6);
    }
  }
  const std::vector<TaggedQuery> stream =
      StreamFor(setup.gens, config.workload, config.seed);
  const std::vector<Answer> expected = ExpectedAnswers(setup.gens, stream);

  ReadSamples reads;
  uint64_t stored_bytes = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  if (IsReadWorkload(config.workload)) {
    MeasureReads(setup.set, stream, expected, deadline, &reads, report);
    stored_bytes = setup.set.StoredBytes();
  } else {
    // Ingest rounds on fresh stores until the deadline; each round replays
    // every commit, flushes, then reads the stores back through the stream.
    std::vector<CommitPlan> plans;
    for (const auto& gen : setup.gens) plans.push_back(PlanCommits(gen));
    for (int round = 0;; ++round) {
      if (round > 0) {
        auto fresh = OpenStores(setup.gens, config.workload, false);
        if (!fresh.ok()) Die("open", fresh.status());
        setup.set = std::move(fresh).value();
      }
      std::vector<CommitPlan> commits = plans;  // consumed by the replay
      const uint64_t sim_before = setup.set.cluster->stats().simulated_micros;
      const auto start = Clock::now();
      const uint64_t records =
          IngestAll(setup.set, std::move(commits), nullptr, report);
      ingest_rps.push_back(static_cast<double>(records) /
                           SecondsSince(start));
      ingest_sim_s.push_back(
          static_cast<double>(setup.set.cluster->stats().simulated_micros -
                              sim_before) /
          1e6);
      report->Check(ingest_sim_s.back() == ingest_sim_s.front(),
                    "ingest rounds charged different simulated time");
      const std::vector<SyncOutcome> previous = std::move(reads.first_pass);
      reads.first_pass.clear();
      reads.sim_us.clear();
      // One full read-back pass per round: a deadline already passed ends
      // MeasureReads after its first pass.
      MeasureReads(setup.set, stream, expected, Clock::now(), &reads, report);
      if (!previous.empty()) {
        bool same = true;
        for (size_t i = 0; i < stream.size(); ++i) {
          same &= SameStats(previous[i].stats, reads.first_pass[i].stats);
        }
        report->Check(same, "ingest rounds produced different layouts");
      }
      if (round == 0) stored_bytes = setup.set.StoredBytes();
      if (Clock::now() >= deadline) break;
    }
  }

  rstore::Executor executor(0);
  AsyncRun async = ReplayAsync(setup.set, stream, expected, reads.first_pass,
                               &executor, report);

  const Pass& fastest = reads.Fastest();
  report->Add("setup_s", "s", MedianOf(setup_s));
  const Percentile wall_p50 = Median(fastest.wall_us);
  const Percentile wall_p99 = TailPercentile(fastest.wall_us);
  const Percentile e2e_p99 = TailPercentile(fastest.e2e_us);
  report->AddUnsteady("read_wall_p50_us", "us", wall_p50.value,
                      Report::Describe(wall_p50));
  report->AddUnsteady("read_wall_p99_us", "us", wall_p99.value,
                      Report::Describe(wall_p99));
  report->AddPercentile("read_sim_p50_us", Median(reads.sim_us));
  report->AddPercentile("read_sim_p99_us", TailPercentile(reads.sim_us));
  report->AddPercentile("read_e2e_p50_us", Median(fastest.e2e_us));
  report->AddUnsteady("read_e2e_p99_us", "us", e2e_p99.value,
                      Report::Describe(e2e_p99));
  report->AddUnsteady("reads_per_s", "1/s",
                      static_cast<double>(fastest.wall_us.size()) /
                          fastest.call_seconds);
  report->Add("sim_saturation_qps", "1/s",
              static_cast<double>(stream.size()) * 1e6 /
                  static_cast<double>(async.makespan_us));
  // Like the wall metrics, the fastest set-up's bulk load or ingest round.
  report->AddUnsteady("ingest_records_per_s", "1/s",
                      *std::max_element(ingest_rps.begin(), ingest_rps.end()));
  report->Add("ingest_sim_s", "s", MedianOf(ingest_sim_s));
  report->Add("stored_bytes_per_user_byte", "ratio",
              static_cast<double>(stored_bytes) /
                  static_cast<double>(setup.user_bytes));
  report->Add("peak_rss_mb", "MB", PeakRssMb());
  std::vector<double> pass_seconds;
  for (const Pass& p : reads.passes) pass_seconds.push_back(p.call_seconds);
  report->Note("setup rounds: " + std::to_string(setup_s.size()) +
               ", ingest samples: " + std::to_string(ingest_rps.size()) +
               ", complete passes over a stream of " +
               std::to_string(stream.size()) + ": " +
               std::to_string(reads.passes.size()) + ", call seconds " +
               Report::Format(*std::min_element(pass_seconds.begin(),
                                                pass_seconds.end())) +
               " (fastest) to " +
               Report::Format(*std::max_element(pass_seconds.begin(),
                                                pass_seconds.end())));
  report->Note("error_rate: " +
               Report::Format(static_cast<double>(report->failed()) /
                              static_cast<double>(report->attempted())) +
               " (" + std::to_string(report->failed()) + " of " +
               std::to_string(report->attempted()) + " operations)");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// Chunk bodies kept for the codec replay, and its passes over them.
constexpr uint64_t kCaptureBytes = 32ull << 20;
constexpr int kCodecPasses = 3;

/// Per-query sums of the traced pass.
struct LayerSums {
  uint64_t queries = 0;
  double call_us = 0;
  double kvstore_us = 0;
  double cache_us = 0;
  double decode_us = 0;
  double query_self_us = 0;
  double unattributed_us = 0;
  uint64_t multiget_calls = 0;
  uint64_t keys = 0;
  uint64_t bytes_fetched = 0;
  uint64_t chunks = 0;
  uint64_t records = 0;
  uint64_t bytes_returned = 0;
};

void TracedRun(const Config& config, Report* report) {
  SetupResult setup;
  DoSetup(config, /*counting=*/true, &setup);
  const StoreSet& set = setup.set;
  CountingKVStore* kv = set.counting.get();

  // Write side: the bulk load of set-up, or one traced ingest replay.
  rstore::TraceContext ingest_trace;
  if (!IsReadWorkload(config.workload)) {
    std::vector<CommitPlan> plans;
    for (const auto& gen : setup.gens) plans.push_back(PlanCommits(gen));
    kv->ResetCounters();
    IngestAll(set, std::move(plans), &ingest_trace, report);
  }
  const CallCounters writes = kv->counters();
  const SpanTotals write_spans = SumSpans(ingest_trace);

  const std::vector<TaggedQuery> stream =
      StreamFor(setup.gens, config.workload, config.seed);
  const std::vector<Answer> expected = ExpectedAnswers(setup.gens, stream);

  // Passes in the order untraced (which also warms the process up), traced
  // (measured layer by layer), untraced, traced, untraced; the overhead of
  // tracing compares the faster of each kind, as host noise only adds time.
  auto timed_pass = [&](bool traced, std::vector<SyncOutcome>* outcomes) {
    set.ClearCache();
    double seconds = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      rstore::TraceContext trace;
      SyncOutcome o = RunSync(set.stores[stream[i].store].get(),
                              stream[i].query, traced ? &trace : nullptr);
      report->Op(o.answer == expected[i]);
      seconds += static_cast<double>(o.wall_ns) / 1e9;
      if (outcomes != nullptr) outcomes->push_back(o);
    }
    return seconds;
  };
  std::vector<SyncOutcome> sync;
  timed_pass(false, &sync);

  set.ClearCache();
  const rstore::ChunkCacheStats cache_before =
      set.cache != nullptr ? set.cache->stats() : rstore::ChunkCacheStats{};
  kv->CaptureTables(rstore::Options().chunk_table, kCaptureBytes);
  LayerSums sums;
  bool same_as_untraced = true;
  for (size_t i = 0; i < stream.size(); ++i) {
    const CallCounters before = kv->counters();
    rstore::TraceContext trace;
    SyncOutcome o =
        RunSync(set.stores[stream[i].store].get(), stream[i].query, &trace);
    const CallCounters after = kv->counters();
    report->Op(o.answer == expected[i]);
    same_as_untraced &= SameStats(o.stats, sync[i].stats);
    const SpanTotals spans = SumSpans(trace);
    const double call_us = static_cast<double>(o.wall_ns) / 1e3;
    const double kv_us =
        static_cast<double>(after.read_wall_ns - before.read_wall_ns) / 1e3;
    const double cache_us = spans.Wall("cache.lookup");
    const double decode_us = spans.Wall("query.decode");
    // The layers partition the call: everything inside the root query span
    // that is not backend, cache or decode is the query layer's own time;
    // the rest of the call (outside the root span) is unattributed.
    sums.queries += 1;
    sums.call_us += call_us;
    sums.kvstore_us += kv_us;
    sums.cache_us += cache_us;
    sums.decode_us += decode_us;
    sums.query_self_us += spans.root_us - kv_us - cache_us - decode_us;
    sums.unattributed_us += call_us - spans.root_us;
    sums.multiget_calls += after.multiget_calls - before.multiget_calls;
    sums.keys += after.multiget_keys - before.multiget_keys;
    sums.bytes_fetched += o.stats.bytes_fetched;
    sums.chunks += o.stats.chunks_fetched;
    sums.records += o.answer.records;
    sums.bytes_returned += o.answer.payload_bytes;
  }
  kv->CaptureTables("", 0);
  report->Check(same_as_untraced,
                "tracing changed a query's backend accounting");
  const rstore::ChunkCacheStats cache_after =
      set.cache != nullptr ? set.cache->stats() : rstore::ChunkCacheStats{};
  const double untraced_2 = timed_pass(false, nullptr);
  const double traced_2 = timed_pass(true, nullptr);
  const double untraced_3 = timed_pass(false, nullptr);
  const double untraced_s = std::min(untraced_2, untraced_3);
  const double traced_s = std::min(sums.call_us / 1e6, traced_2);

  rstore::Executor executor(0);
  AsyncRun async =
      ReplayAsync(set, stream, expected, sync, &executor, report);
  QueryStats async_total;
  for (const QueryStats& s : async.stats) async_total += s;

  CodecReplay codecs;
  rstore::Status s = ReplayCodecs(kv->captured(), kCodecPasses, &codecs);
  report->Check(s.ok(), "codec replay: " + s.ToString());

  const double n = static_cast<double>(sums.queries);
  auto per_query = [n](double v) { return v / n; };
  const uint64_t lookups = (cache_after.hits - cache_before.hits) +
                           (cache_after.misses - cache_before.misses);
  report->Add("kvstore.multiget_batches", "count",
              per_query(static_cast<double>(sums.multiget_calls)));
  report->Add("kvstore.keys_requested", "count",
              per_query(static_cast<double>(sums.keys)));
  report->Add("kvstore.bytes_read", "B",
              per_query(static_cast<double>(sums.bytes_fetched)));
  report->Add("kvstore.wall_us", "us", per_query(sums.kvstore_us));
  report->Add("kvstore.sim_queue_wait_us", "us",
              per_query(static_cast<double>(async_total.queue_wait_us)));
  report->Add("kvstore.sim_service_us", "us",
              per_query(static_cast<double>(async_total.service_us)));
  report->Add("kvstore.write_calls", "count",
              static_cast<double>(writes.write_calls));
  report->Add("kvstore.bytes_written", "B",
              static_cast<double>(writes.bytes_written));
  report->Add("kvstore.write_wall_ms", "ms",
              static_cast<double>(writes.write_wall_ns) / 1e6);
  report->Add("query.chunks_per_query", "count",
              per_query(static_cast<double>(sums.chunks)));
  report->Add("query.read_amplification", "ratio",
              sums.bytes_returned == 0
                  ? 0.0
                  : static_cast<double>(sums.bytes_fetched) /
                        static_cast<double>(sums.bytes_returned));
  report->Add("query.self_wall_us", "us", per_query(sums.query_self_us));
  report->Add("cache.hit_rate", "ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(cache_after.hits -
                                                 cache_before.hits) /
                                 static_cast<double>(lookups));
  report->Add("cache.evictions", "count",
              static_cast<double>(cache_after.evictions -
                                  cache_before.evictions));
  report->Add("cache.rejected_inserts", "count",
              static_cast<double>(cache_after.rejected_inserts -
                                  cache_before.rejected_inserts));
  report->Add("cache.lookup_wall_us", "us", per_query(sums.cache_us));
  report->Add("decode.wall_us", "us", per_query(sums.decode_us));
  report->Add("compress.lz_decompress_mb_per_s", "MB/s",
              codecs.lz_mb_per_s());
  report->Add("compress.delta_apply_mb_per_s", "MB/s",
              codecs.delta_mb_per_s());
  report->Add("ingest.build_subchunks_ms", "ms",
              write_spans.Wall("write.build_subchunks") / 1e3);
  report->Add("ingest.partition_ms", "ms",
              write_spans.Wall("write.partition") / 1e3);
  report->Add("ingest.encode_and_put_ms", "ms",
              write_spans.Wall("write.encode_and_put") / 1e3);
  report->Add("ingest.map_rewrite_ms", "ms",
              write_spans.Wall("write.map_rewrite") / 1e3);
  report->Add("ingest.index_update_ms", "ms",
              write_spans.Wall("write.index_update") / 1e3);
  report->Add("ingest.drains", "count",
              static_cast<double>(write_spans.Count("write.process_batch")));
  uint64_t span = 0;
  uint64_t chunks = 0;
  double ratio = 0;
  for (const auto& store : set.stores) {
    span += store->TotalVersionSpan();
    chunks += store->NumChunks();
    ratio += store->CompressionRatio() / static_cast<double>(set.stores.size());
  }
  report->Add("layout.total_version_span", "count", static_cast<double>(span));
  report->Add("layout.num_chunks", "count", static_cast<double>(chunks));
  report->Add("layout.compression_ratio", "ratio", ratio);
  report->Add("trace.overhead_frac", "ratio", 1.0 - untraced_s / traced_s);
  report->Add("trace.unattributed_us", "us", per_query(sums.unattributed_us));

  report->Note(
      "per query (us): call " + Report::Format(per_query(sums.call_us)) +
      " = kvstore " + Report::Format(per_query(sums.kvstore_us)) +
      " + cache " + Report::Format(per_query(sums.cache_us)) + " + decode " +
      Report::Format(per_query(sums.decode_us)) + " + query self " +
      Report::Format(per_query(sums.query_self_us)) + " + unattributed " +
      Report::Format(per_query(sums.unattributed_us)));
  report->Note("pass seconds: untraced " + Report::Format(untraced_2) + ", " +
               Report::Format(untraced_3) + "; traced " +
               Report::Format(sums.call_us / 1e6) + ", " +
               Report::Format(traced_2));
  report->Note("records returned per query: " +
               Report::Format(per_query(static_cast<double>(sums.records))));
  report->Note("codec replay: " + std::to_string(codecs.sub_chunks) +
               " sub-chunks, " + std::to_string(codecs.deltas_applied) +
               " delta applies over " + std::to_string(kCodecPasses) +
               " passes");
}

bool ParseArgs(int argc, char** argv, Config* config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config->workload_name = value;
      if (!ParseWorkload(value, &config->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && config->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload checkout|interactive|ingest "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf("# workload %s, seed %llu, %g s, trace %d\n",
              config.workload_name.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  perfbench::Report report;
  if (config.trace) {
    perfbench::TracedRun(config, &report);
  } else {
    perfbench::MeasuredRun(config, &report);
  }
  report.Print();
  return 0;
}
