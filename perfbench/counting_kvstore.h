#ifndef RSTORE_PERFBENCH_COUNTING_KVSTORE_H_
#define RSTORE_PERFBENCH_COUNTING_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kvstore/kv_store.h"

namespace perfbench {

/// Per-call tallies of the traffic one CountingKVStore forwarded.
struct CallCounters {
  uint64_t multiget_calls = 0;  // MultiGet + MultiGetPartial + MultiGetAsync
  uint64_t multiget_keys = 0;
  uint64_t write_calls = 0;  // Put + WriteBatch + Delete
  uint64_t bytes_written = 0;  // key + value bytes handed to the backend
  /// Wall time spent inside the inner store's read calls (for async calls,
  /// the submission only; the batch's service runs later on the executor).
  int64_t read_wall_ns = 0;
  int64_t write_wall_ns = 0;
};

/// A forwarding KVStore that counts and times every call into the store it
/// wraps, and can capture the values the chunk table returns so the codec
/// replay can decode real chunk bodies. Every call goes to the inner store
/// unchanged, so simulated charges, stats() and results are exactly those
/// of the inner store; only the traced benchmark run opens stores on it.
class CountingKVStore : public rstore::KVStore {
 public:
  explicit CountingKVStore(rstore::KVStore* inner) : inner_(inner) {}

  const CallCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = CallCounters{}; }

  /// Starts keeping a copy of each distinct value read from the tables
  /// whose names start with `prefix`, until `max_bytes` are held; a zero
  /// budget stops capturing.
  void CaptureTables(std::string prefix, uint64_t max_bytes) {
    capture_prefix_ = std::move(prefix);
    capture_budget_ = max_bytes;
  }
  /// Captured values by "table/key".
  const std::map<std::string, std::string>& captured() const {
    return captured_;
  }

  rstore::Status CreateTable(const std::string& table) override;
  rstore::Status Put(const std::string& table, rstore::Slice key,
                     rstore::Slice value) override;
  rstore::Status WriteBatch(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& entries)
      override;
  rstore::Result<std::string> Get(const std::string& table,
                                  rstore::Slice key) override;
  using rstore::KVStore::MultiGet;
  rstore::Status MultiGet(const std::string& table,
                          const std::vector<std::string>& keys,
                          std::map<std::string, std::string>* out,
                          rstore::TraceContext* trace) override;
  rstore::Status MultiGetPartial(
      const std::string& table, const std::vector<std::string>& keys,
      std::map<std::string, std::string>* out,
      std::vector<rstore::KeyReadFailure>* failures,
      rstore::TraceContext* trace) override;
  rstore::Future<rstore::AsyncMultiGetResult> MultiGetAsync(
      rstore::Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      rstore::TraceContext* trace) override;
  rstore::Status Delete(const std::string& table, rstore::Slice key) override;
  rstore::Status Scan(
      const std::string& table,
      const std::function<void(rstore::Slice key, rstore::Slice value)>& fn)
      override;
  rstore::Result<uint64_t> TableSize(const std::string& table) override;
  rstore::KVStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  void Capture(const std::string& table,
               const std::map<std::string, std::string>& values);

  rstore::KVStore* inner_;
  CallCounters counters_;
  std::string capture_prefix_;
  uint64_t capture_budget_ = 0;
  std::map<std::string, std::string> captured_;
};

}  // namespace perfbench

#endif  // RSTORE_PERFBENCH_COUNTING_KVSTORE_H_
