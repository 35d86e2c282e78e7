#include "counting_kvstore.h"

#include <chrono>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

using rstore::Result;
using rstore::Slice;
using rstore::Status;

Status CountingKVStore::CreateTable(const std::string& table) {
  return inner_->CreateTable(table);
}

Status CountingKVStore::Put(const std::string& table, Slice key,
                            Slice value) {
  const auto start = Clock::now();
  Status s = inner_->Put(table, key, value);
  counters_.write_wall_ns += NanosSince(start);
  ++counters_.write_calls;
  counters_.bytes_written += key.size() + value.size();
  return s;
}

Status CountingKVStore::WriteBatch(
    const std::string& table,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  const auto start = Clock::now();
  Status s = inner_->WriteBatch(table, entries);
  counters_.write_wall_ns += NanosSince(start);
  ++counters_.write_calls;
  for (const auto& [key, value] : entries) {
    counters_.bytes_written += key.size() + value.size();
  }
  return s;
}

Result<std::string> CountingKVStore::Get(const std::string& table,
                                         Slice key) {
  const auto start = Clock::now();
  Result<std::string> r = inner_->Get(table, key);
  counters_.read_wall_ns += NanosSince(start);
  return r;
}

Status CountingKVStore::MultiGet(const std::string& table,
                                 const std::vector<std::string>& keys,
                                 std::map<std::string, std::string>* out,
                                 rstore::TraceContext* trace) {
  const auto start = Clock::now();
  Status s = inner_->MultiGet(table, keys, out, trace);
  counters_.read_wall_ns += NanosSince(start);
  ++counters_.multiget_calls;
  counters_.multiget_keys += keys.size();
  if (s.ok()) Capture(table, *out);
  return s;
}

Status CountingKVStore::MultiGetPartial(
    const std::string& table, const std::vector<std::string>& keys,
    std::map<std::string, std::string>* out,
    std::vector<rstore::KeyReadFailure>* failures,
    rstore::TraceContext* trace) {
  const auto start = Clock::now();
  Status s = inner_->MultiGetPartial(table, keys, out, failures, trace);
  counters_.read_wall_ns += NanosSince(start);
  ++counters_.multiget_calls;
  counters_.multiget_keys += keys.size();
  if (s.ok()) Capture(table, *out);
  return s;
}

rstore::Future<rstore::AsyncMultiGetResult> CountingKVStore::MultiGetAsync(
    rstore::Executor* executor, const std::string& table,
    const std::vector<std::string>& keys, bool partial,
    rstore::TraceContext* trace) {
  const auto start = Clock::now();
  rstore::Future<rstore::AsyncMultiGetResult> f =
      inner_->MultiGetAsync(executor, table, keys, partial, trace);
  counters_.read_wall_ns += NanosSince(start);
  ++counters_.multiget_calls;
  counters_.multiget_keys += keys.size();
  return f;
}

Status CountingKVStore::Delete(const std::string& table, Slice key) {
  const auto start = Clock::now();
  Status s = inner_->Delete(table, key);
  counters_.write_wall_ns += NanosSince(start);
  ++counters_.write_calls;
  counters_.bytes_written += key.size();
  return s;
}

Status CountingKVStore::Scan(
    const std::string& table,
    const std::function<void(Slice key, Slice value)>& fn) {
  return inner_->Scan(table, fn);
}

Result<uint64_t> CountingKVStore::TableSize(const std::string& table) {
  return inner_->TableSize(table);
}

void CountingKVStore::Capture(const std::string& table,
                              const std::map<std::string, std::string>& values) {
  if (capture_budget_ == 0 || table.rfind(capture_prefix_, 0) != 0) return;
  for (const auto& [key, value] : values) {
    if (value.size() > capture_budget_) return;
    if (captured_.emplace(table + "/" + key, value).second) {
      capture_budget_ -= value.size();
    }
  }
}

}  // namespace perfbench
