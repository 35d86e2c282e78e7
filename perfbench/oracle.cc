#include "oracle.h"

#include <algorithm>

#include "workload/traffic.h"

namespace perfbench {

using rstore::CompositeKey;
using rstore::Record;
using rstore::VersionId;
using rstore::workload::Query;

Answer ObserveRecords(const std::vector<Record>& records) {
  Answer a;
  a.hash = rstore::workload::HashRecords(records);
  a.records = records.size();
  for (const Record& r : records) a.payload_bytes += r.payload.size();
  return a;
}

Answer Observe(const rstore::Result<std::vector<Record>>& result) {
  if (!result.ok()) return Answer{result.status().code(), 0, 0, 0};
  return ObserveRecords(result.value());
}

Answer Observe(const rstore::Result<Record>& result) {
  if (!result.ok()) return Answer{result.status().code(), 0, 0, 0};
  return ObserveRecords({result.value()});
}

Oracle::Oracle(const rstore::VersionedDataset* dataset,
               const rstore::RecordPayloadMap* payloads)
    : dataset_(dataset), payloads_(payloads) {
  for (const rstore::VersionDelta& delta : dataset_->deltas) {
    for (const CompositeKey& ck : delta.added) history_[ck.key].push_back(ck);
  }
  for (auto& [key, keys] : history_) {
    std::sort(keys.begin(), keys.end(),
              [](const CompositeKey& a, const CompositeKey& b) {
                return a.version < b.version;
              });
  }
}

const std::vector<CompositeKey>& Oracle::Members(VersionId version) {
  auto it = members_.find(version);
  if (it != members_.end()) return it->second;
  rstore::VersionMembership set = dataset_->MaterializeVersion(version);
  std::vector<CompositeKey> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  return members_.emplace(version, std::move(sorted)).first->second;
}

Answer Oracle::FromKeys(const std::vector<CompositeKey>& keys) const {
  std::vector<Record> records;
  records.reserve(keys.size());
  for (const CompositeKey& ck : keys) {
    records.push_back(Record{ck, payloads_->at(ck)});
  }
  return ObserveRecords(records);
}

Answer Oracle::Expect(const Query& query) {
  // Members are sorted by (key, version) and a version holds one record per
  // key, so a key's record is the first member not below (key, 0).
  auto lower = [](const std::vector<CompositeKey>& members,
                  const std::string& key) {
    return std::lower_bound(members.begin(), members.end(),
                            CompositeKey(key, 0));
  };
  switch (query.kind) {
    case Query::Kind::kFullVersion:
      return FromKeys(Members(query.version));
    case Query::Kind::kRange: {
      const std::vector<CompositeKey>& members = Members(query.version);
      auto hi = lower(members, query.key_hi);
      while (hi != members.end() && hi->key == query.key_hi) ++hi;
      return FromKeys(std::vector<CompositeKey>(lower(members, query.key_lo),
                                                hi));
    }
    case Query::Kind::kEvolution: {
      auto it = history_.find(query.key);
      if (it == history_.end()) return FromKeys({});
      return FromKeys(it->second);
    }
    case Query::Kind::kPoint: {
      const std::vector<CompositeKey>& members = Members(query.version);
      auto it = lower(members, query.key);
      if (it == members.end() || it->key != query.key) {
        return Answer{rstore::Status::Code::kNotFound, 0, 0, 0};
      }
      return FromKeys({*it});
    }
  }
  return Answer{rstore::Status::Code::kInvalidArgument, 0, 0, 0};
}

}  // namespace perfbench
