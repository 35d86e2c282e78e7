#ifndef RSTORE_PERFBENCH_ORACLE_H_
#define RSTORE_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/record.h"
#include "version/dataset.h"
#include "workload/query_workload.h"

namespace perfbench {

/// The fingerprint of one query's answer: its status code and a hash of
/// the records it returned, in the order the store returns them.
struct Answer {
  rstore::Status::Code code = rstore::Status::Code::kOk;
  uint64_t hash = 0;
  uint64_t records = 0;
  uint64_t payload_bytes = 0;

  bool operator==(const Answer& other) const {
    return code == other.code && hash == other.hash &&
           records == other.records && payload_bytes == other.payload_bytes;
  }
  bool operator!=(const Answer& other) const { return !(*this == other); }
};

/// Fingerprints what a store returned.
Answer Observe(const rstore::Result<std::vector<rstore::Record>>& result);
Answer Observe(const rstore::Result<rstore::Record>& result);
/// Fingerprints a result set already known to be OK (async payloads).
Answer ObserveRecords(const std::vector<rstore::Record>& records);

/// Computes the correct answer of every query class straight from the
/// generated dataset: version membership from
/// VersionedDataset::MaterializeVersion, record bytes from the generated
/// payloads. Independent of the store, its layout and its caches.
///
/// A point lookup of a key the version does not hold must fail with
/// NotFound; every other answer is the exact record list.
class Oracle {
 public:
  /// Both pointers are borrowed and must outlive the oracle.
  Oracle(const rstore::VersionedDataset* dataset,
         const rstore::RecordPayloadMap* payloads);

  Answer Expect(const rstore::workload::Query& query);

 private:
  /// Members of `version` sorted by composite key (memoized).
  const std::vector<rstore::CompositeKey>& Members(rstore::VersionId version);
  Answer FromKeys(const std::vector<rstore::CompositeKey>& keys) const;

  const rstore::VersionedDataset* dataset_;
  const rstore::RecordPayloadMap* payloads_;
  std::unordered_map<rstore::VersionId, std::vector<rstore::CompositeKey>>
      members_;
  /// Primary key -> every record ever stored under it, by origin version.
  std::unordered_map<std::string, std::vector<rstore::CompositeKey>> history_;
};

}  // namespace perfbench

#endif  // RSTORE_PERFBENCH_ORACLE_H_
