// Negative-compile check for the thread-safety annotations: this file reads
// and writes a RSTORE_GUARDED_BY member without holding its mutex, so under
// Clang with -Wthread-safety -Werror=thread-safety it must FAIL to build.
// The ctest entry (common.thread_safety_enforced, Clang configs only) runs
// the build and is marked WILL_FAIL — if this ever compiles, the analysis
// has been silently disabled. Mirrors common/nodiscard_violation.cc. The
// whole-program analyzer (tools/analyze/) flags violation 1 too; its
// allow marker keeps the analyzer's tests/ sweep gating on everything else
// and does not change what the compiler sees.

#include "common/sync.h"

namespace rstore {

class Account {
 public:
  // Violation 1: touches balance_ without acquiring mu_.
  int UnguardedRead() { return balance_; }  // analyze:allow-guarded-field

  // Violation 2: annotated as requiring mu_, but the caller below does not
  // hold it.
  void Deposit(int amount) RSTORE_REQUIRES(mu_) { balance_ += amount; }

  void CallerWithoutLock() { Deposit(1); }

 private:
  Mutex mu_{kLockRankLeaf, "Account::mu_"};
  int balance_ RSTORE_GUARDED_BY(mu_) = 0;
};

int TouchAll() {
  Account account;
  account.CallerWithoutLock();
  return account.UnguardedRead();
}

}  // namespace rstore

int main() { return rstore::TouchAll(); }
