// Negative-compilation test: Clang's -Wthread-safety (with -Werror) MUST
// reject this file — it calls a TFACC_REQUIRES(mu_) method without holding
// the capability (the deliver_locked() pattern from serve/admission_gate.hpp:
// a _locked helper invoked lock-free is exactly the bug class this
// annotation exists to stop). Registered in ctest (Clang builds only) with
// WILL_FAIL.
//
// Keep this file free of heavy includes: it is compiled with
// -fsyntax-only straight from ctest, not through the normal build graph.
#include "common/thread_annotations.hpp"

namespace {

class Gate {
 public:
  void poke() {
    // BUG (intentional): scan_locked() requires mu_, which this caller
    // does not hold. Under -Wthread-safety this is "calling function
    // 'scan_locked' requires holding mutex 'mu_'", an error with -Werror.
    scan_locked();
  }

  void poke_correctly() {
    const tfacc::MutexLock lock(mu_);
    scan_locked();
  }

 private:
  void scan_locked() TFACC_REQUIRES(mu_) { ++scans_; }

  tfacc::Mutex mu_;
  int scans_ TFACC_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Gate g;
  g.poke();
  g.poke_correctly();
  return 0;
}
