// Convoy-free simulated-time admission order, annotated so the lock
// discipline is checked at compile time by Clang's -Wthread-safety.
//
// Card threads race on the host, but the farm being modeled has every card
// live at once, so "who takes the next request" must follow *simulated*
// time, not host scheduling. Admission is reservation-based and a card
// never blocks while it has work:
//
//  * reserve(c, key) posts card c's intent to pop at simulated time `key`.
//    The key is frozen — computed from simulated state only, so it is
//    identical on every host and at every thread count.
//  * Whichever thread next touches the gate and observes that c's
//    (key, id) pair is the strict minimum over every live card's blocking
//    pair resolves the admission: the queue pop runs right there, under
//    the gate mutex, at c's frozen key — pops execute in exact (key, id)
//    order regardless of host scheduling. The outcome is parked in c's
//    Grant.
//  * The card collects its grant with the non-blocking try_consume() at
//    its next drain point; with in-flight work it keeps stepping while the
//    grant is pending and only parks (WorkerPool) when it truly cannot
//    progress. A card with no reservation blocks siblings at its published
//    clock.
//
// The protocol — phases, blocking pairs, which transition grants whom —
// is GateCore (serve/gate_core.hpp); this class adds the lock, the queue
// pop and the unpark hook around it.
//
// Concurrency contract (machine-checked):
//  * The core and every grant payload are guarded by mu_; all protocol
//    transitions happen under it (TFACC_GUARDED_BY / TFACC_REQUIRES below,
//    compile-time under Clang).
//  * Lock order: mu_ → RequestQueue shard mutexes (deliver_locked pops
//    under mu_) and mu_ → WorkerPool::mu_ (on_grant_ unparks the granted
//    card's job under mu_). Neither callee ever takes the gate mutex, so
//    the order is acyclic.
//  * The reachable protocol state space is explored exhaustively by
//    tools/gate_model_check, which runs GateCore itself over every
//    interleaving of small farms — see src/analysis/gate_model.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/gate_core.hpp"
#include "serve/request_queue.hpp"

namespace tfacc {

class AdmissionGate {
 public:
  struct Grant {
    RequestQueue::PopOutcome outcome = RequestQueue::PopOutcome::kDrained;
    TranslationRequest req;
    Cycle next_arrival = 0;
  };

  /// `on_grant(c)` fires under the gate mutex whenever card c's reservation
  /// resolves (WorkerPool::unpark hook — see the lock-order note above).
  AdmissionGate(std::size_t n, RequestQueue& queue,
                std::function<void(std::size_t)> on_grant);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  // GateCore's transitions (serve/gate_core.hpp), each one critical
  // section. try_consume also moves the resolved Grant into *out.
  void reserve(std::size_t c, Cycle key) TFACC_EXCLUDES(mu_);
  bool try_consume(std::size_t c, Grant* out) TFACC_EXCLUDES(mu_);
  void release(std::size_t c) TFACC_EXCLUDES(mu_);
  void publish(std::size_t c, Cycle t) TFACC_EXCLUDES(mu_);
  void retire(std::size_t c) TFACC_EXCLUDES(mu_);

 private:
  // Pop for the card a core transition just granted (if any), at its frozen
  // key, park the outcome in its Grant, and fire on_grant_.
  void deliver_locked(std::optional<std::size_t> granted) TFACC_REQUIRES(mu_);

  RequestQueue* queue_;
  std::function<void(std::size_t)> on_grant_;
  mutable Mutex mu_;
  GateCore core_ TFACC_GUARDED_BY(mu_);
  std::vector<Grant> grants_ TFACC_GUARDED_BY(mu_);
};

}  // namespace tfacc
