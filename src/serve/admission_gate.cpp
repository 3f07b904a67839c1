#include "serve/admission_gate.hpp"

#include <utility>

namespace tfacc {

AdmissionGate::AdmissionGate(std::size_t n, RequestQueue& queue,
                             std::function<void(std::size_t)> on_grant)
    : queue_(&queue), on_grant_(std::move(on_grant)), core_(n), grants_(n) {}

void AdmissionGate::reserve(std::size_t c, Cycle key) {
  const MutexLock lock(mu_);
  deliver_locked(core_.reserve(c, key));
}

bool AdmissionGate::try_consume(std::size_t c, Grant* out) {
  const MutexLock lock(mu_);
  if (!core_.try_consume(c)) return false;
  *out = std::move(grants_[c]);
  return true;
}

void AdmissionGate::release(std::size_t c) {
  const MutexLock lock(mu_);
  deliver_locked(core_.release(c));
}

void AdmissionGate::publish(std::size_t c, Cycle t) {
  const MutexLock lock(mu_);
  deliver_locked(core_.publish(c, t));
}

void AdmissionGate::retire(std::size_t c) {
  const MutexLock lock(mu_);
  deliver_locked(core_.retire(c));
}

void AdmissionGate::deliver_locked(std::optional<std::size_t> granted) {
  if (!granted) return;
  const std::size_t c = *granted;
  Grant& g = grants_[c];
  g.outcome = queue_->try_pop(static_cast<int>(c), core_.key(c), g.req,
                              &g.next_arrival);
  if (on_grant_) on_grant_(c);
}

}  // namespace tfacc
