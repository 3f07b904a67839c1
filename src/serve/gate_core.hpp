// The admission protocol itself, as a pure value type: per-card
// {live, clock, phase, key}, the five transitions, and the min-blocking-pair
// scan. It holds no mutex, no callback, no queue and no grant payload, so
// the same code runs under AdmissionGate's lock in the serving stack and by
// value inside every state of the exhaustive model checker
// (analysis/gate_model.hpp) — the checker proves the shipped protocol, not
// a copy of it.
//
// Blocking pair of live card i: (key_i, i) while a reservation is posted
// (pending, granted or held), else (clock_i, i). After every transition
// except try_consume the scan finds the strict minimum over live cards
// (equal keys go to the lower id). A pending minimum is granted; a granted
// or held minimum blocks everyone (its pop is already in the total order
// but its card has not folded it in yet); an idle minimum means that card
// is mid-step and may still reserve an earlier key. Each transition
// therefore resolves at most one reservation and returns the granted card;
// the caller pops for that card at key(card).
//
// The grant rule is a compile-time policy so the checker's tamper
// self-test can seed a non-minimal grant; the serving stack only ever
// instantiates the default, GrantMinimum.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "sim/timeline.hpp"

namespace tfacc {

enum class GatePhase : std::uint8_t { kIdle, kPending, kGranted, kHeld };

/// The shipped grant rule: the minimal blocking pair, iff it is pending.
struct GrantMinimum {
  template <class Core>
  std::optional<std::size_t> operator()(
      const Core& core, std::optional<std::size_t> min_card) const {
    if (min_card && core.phase(*min_card) == GatePhase::kPending)
      return min_card;
    return std::nullopt;
  }
};

template <class Pick = GrantMinimum>
class BasicGateCore {
 public:
  explicit BasicGateCore(std::size_t n) : slots_(n) {}

  /// Post card c's intent to pop at simulated time `key`. Raises the card's
  /// clock to the key (a reservation is also a progress publication). Legal
  /// from idle or held (re-reserving right after consuming a grant).
  [[nodiscard]] std::optional<std::size_t> reserve(std::size_t c,
                                                   Cycle key) {
    Slot& s = slots_[c];
    TFACC_CHECK(s.phase == GatePhase::kIdle || s.phase == GatePhase::kHeld);
    s.key = std::max(key, s.clock);
    s.clock = s.key;
    s.phase = GatePhase::kPending;
    return resolve();
  }

  /// Collect a resolved reservation: true moves card c to held (it keeps
  /// blocking siblings at its key until release()/reserve()); false means
  /// the reservation is still pending. Never resolves anything.
  bool try_consume(std::size_t c) {
    Slot& s = slots_[c];
    if (s.phase != GatePhase::kGranted) {
      TFACC_CHECK(s.phase == GatePhase::kPending);
      return false;
    }
    s.phase = GatePhase::kHeld;
    return true;
  }

  /// Drop a held turn without re-reserving (card is full or done popping).
  [[nodiscard]] std::optional<std::size_t> release(std::size_t c) {
    Slot& s = slots_[c];
    TFACC_CHECK(s.phase == GatePhase::kHeld);
    s.phase = GatePhase::kIdle;
    return resolve();
  }

  /// Monotonically raise card c's published clock (end of a step).
  [[nodiscard]] std::optional<std::size_t> publish(std::size_t c, Cycle t) {
    slots_[c].clock = std::max(slots_[c].clock, t);
    return resolve();
  }

  /// Card c is done (no further admissions); scans stop considering it.
  [[nodiscard]] std::optional<std::size_t> retire(std::size_t c) {
    slots_[c].live = false;
    slots_[c].phase = GatePhase::kIdle;
    return resolve();
  }

  std::size_t size() const { return slots_.size(); }
  bool live(std::size_t c) const { return slots_[c].live; }
  Cycle clock(std::size_t c) const { return slots_[c].clock; }
  GatePhase phase(std::size_t c) const { return slots_[c].phase; }
  Cycle key(std::size_t c) const { return slots_[c].key; }
  /// The key half of card c's blocking pair.
  Cycle blocking_key(std::size_t c) const {
    return phase(c) == GatePhase::kIdle ? clock(c) : key(c);
  }

  /// The live card holding the minimal blocking pair (nullopt when every
  /// card has retired).
  std::optional<std::size_t> min_blocking() const {
    std::optional<std::size_t> min_c;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].live) continue;
      if (!min_c || blocking_key(i) < blocking_key(*min_c)) min_c = i;
    }
    return min_c;
  }

 private:
  struct Slot {
    bool live = true;
    Cycle clock = 0;
    GatePhase phase = GatePhase::kIdle;
    Cycle key = 0;
  };

  std::optional<std::size_t> resolve() {
    const std::optional<std::size_t> granted = Pick{}(*this, min_blocking());
    if (granted) slots_[*granted].phase = GatePhase::kGranted;
    return granted;
  }

  std::vector<Slot> slots_;
};

using GateCore = BasicGateCore<>;

extern template class BasicGateCore<GrantMinimum>;

}  // namespace tfacc
