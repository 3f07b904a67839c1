// Tests for the admission protocol: GateCore's transitions driven directly
// (src/serve/gate_core.hpp), and the model checker that runs it
// (src/analysis/gate_model.hpp): the faithful protocol verifies clean over
// every interleaving of every small-scope shape, each seeded tamper is
// caught by exactly its documented GATE-* code, and the exploration itself
// is deterministic (state/transition counts and the terminal fingerprint
// reproduce run to run — the checker can't be a flaky oracle).
#include "analysis/gate_model.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/check.hpp"
#include "serve/gate_core.hpp"

namespace tfacc {
namespace {

GateModelConfig config(int cards, int reqs, int slots, bool proxy = false,
                       GateTamper tamper = GateTamper::kNone) {
  GateModelConfig cfg;
  cfg.num_cards = cards;
  cfg.num_requests = reqs;
  cfg.slots_per_card = slots;
  cfg.proxy_keys = proxy;
  cfg.tamper = tamper;
  return cfg;
}

std::string describe(const GateModelConfig& cfg, const GateModelResult& res) {
  return "cards=" + std::to_string(cfg.num_cards) +
         " reqs=" + std::to_string(cfg.num_requests) +
         " slots=" + std::to_string(cfg.slots_per_card) +
         (cfg.proxy_keys ? " proxy" : " accel") + "\n" + res.to_string();
}

// --------------------------------------------------------------------------
// GateCore transitions. Every card starts live and idle at clock 0, so an
// idle card blocks siblings at (0, id) until it publishes or retires.
// --------------------------------------------------------------------------

TEST(GateCore, ReserveFromPendingAndReleaseFromIdleThrow) {
  GateCore core(2);
  EXPECT_THROW((void)core.release(0), CheckError);
  EXPECT_EQ(core.reserve(0, 5), std::nullopt);  // idle card 1 blocks
  EXPECT_THROW((void)core.reserve(0, 7), CheckError);
}

TEST(GateCore, EqualKeysGoToTheLowerCard) {
  GateCore core(2);
  EXPECT_EQ(core.reserve(1, 3), std::nullopt);
  EXPECT_EQ(core.publish(0, 3), std::nullopt);  // idle (3, 0) < (3, 1)
  EXPECT_EQ(core.reserve(0, 3), 0u);
  EXPECT_EQ(core.phase(1), GatePhase::kPending);
}

TEST(GateCore, GrantedOrHeldMinimumBlocksPendingSibling) {
  GateCore core(2);
  EXPECT_EQ(core.reserve(0, 0), 0u);
  EXPECT_EQ(core.reserve(1, 5), std::nullopt);  // granted (0, 0) blocks
  ASSERT_TRUE(core.try_consume(0));
  EXPECT_EQ(core.publish(1, 5), std::nullopt);  // held (0, 0) blocks
  EXPECT_FALSE(core.try_consume(1));
}

TEST(GateCore, PublishOrRetireOfTheMinimumResolvesTheNextSibling) {
  for (const bool retire : {false, true}) {
    GateCore core(2);
    EXPECT_EQ(core.reserve(1, 5), std::nullopt);
    EXPECT_EQ(retire ? core.retire(0) : core.publish(0, 9), 1u) << retire;
    EXPECT_TRUE(core.try_consume(1)) << retire;
  }
}

TEST(GateCore, RetiredCardIsNeverGranted) {
  GateCore core(2);
  EXPECT_EQ(core.retire(0), std::nullopt);
  // The lowest key in the farm, but card 0 is out of every scan.
  EXPECT_EQ(core.reserve(0, 0), std::nullopt);
  EXPECT_EQ(core.reserve(1, 4), 1u);
  EXPECT_EQ(core.retire(1), std::nullopt);
  EXPECT_EQ(core.min_blocking(), std::nullopt);
  EXPECT_EQ(core.phase(0), GatePhase::kPending);
}

// --------------------------------------------------------------------------
// Faithful protocol: clean over the whole small-scope grid.
// --------------------------------------------------------------------------

TEST(GateModel, FaithfulProtocolVerifiesCleanAcrossGrid) {
  for (int cards = 1; cards <= 3; ++cards)
    for (int reqs = 0; reqs <= 3; ++reqs)
      for (int slots = 1; slots <= 3; ++slots)
        for (const bool proxy : {false, true}) {
          const GateModelConfig cfg = config(cards, reqs, slots, proxy);
          const GateModelResult res = check_gate_model(cfg);
          EXPECT_TRUE(res.ok()) << describe(cfg, res);
          EXPECT_GE(res.terminals, 1) << describe(cfg, res);
        }
}

// The acceptance bound: cards=3, requests=3 explored exhaustively with
// zero diagnostics, and the space is genuinely concurrent (many distinct
// states, many interleavings collapsing onto ONE terminal).
TEST(GateModel, ThreeCardsThreeRequestsExhaustive) {
  const GateModelConfig cfg = config(3, 3, 2);
  const GateModelResult res = check_gate_model(cfg);
  EXPECT_TRUE(res.ok()) << describe(cfg, res);
  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.states, 100) << "suspiciously small exploration";
  EXPECT_GT(res.transitions, res.states) << "DFS explored no branching";
  EXPECT_EQ(res.terminals, 1)
      << "a deterministic protocol must quiesce in exactly one state";
  EXPECT_FALSE(res.terminal_fingerprint.empty());
}

// Determinism of the admission outcome across *shapes of concurrency*: a
// 1-card farm and a 3-card farm differ, but the same farm explored twice
// must land on the identical terminal fingerprint (see below), and every
// clean run reports exactly one terminal state.
TEST(GateModel, EveryCleanConfigQuiescesUniquely) {
  for (int cards = 1; cards <= 3; ++cards) {
    const GateModelConfig cfg = config(cards, 3, 2);
    const GateModelResult res = check_gate_model(cfg);
    ASSERT_TRUE(res.ok()) << describe(cfg, res);
    EXPECT_EQ(res.terminals, 1) << describe(cfg, res);
  }
}

// --------------------------------------------------------------------------
// Exploration determinism: the checker is a reproducible oracle.
// --------------------------------------------------------------------------

TEST(GateModel, StateCountsAndFingerprintReproduce) {
  const GateModelConfig cfg = config(3, 3, 3, /*proxy=*/true);
  const GateModelResult first = check_gate_model(cfg);
  const GateModelResult second = check_gate_model(cfg);
  ASSERT_TRUE(first.ok()) << describe(cfg, first);
  EXPECT_EQ(first.states, second.states);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.terminals, second.terminals);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.terminal_fingerprint, second.terminal_fingerprint);
}

// --------------------------------------------------------------------------
// Tamper self-tests: each seeded protocol bug must be caught by exactly
// its documented code (same pairing tools/gate_model_check pins). A tamper
// caught by the "wrong" code would mean the diagnostics don't localize.
// --------------------------------------------------------------------------

void expect_tamper_caught(GateTamper tamper, GateDiagCode expect, int cards,
                          int reqs, int slots) {
  const GateModelConfig cfg = config(cards, reqs, slots, false, tamper);
  const GateModelResult res = check_gate_model(cfg);
  ASSERT_FALSE(res.diagnostics.empty())
      << gate_tamper_name(tamper) << " went undetected\n"
      << describe(cfg, res);
  EXPECT_EQ(res.diagnostics.front().code, expect)
      << gate_tamper_name(tamper) << " caught by "
      << gate_diag_code_name(res.diagnostics.front().code) << " instead of "
      << gate_diag_code_name(expect) << "\n"
      << describe(cfg, res);
}

TEST(GateModelTamper, FrozenKeyTamperCaughtByGateKey) {
  // Needs a reservation posted after compute advanced the live clock past
  // the frozen step-top snapshot — any mid-drain (re-)reserve does it.
  expect_tamper_caught(GateTamper::kFrozenKey, GateDiagCode::kKey, 2, 4, 3);
}

TEST(GateModelTamper, LostUnparkTamperCaughtByGateDeadlock) {
  expect_tamper_caught(GateTamper::kLostUnpark, GateDiagCode::kDeadlock, 2,
                       2, 1);
}

TEST(GateModelTamper, DoubleGrantTamperCaughtByGateDup) {
  expect_tamper_caught(GateTamper::kDoubleGrant, GateDiagCode::kDup, 1, 2,
                       3);
}

TEST(GateModelTamper, DropGrantTamperCaughtByGateLost) {
  expect_tamper_caught(GateTamper::kDropGrant, GateDiagCode::kLost, 2, 2,
                       2);
}

TEST(GateModelTamper, NonMinGrantTamperCaughtByGateOrder) {
  expect_tamper_caught(GateTamper::kNonMinGrant, GateDiagCode::kOrder, 2, 3,
                       2);
}

// The frozen-key tamper must be INVISIBLE on a shape where every
// reservation posts before any compute runs (one card with enough slots
// drains the whole burst in its initial top drain, where live clock ==
// snapshot) — pinning that the tamper cases above are minimal, not
// vacuous: the checker distinguishes "tampered key happened to equal the
// frozen key" from "tampered key diverged".
TEST(GateModelTamper, FrozenKeyTamperInvisibleWithoutMidDrainReserve) {
  const GateModelConfig cfg =
      config(1, 2, 3, false, GateTamper::kFrozenKey);
  const GateModelResult res = check_gate_model(cfg);
  EXPECT_TRUE(res.ok()) << describe(cfg, res);
}

// Stable code names: CI output and the negative tests key on these
// strings; renaming one is a breaking change to the wall.
TEST(GateModel, DiagnosticCodeNamesAreStable) {
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kOrder), "GATE-ORDER");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kKey), "GATE-KEY");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kDeadlock),
               "GATE-DEADLOCK");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kLost), "GATE-LOST");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kDup), "GATE-DUP");
  EXPECT_STREQ(gate_diag_code_name(GateDiagCode::kNondet), "GATE-NONDET");
}

}  // namespace
}  // namespace tfacc
