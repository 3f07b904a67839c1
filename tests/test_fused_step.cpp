// Tests for the fused cross-sublayer decode-step ledger (PR 5): legality of
// spliced schedules across sublayer seams (no SA/Softmax/LayerNorm
// double-booking, weight-tile single-residency respected by the prefetch
// port), the one-sublayer ≡ standalone-builder interval pin, the
// cold-load-collapse arithmetic, the serve-scheduler integration
// (bit-identical outputs, fewer cycles, smaller boundary stall), and the
// StreamReport model rebased on a two-invocation fused ledger.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/verifier.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "reference/weights.hpp"
#include "serve/scheduler.hpp"

namespace tfacc {
namespace {

AcceleratorConfig accel_config() { return AcceleratorConfig{}; }

// The sublayer sequence the packed decode step issues for `blocks` decoder
// blocks: self MHA (appending this step's K/V rows), cross MHA (fully
// cached), FFN.
std::vector<SublayerPlan> decode_step_plan(const std::vector<int>& totals,
                                           int d_model, int num_heads,
                                           int d_ff, int blocks) {
  const int n = static_cast<int>(totals.size());
  std::vector<int> cross_totals(totals.size(), 9);
  std::vector<SublayerPlan> subs;
  for (int b = 0; b < blocks; ++b) {
    const std::string dec = "dec" + std::to_string(b);
    subs.push_back(SublayerPlan::mha_cached_batch(dec + ".self", totals,
                                                  d_model, num_heads, n));
    subs.push_back(SublayerPlan::mha_cached_batch(dec + ".cross",
                                                  cross_totals, d_model,
                                                  num_heads, 0));
    subs.push_back(SublayerPlan::ffn(dec + ".ffn", n, d_model, d_ff));
  }
  return subs;
}

std::vector<int> greedy_totals(int slots) {
  std::vector<int> totals;
  for (int r = 0; r < slots; ++r) totals.push_back(3 + (5 * r) % 11);
  return totals;
}

// --- Legality across sublayer seams ------------------------------------------

TEST(FusedAudit, DecodeStepLedgerIsLegalAcrossShapesAndPolicies) {
  for (const int slots : {1, 8, 16})
    for (const int heads : {1, 8})
      for (const int blocks : {1, 2}) {
        Timeline tl;
        const FusedRun fused = schedule_fused(
            accel_config(), tl,
            decode_step_plan(greedy_totals(slots), heads * 64, heads,
                             4 * heads * 64, blocks),
            /*chain=*/true);
        EXPECT_EQ(fused.stats.policy, IssuePolicy::kGreedy);
        const VerifyResult res = verify_fused(fused);
        EXPECT_TRUE(res.ok())
            << "slots=" << slots << " heads=" << heads << " blocks="
            << blocks << "\n" << res.to_string();
        ASSERT_EQ(fused.segments.size(),
                  static_cast<std::size_t>(3 * blocks));
      }
}

TEST(FusedAudit, UnchainedStreamLedgerIsLegal) {
  const SublayerPlan mha = SublayerPlan::mha("mha", 64, 64, 512, 8);
  const SublayerPlan ffn = SublayerPlan::ffn("ffn", 64, 512, 2048);
  for (const auto& subs :
       {std::vector<SublayerPlan>{mha, mha},
        std::vector<SublayerPlan>{ffn, ffn, ffn}}) {
    Timeline tl;
    const FusedRun fused =
        schedule_fused(accel_config(), tl, subs, /*chain=*/false);
    // Only an Algorithm-1 MHA pins the ledger to program order.
    EXPECT_EQ(fused.stats.policy, subs[0].kind == SublayerPlan::Kind::kMha
                                      ? IssuePolicy::kProgramOrder
                                      : IssuePolicy::kGreedy);
    const VerifyResult res = verify_fused(fused);
    EXPECT_TRUE(res.ok()) << res.to_string();
  }
}

TEST(FusedAudit, RejectsEmptyPlan) {
  Timeline tl;
  EXPECT_THROW(schedule_fused(accel_config(), tl, {}, /*chain=*/true),
               CheckError);
}

// --- One-sublayer ≡ standalone builder ---------------------------------------

// A fused ledger of one sublayer must schedule every SA/Softmax/LayerNorm
// interval exactly where the standalone builder puts it: the explicit
// prefetch op on the WeightLoad port replaces the scheduler's implicit
// cold-load rule without moving anything. (The fused graph's op 0 is the
// prefetch; the remaining ops are in the standalone builder's order.)
void expect_one_sublayer_pin(const SublayerPlan& sub,
                             const ScheduledRun& standalone,
                             const Timeline& standalone_tl) {
  Timeline tl;
  const FusedRun fused =
      schedule_fused(accel_config(), tl, {sub}, /*chain=*/true);
  EXPECT_EQ(fused.stats.policy, standalone.stats.policy);
  const VerifyResult res = verify_fused(fused);
  EXPECT_TRUE(res.ok()) << res.to_string();
  EXPECT_EQ(tl.end_time(), standalone_tl.end_time());
  ASSERT_EQ(fused.graph.size(), standalone.graph.size() + 1);
  EXPECT_EQ(fused.graph.ops()[0].resource, OpResource::kWeightLoad);
  for (int i = 0; i < standalone.graph.size(); ++i) {
    const auto fi = static_cast<std::size_t>(i + 1);
    const auto si = static_cast<std::size_t>(i);
    EXPECT_EQ(fused.stats.intervals[fi].start,
              standalone.stats.intervals[si].start)
        << standalone.graph.ops()[si].label;
    EXPECT_EQ(fused.stats.intervals[fi].end,
              standalone.stats.intervals[si].end)
        << standalone.graph.ops()[si].label;
  }
}

TEST(FusedDegenerate, OneSublayerMatchesStandaloneBatch) {
  for (const int project : {0, 8}) {
    Timeline tl;
    const ScheduledRun standalone = schedule_mha_cached_batch(
        accel_config(), tl, greedy_totals(8), 64, 1, project);
    expect_one_sublayer_pin(
        SublayerPlan::mha_cached_batch("self", greedy_totals(8), 64, 1,
                                       project),
        standalone, tl);
  }
}

TEST(FusedDegenerate, OneSublayerMatchesStandaloneFfn) {
  Timeline tl;
  const ScheduledRun standalone =
      schedule_ffn(accel_config(), tl, 16, 512, 2048);
  expect_one_sublayer_pin(SublayerPlan::ffn("ffn", 16, 512, 2048),
                          standalone, tl);
}

TEST(FusedDegenerate, OneSublayerMatchesStandaloneMha) {
  Timeline tl;
  const ScheduledRun standalone =
      schedule_mha(accel_config(), tl, 64, 64, 512, 8);
  expect_one_sublayer_pin(SublayerPlan::mha("mha", 64, 64, 512, 8),
                          standalone, tl);
}

// --- Seam semantics ----------------------------------------------------------

// Chained fusion removes exactly the per-sublayer cold weight loads: each
// later sublayer's initial tile prefetches under the previous sublayer, so
// the fused total is the sum of standalone totals minus one weight load per
// seam. (Each sublayer's internal schedule is shift-invariant: it starts
// from an idle SA either way.)
TEST(FusedSeams, ColdLoadsCollapseToOne) {
  const AcceleratorConfig cfg = accel_config();
  Accelerator acc(cfg);
  const auto subs = decode_step_plan(greedy_totals(16), 64, 1, 256, 1);
  Cycle standalone_sum = 0;
  Cycle standalone_boundary = 0;
  for (const SublayerPlan& sub : subs) {
    const RunReport one = acc.time_fused({sub}, /*chain=*/true);
    standalone_sum += one.total_cycles;
    standalone_boundary += one.boundary_stall;
  }
  const RunReport fused = acc.time_fused(subs, /*chain=*/true);
  const Cycle seams = static_cast<Cycle>(subs.size()) - 1;
  EXPECT_EQ(fused.total_cycles,
            standalone_sum - seams * cfg.weight_load_cycles);
  EXPECT_EQ(fused.boundary_stall,
            standalone_boundary - seams * cfg.weight_load_cycles);
}

TEST(FusedSeams, PrefetchHidesUnderPreviousSublayer) {
  const AcceleratorConfig cfg = accel_config();
  Timeline tl;
  const auto subs = decode_step_plan(greedy_totals(16), 64, 1, 256, 2);
  const FusedRun fused = schedule_fused(cfg, tl, subs, /*chain=*/true);

  // Segment accounting: the first seam is the ledger's cold load; every
  // later seam is exactly the previous sublayer's LayerNorm tail (the
  // prefetch is fully hidden, so sublayer k's SA starts the cycle its
  // chained input is ready).
  const Cycle ln_tail =
      LayerNormModule::tail_cycles(cfg, cfg.layernorm_strategy, 64);
  ASSERT_EQ(fused.segments.size(), subs.size());
  EXPECT_EQ(fused.segments[0].seam_stall, cfg.weight_load_cycles);
  Cycle seam_sum = fused.segments[0].seam_stall;
  for (std::size_t i = 1; i < fused.segments.size(); ++i) {
    EXPECT_EQ(fused.segments[i].seam_stall, ln_tail) << "seam " << i;
    EXPECT_EQ(fused.segments[i].sa_start, fused.segments[i - 1].sa_end +
                                              ln_tail)
        << "seam " << i;
    seam_sum += fused.segments[i].seam_stall;
  }
  EXPECT_EQ(fused.boundary_stall, seam_sum + ln_tail);  // + the final tail
}

TEST(FusedSeams, WeightTileSingleResidencyRespected) {
  Timeline tl;
  const auto subs = decode_step_plan(greedy_totals(8), 64, 1, 256, 2);
  const FusedRun fused =
      schedule_fused(accel_config(), tl, subs, /*chain=*/true);

  // Every prefetch after the first is gated on the previous sublayer's
  // first SA op having consumed its tile (the buffer holds one pending
  // tile): its load starts only after that op ends, yet still completes
  // before its own sublayer's SA work begins (fully hidden).
  std::vector<std::size_t> prefetches;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(fused.graph.size()); ++i)
    if (fused.graph.ops()[i].resource == OpResource::kWeightLoad)
      prefetches.push_back(i);
  ASSERT_EQ(prefetches.size(), subs.size());
  for (std::size_t k = 1; k < prefetches.size(); ++k) {
    const Interval& load = fused.stats.intervals[prefetches[k]];
    const OpNode& node = fused.graph.ops()[prefetches[k]];
    ASSERT_EQ(node.deps.size(), 1u);  // the residency-release dep
    EXPECT_GE(load.start,
              fused.stats.result_ready[static_cast<std::size_t>(
                  node.deps[0])]);
    EXPECT_LE(load.end, fused.segments[k].sa_start) << "prefetch " << k;
  }
}

TEST(FusedSeams, SchedulesAreDeterministic) {
  const auto subs = decode_step_plan(greedy_totals(16), 512, 8, 2048, 2);
  Timeline a_tl, b_tl;
  const FusedRun a = schedule_fused(accel_config(), a_tl, subs, /*chain=*/true);
  const FusedRun b = schedule_fused(accel_config(), b_tl, subs, /*chain=*/true);
  ASSERT_EQ(a.stats.intervals.size(), b.stats.intervals.size());
  for (std::size_t i = 0; i < a.stats.intervals.size(); ++i) {
    EXPECT_EQ(a.stats.intervals[i].start, b.stats.intervals[i].start);
    EXPECT_EQ(a.stats.intervals[i].label, b.stats.intervals[i].label);
  }
  EXPECT_EQ(a.boundary_stall, b.boundary_stall);
}

// --- DecodeStepFuser ---------------------------------------------------------

TEST(DecodeStepFuser, LifecycleIsEnforced) {
  Accelerator acc;
  AcceleratorStats stats;
  DecodeStepFuser fuser(acc, &stats);
  EXPECT_FALSE(fuser.active());
  EXPECT_THROW(fuser.end_step(), CheckError);
  EXPECT_THROW(fuser.record_ffn(1, 64, 256), CheckError);
  fuser.begin_step();
  EXPECT_TRUE(fuser.active());
  EXPECT_THROW(fuser.begin_step(), CheckError);
  // A step in which no hook ran (e.g. serial fallback) charges nothing.
  const RunReport empty = fuser.end_step();
  EXPECT_EQ(empty.total_cycles, 0);
  EXPECT_EQ(stats.fused_steps, 0);

  fuser.begin_step();
  fuser.record_mha_cached_batch({5, 7}, 64, 1, 2);
  fuser.record_mha_cached_batch({9, 9}, 64, 1, 0);
  fuser.record_ffn(2, 64, 256);
  const RunReport step = fuser.end_step();
  EXPECT_GT(step.total_cycles, 0);
  EXPECT_EQ(stats.fused_steps, 1);
  EXPECT_EQ(stats.fused_cycles, step.total_cycles);
  EXPECT_EQ(stats.mha_runs, 2);
  EXPECT_EQ(stats.ffn_runs, 1);
  EXPECT_EQ(stats.total_cycles(), step.total_cycles);
  EXPECT_EQ(stats.boundary_stall_cycles, step.boundary_stall);
}

// --- Serve-scheduler integration ---------------------------------------------

ModelConfig hw_config() {
  ModelConfig cfg;
  cfg.name = "fused-hw";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 2;
  return cfg;
}

// The acceptance criterion at serve level: the serve loop's fused step
// ledgers change no output bit against serial per-sentence decode on the
// accelerator backend without a fuser — one cold per-sublayer ledger per
// ResBlock run — and remove the per-sublayer cold loads (fewer cycles,
// smaller boundary stall, higher SA utilization). One slot keeps the
// decode rows one per step on both sides, so packing plays no part.
TEST(FusedServe, BitIdenticalAndFasterThanPerSublayerLedgers) {
  SyntheticTranslationTask task(24, 5, 8);
  Rng rng(121);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), task.vocab_size(), rng);
  Rng src_rng(11);
  std::vector<TokenSeq> sources;
  for (int i = 0; i < 12; ++i) sources.push_back(task.sample(src_rng).source);
  const std::vector<TokenSeq> calib = {{3, 4, 5}, {6, 7}};

  SchedulerConfig cfg;
  cfg.backend = ServeBackend::kAccelerator;
  cfg.num_cards = 1;
  cfg.slots_per_card = 1;
  cfg.max_len = 12;
  Scheduler fused(weights, calib, cfg);
  const ScheduleReport rf = fused.run(sources);

  Transformer model(weights);
  const QuantizedTransformer qt =
      QuantizedTransformer::build(model, calib, cfg.max_len, cfg.softmax);
  const Accelerator acc(cfg.accel);
  AcceleratorStats split;
  model.set_backend(accelerator_backend(qt, acc, &split));
  for (std::size_t i = 0; i < sources.size(); ++i)
    EXPECT_EQ(rf.outputs[i], model.translate_greedy(sources[i], cfg.max_len))
        << "sentence " << i;  // timing model only, data untouched

  EXPECT_GT(rf.fused_steps(), 0l);
  EXPECT_EQ(split.fused_steps, 0l);
  EXPECT_LT(rf.makespan_cycles(), split.total_cycles());
  EXPECT_LT(rf.boundary_stall_cycles(), split.boundary_stall_cycles);
  EXPECT_GT(rf.sa_utilization(), split.sa_utilization());
  // SA work is identical — only boundary idle disappears.
  EXPECT_EQ(rf.sa_busy_cycles(), split.sa_busy_cycles);
}

TEST(FusedServe, RunsAreReproducible) {
  Rng rng(122);
  const TransformerWeights weights =
      TransformerWeights::random(hw_config(), 20, rng);
  const std::vector<TokenSeq> calib = {{3, 4, 5}, {6, 7}};
  const std::vector<TokenSeq> sources = {{3, 4, 5, 6}, {7}, {5, 5, 6},
                                         {8, 9, 10}};
  SchedulerConfig cfg;
  cfg.backend = ServeBackend::kAccelerator;
  cfg.num_cards = 2;
  cfg.slots_per_card = 4;
  cfg.max_len = 10;
  Scheduler sched(weights, calib, cfg);
  const ScheduleReport a = sched.run(sources);
  const ScheduleReport b = sched.run(sources);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.makespan_cycles(), b.makespan_cycles());
  EXPECT_EQ(a.boundary_stall_cycles(), b.boundary_stall_cycles());
  EXPECT_EQ(a.fused_steps(), b.fused_steps());
}

// --- StreamReport rebased on the fused ledger --------------------------------

TEST(StreamRebased, MatchesTwoInvocationFusedLedger) {
  Accelerator acc;
  const auto check = [&](const SublayerPlan& sub,
                         const Accelerator::StreamReport& sr) {
    const RunReport one = acc.time_fused({sub}, /*chain=*/false);
    const RunReport two = acc.time_fused({sub, sub}, /*chain=*/false);
    EXPECT_EQ(sr.first_latency, one.total_cycles);
    EXPECT_EQ(sr.steady_interval, two.total_cycles - one.total_cycles);
    // The ledger is affine in the invocation count: a third run adds
    // exactly one more steady interval, so total_cycles(n) extrapolates.
    const RunReport three =
        acc.time_fused({sub, sub, sub}, /*chain=*/false);
    EXPECT_EQ(three.total_cycles, sr.total_cycles(3));
  };
  check(SublayerPlan::mha("mha", 64, 64, 512, 8),
        acc.stream_mha(64, 64, 512, 8));
  check(SublayerPlan::ffn("ffn", 64, 512, 2048),
        acc.stream_ffn(64, 512, 2048));
}

// The shapes the old analytic subtraction was weakest on: tiny runs where
// `total − weight_load − layernorm_busy` flirts with zero. The derived
// interval is positive by construction (run 2 occupies real SA time).
TEST(StreamRebased, TinyShapesYieldPositiveIntervals) {
  AcceleratorConfig cfg;
  cfg.layernorm_strategy = LayerNormStrategy::kStraightforward;
  const Accelerator acc(cfg);
  for (const int s : {1, 2}) {
    const auto mha = acc.stream_mha(s, s, 64, 1);
    EXPECT_GT(mha.steady_interval, 0) << "mha s=" << s;
    EXPECT_LT(mha.steady_interval, mha.first_latency);
    const auto ffn = acc.stream_ffn(s, 64, 256);
    EXPECT_GT(ffn.steady_interval, 0) << "ffn s=" << s;
    EXPECT_LT(ffn.steady_interval, ffn.first_latency);
  }
}

}  // namespace
}  // namespace tfacc
