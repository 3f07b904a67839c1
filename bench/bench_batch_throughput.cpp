// EXTENSION (ROADMAP scale axis: batching/throughput): sentences/sec of a
// farm of accelerator cards decoding independent translation requests.
//
// The paper reports batch-1 latency of one FPGA card; a serving deployment
// replicates the card and spreads requests across the replicas — since PR 3
// through a work-stealing RequestQueue instead of a static round-robin deal.
// The Scheduler simulates every card on the host worker pool, so this bench
// reports both
//  * wall sent/s  — how fast this machine simulates the farm (host-bound), and
//  * modeled sent/s — n / makespan at 200 MHz, the throughput a real farm of
//    these cards would sustain (the architecture-level number).
//
// The second table is this PR's point: continuous batching packs up to
// `slots` live sentences' single-row decode steps into one multi-row SA
// invocation. One-row steps are weight-load bound (a 64-cycle tile load buys
// a ~9-cycle pass); packed steps stream full tiles, so modeled throughput
// and SA utilization rise at the same card count.
//
// Machine-readable results land in BENCH_batch.json for cross-PR tracking.
//
//   $ ./build/bench_batch_throughput [sentences]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "json.hpp"
#include "nlp/synthetic.hpp"
#include "reference/weights.hpp"
#include "serve/scheduler.hpp"
#include "table.hpp"
#include "tensor/kernels.hpp"

namespace {

// The farm every sweep point runs: accelerator backend, greedy decode, and
// every bench-gated ledger under the typed schedule verifier.
tfacc::SchedulerConfig farm_config(int cards, int slots, int max_len) {
  tfacc::SchedulerConfig sc;
  sc.num_cards = cards;
  sc.slots_per_card = slots;
  sc.max_len = max_len;
  sc.accel.verify_schedules = true;
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfacc;
  const int sentences = argc > 1 ? std::atoi(argv[1]) : 32;

  // Hardware-compatible small model (one 64-wide head, as examples/translate).
  // Random weights: throughput depends only on shapes and decode lengths,
  // both of which are deterministic here, not on translation quality.
  ModelConfig cfg;
  cfg.name = "batch-bench";
  cfg.d_model = 64;
  cfg.d_ff = 256;
  cfg.num_heads = 1;
  cfg.head_dim = 64;
  cfg.num_encoder_layers = 1;
  cfg.num_decoder_layers = 1;

  const SyntheticTranslationTask task(24, 5, 8);
  Rng rng(17);
  const TransformerWeights weights =
      TransformerWeights::random(cfg, task.vocab_size(), rng);
  std::vector<TokenSeq> calib, sources;
  for (int i = 0; i < 4; ++i) calib.push_back(task.sample(rng).source);
  for (int i = 0; i < sentences; ++i)
    sources.push_back(task.sample(rng).source);
  const int max_len = task.max_len() + 2;

  std::ofstream json_file("BENCH_batch.json");
  bench::JsonWriter json(json_file);
  json.begin_object();
  json.key("bench").value("batch_throughput");
  json.key("sentences").value(sentences);
  json.key("max_len").value(max_len);
  bench::write_host_info(json);

  bench::title("Accelerator-farm decode throughput (" +
               std::to_string(sentences) + " sentences, greedy, max_len " +
               std::to_string(max_len) + ", 1 slot/card)");
  std::printf("%5s | %9s %12s | %14s %14s %9s\n", "cards", "wall s",
              "wall sent/s", "makespan cyc", "modeled sent/s", "speedup");
  bench::rule(74);

  json.key("card_sweep").begin_array();
  double base_modeled = 0.0;
  double modeled_at_8 = 0.0;
  for (const int cards : {1, 2, 4, 8}) {
    Scheduler farm(weights, calib, farm_config(cards, 1, max_len));
    const ScheduleReport rep = farm.run(sources);
    const double modeled = rep.modeled_sentences_per_second();
    if (cards == 1) base_modeled = modeled;
    if (cards == 8) modeled_at_8 = modeled;
    std::printf("%5d | %9.3f %12.1f | %14lld %14.1f %8.2fx\n", cards,
                rep.wall_seconds,
                rep.wall_seconds > 0 ? sentences / rep.wall_seconds : 0.0,
                static_cast<long long>(rep.makespan_cycles()), modeled,
                base_modeled > 0 ? modeled / base_modeled : 1.0);
    json.begin_object();
    json.key("cards").value(cards);
    json.key("slots_per_card").value(1);
    json.key("makespan_cycles")
        .value(static_cast<long long>(rep.makespan_cycles()));
    json.key("modeled_sentences_per_second").value(modeled);
    json.key("sa_utilization").value(rep.sa_utilization());
    bench::write_module_breakdown(
        json, static_cast<long long>(rep.total_cycles()),
        static_cast<long long>(rep.sa_busy_cycles()),
        static_cast<long long>(rep.softmax_busy_cycles()),
        static_cast<long long>(rep.layernorm_busy_cycles()),
        static_cast<long long>(rep.softmax_stall_cycles()),
        static_cast<long long>(rep.boundary_stall_cycles()),
        static_cast<long long>(rep.prefill_stall_cycles()));
    json.end_object();
  }
  json.end_array();

  const double card_speedup =
      base_modeled > 0 ? modeled_at_8 / base_modeled : 0.0;
  std::printf("\n8-card modeled speedup over 1 card: %.2fx (target >= 3x: "
              "%s)\n",
              card_speedup, card_speedup >= 3.0 ? "PASS" : "FAIL");

  bench::title(
      "Continuous batching: one-row steps (PR 2) vs packed slots (1 card)");
  std::printf("%5s | %12s %12s | %14s %14s %8s\n", "slots", "steps",
              "rows/step", "makespan cyc", "modeled sent/s", "SA util");
  bench::rule(74);

  json.key("slot_sweep").begin_array();
  double one_row_modeled = 0.0, packed_modeled = 0.0;
  double one_row_util = 0.0, packed_util = 0.0;
  std::vector<TokenSeq> one_row_outputs;
  bool outputs_identical = true;
  for (const int slots : {1, 8}) {
    Scheduler farm(weights, calib, farm_config(1, slots, max_len));
    const ScheduleReport rep = farm.run(sources);
    if (slots == 1) {
      one_row_outputs = rep.outputs;
      one_row_modeled = rep.modeled_sentences_per_second();
      one_row_util = rep.sa_utilization();
    } else {
      outputs_identical = rep.outputs == one_row_outputs;
      packed_modeled = rep.modeled_sentences_per_second();
      packed_util = rep.sa_utilization();
    }
    std::printf("%5d | %12ld %12.2f | %14lld %14.1f %7.1f%%\n", slots,
                rep.packed_steps(), rep.packed_rows_mean(),
                static_cast<long long>(rep.makespan_cycles()),
                rep.modeled_sentences_per_second(),
                100.0 * rep.sa_utilization());
    json.begin_object();
    json.key("cards").value(1);
    json.key("slots_per_card").value(slots);
    json.key("packed_steps").value(rep.packed_steps());
    json.key("packed_rows_mean").value(rep.packed_rows_mean());
    json.key("makespan_cycles")
        .value(static_cast<long long>(rep.makespan_cycles()));
    json.key("modeled_sentences_per_second")
        .value(rep.modeled_sentences_per_second());
    json.key("sa_utilization").value(rep.sa_utilization());
    bench::write_module_breakdown(
        json, static_cast<long long>(rep.total_cycles()),
        static_cast<long long>(rep.sa_busy_cycles()),
        static_cast<long long>(rep.softmax_busy_cycles()),
        static_cast<long long>(rep.layernorm_busy_cycles()),
        static_cast<long long>(rep.softmax_stall_cycles()),
        static_cast<long long>(rep.boundary_stall_cycles()),
        static_cast<long long>(rep.prefill_stall_cycles()));
    json.end_object();
  }
  json.end_array();

  const bool packed_wins = outputs_identical &&
                           packed_modeled > one_row_modeled &&
                           packed_util > one_row_util;
  std::printf(
      "\npacked vs one-row at batch %d: %.2fx modeled sent/s, SA utilization "
      "%.1f%% -> %.1f%%, outputs %s (gate: %s)\n",
      sentences, one_row_modeled > 0 ? packed_modeled / one_row_modeled : 0.0,
      100.0 * one_row_util, 100.0 * packed_util,
      outputs_identical ? "bit-identical" : "DIVERGED",
      packed_wins ? "PASS" : "FAIL");

  json.key("gates").begin_object();
  json.key("card_speedup_at_8").value(card_speedup);
  json.key("packed_beats_one_row").value(packed_wins);
  json.key("outputs_bit_identical").value(outputs_identical);
  json.end_object();
  json.end_object();
  json_file << '\n';
  std::printf("results written to BENCH_batch.json\n");

  // PR 8: measured wall-clock throughput of the serve step loop per GEMM
  // kernel kind. The quantized backend (no cycle simulator) on a
  // GEMM-dominated model, 16 slots on 1 card — the packed step loop is
  // allocation-free and every projection runs through the packed INT8
  // kernels, so the kernel dispatch is the only thing this sweep varies.
  // Outputs must stay bit-identical across kinds (integer kernels are exact
  // under vectorization). The gate — SIMD >= 2x scalar wall sentences/sec —
  // lands in BENCH_wallclock.json for perf_gate.py (skipped on hosts whose
  // kernel capability differs from the baseline's).
  bench::title("Measured wall-clock serve throughput per kernel (16 slots, "
               "1 card, quantized backend, d_model 256)");
  ModelConfig wc_cfg;
  wc_cfg.name = "wallclock-bench";
  wc_cfg.d_model = 256;
  wc_cfg.d_ff = 1024;
  wc_cfg.num_heads = 4;
  wc_cfg.head_dim = 64;
  wc_cfg.num_encoder_layers = 1;
  wc_cfg.num_decoder_layers = 2;
  Rng wc_rng(23);
  const TransformerWeights wc_weights =
      TransformerWeights::random(wc_cfg, task.vocab_size(), wc_rng);
  SchedulerConfig wc_sc;
  wc_sc.backend = ServeBackend::kQuantized;
  wc_sc.num_cards = 1;
  wc_sc.slots_per_card = 16;
  wc_sc.max_len = max_len;
  Scheduler wc_sched(wc_weights, calib, wc_sc);

  std::ofstream wc_file("BENCH_wallclock.json");
  bench::JsonWriter wc_json(wc_file);
  wc_json.begin_object();
  wc_json.key("bench").value("wallclock_kernel_sweep");
  wc_json.key("sentences").value(sentences);
  wc_json.key("max_len").value(max_len);
  wc_json.key("slots").value(16);
  wc_json.key("cards").value(1);
  wc_json.key("d_model").value(wc_cfg.d_model);
  bench::write_host_info(wc_json);

  std::printf("%8s | %9s %12s | %9s\n", "kernel", "wall s", "wall sent/s",
              "vs scalar");
  bench::rule(48);
  wc_json.key("kernel_sweep").begin_array();
  // Three interleaved rounds per kind, keeping each kind's fastest run.
  // Preemption noise only ever slows a run, so min-of-runs is the cleanest
  // estimate; interleaving the kinds keeps one noisy stretch of time from
  // penalizing a single kind's ratio. The first scalar run pins the output
  // reference every later run (any kind) must match bit-for-bit.
  constexpr kernels::Kind kWcKinds[] = {kernels::Kind::kScalar,
                                        kernels::Kind::kSimd};
  constexpr int kNumWcKinds = static_cast<int>(std::size(kWcKinds));
  double wc_best_wall[kNumWcKinds] = {};
  std::vector<TokenSeq> wc_scalar_outputs;
  bool wc_identical = true;
  for (int round = 0; round < 3; ++round) {
    for (int ki = 0; ki < kNumWcKinds; ++ki) {
      kernels::set_kind(kWcKinds[ki]);
      const ScheduleReport rep = wc_sched.run(sources);
      if (wc_scalar_outputs.empty())
        wc_scalar_outputs = rep.outputs;
      else
        wc_identical = wc_identical && rep.outputs == wc_scalar_outputs;
      if (round == 0 || rep.wall_seconds < wc_best_wall[ki])
        wc_best_wall[ki] = rep.wall_seconds;
    }
  }
  double wc_scalar_sps = 0.0, wc_simd_sps = 0.0;
  for (int ki = 0; ki < kNumWcKinds; ++ki) {
    const double sps =
        wc_best_wall[ki] > 0 ? sentences / wc_best_wall[ki] : 0.0;
    if (kWcKinds[ki] == kernels::Kind::kScalar) wc_scalar_sps = sps;
    if (kWcKinds[ki] == kernels::Kind::kSimd) wc_simd_sps = sps;
    std::printf("%8s | %9.3f %12.1f | %8.2fx\n",
                kernels::kind_name(kWcKinds[ki]), wc_best_wall[ki], sps,
                wc_scalar_sps > 0 ? sps / wc_scalar_sps : 1.0);
    wc_json.begin_object();
    wc_json.key("kernel").value(kernels::kind_name(kWcKinds[ki]));
    wc_json.key("wall_seconds").value(wc_best_wall[ki]);
    wc_json.key("wall_sentences_per_second").value(sps);
    wc_json.end_object();
  }
  wc_json.end_array();
  kernels::refresh_from_env();  // restore the environment's selection

  const double wc_speedup =
      wc_scalar_sps > 0 ? wc_simd_sps / wc_scalar_sps : 0.0;
  wc_json.key("gates").begin_object();
  wc_json.key("wallclock_speedup_vs_scalar").value(wc_speedup);
  wc_json.key("outputs_bit_identical").value(wc_identical);
  wc_json.end_object();
  wc_json.end_object();
  wc_file << '\n';
  const bool wc_wins = wc_identical && wc_speedup >= 2.0;
  std::printf(
      "\nsimd vs scalar at 16 slots: %.2fx wall sentences/sec (>= 2x "
      "required), outputs %s (gate: %s)\n"
      "results written to BENCH_wallclock.json\n",
      wc_speedup, wc_identical ? "bit-identical" : "DIVERGED",
      wc_wins ? "PASS" : "FAIL");

  return card_speedup >= 3.0 && packed_wins && wc_wins ? 0 : 1;
}
