// serve-quant-4card and serve-accel-1card: one closed-loop caller hands a
// seeded batch of translation requests (all arriving at simulated t = 0) to
// Scheduler::run, repeatedly, for the run's duration. Both workloads share
// one model, so their differences come from backend and card count alone.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/backend.hpp"
#include "nlp/synthetic.hpp"
#include "reference/search.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace tfacc;

constexpr int kMaxLen = 32;
constexpr int kSlots = 16;
constexpr int kCalibSources = 4;
constexpr int kSetupReps = 3;
constexpr int kMinTimedRuns = 3;
constexpr int kReplayPairs = 2;

struct ServeSpec {
  ServeBackend backend;
  int cards;
  int sentences;  ///< requests per Scheduler::run
};

ServeSpec spec_for(const Options& opt) {
  if (opt.workload == "serve-quant-4card")
    return {ServeBackend::kQuantized, 4, opt.tiny ? 8 : 256};
  return {ServeBackend::kAccelerator, 1, opt.tiny ? 4 : 64};
}

ModelConfig model_config() {
  ModelConfig m;
  m.name = "perfbench-serve";
  m.d_model = 256;
  m.d_ff = 1024;
  m.num_heads = 4;
  m.head_dim = 64;
  m.num_encoder_layers = 2;
  m.num_decoder_layers = 2;
  return m;
}

struct Inputs {
  TransformerWeights weights;
  std::vector<TokenSeq> calib;
  std::vector<TokenSeq> sources;
};

// Everything the program receives is generated here from the seed.
Inputs make_inputs(std::uint64_t seed, int sentences) {
  const SyntheticTranslationTask task(24, 4, 24);
  Rng rng(seed);
  Inputs in{TransformerWeights::random(model_config(), task.vocab_size(), rng),
            {}, {}};
  // Fixed output length, as serving benchmarks get by ignoring EOS: with a
  // zero EOS column in the output projection, EOS scores 0 against 50
  // random logits and greedy decoding does not pick it, so every request
  // (and every calibration sentence) decodes max_len tokens. The work in a
  // run then depends on the seed only through the source lengths.
  MatF& proj = in.weights.output_projection;
  for (int r = 0; r < proj.rows(); ++r) proj(r, kEosId) = 0.0f;
  for (int i = 0; i < kCalibSources; ++i)
    in.calib.push_back(task.sample(rng).source);
  for (int i = 0; i < sentences; ++i)
    in.sources.push_back(task.sample(rng).source);
  Digest digest;
  for (const auto* set : {&in.calib, &in.sources})
    for (const TokenSeq& s : *set) {
      for (int t : s) digest.add(t);
      digest.add(-1);
    }
  std::printf("inputs seed=%llu requests=%d calib=%d vocab=%d digest=%s\n",
              static_cast<unsigned long long>(seed), sentences, kCalibSources,
              task.vocab_size(), digest.hex().c_str());
  return in;
}

SchedulerConfig scheduler_config(const ServeSpec& spec) {
  SchedulerConfig sc;
  sc.backend = spec.backend;
  sc.num_cards = spec.cards;
  sc.max_len = kMaxLen;
  sc.slots_per_card = kSlots;
  return sc;
}

// MHA+FFN pair equivalents one run executes: each admitted sentence runs
// the encoder (MHA and FFN per layer), each packed step the decoder (self
// MHA, cross MHA and FFN per layer).
double resblock_pairs(const ScheduleReport& r) {
  const ModelConfig m = model_config();
  return (2.0 * m.num_encoder_layers * r.sentences() +
          3.0 * m.num_decoder_layers * static_cast<double>(r.packed_steps())) /
         2.0;
}

long mismatched_outputs(const std::vector<TokenSeq>& want,
                        const std::vector<TokenSeq>& got) {
  if (want.size() != got.size()) return static_cast<long>(want.size());
  long bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) bad += want[i] != got[i];
  return bad;
}

bool same_schedule(const ScheduleReport& a, const ScheduleReport& b) {
  if (a.per_card.size() != b.per_card.size()) return false;
  for (std::size_t c = 0; c < a.per_card.size(); ++c) {
    const CardStepStats &sa = a.per_card_steps[c], &sb = b.per_card_steps[c];
    if (sa.admitted != sb.admitted || sa.steps != sb.steps ||
        sa.packed_rows != sb.packed_rows ||
        a.per_card[c].total_cycles() != b.per_card[c].total_cycles())
      return false;
  }
  return true;
}

// Every modeled count the benchmark reports, for the exact-equality check
// against a run with the schedule verifier on.
std::vector<long long> modeled_counts(const ScheduleReport& r) {
  return {r.makespan_cycles(),        r.total_cycles(),
          r.sa_busy_cycles(),         r.softmax_busy_cycles(),
          r.layernorm_busy_cycles(),  r.softmax_stall_cycles(),
          r.boundary_stall_cycles(),  r.prefill_stall_cycles(),
          r.fused_steps(),            r.prefill_chunks(),
          r.packed_steps(),           r.packed_rows()};
}

void check_outputs_valid(Report& rep, const ScheduleReport& r, int vocab) {
  long bad = 0;
  for (const TokenSeq& out : r.outputs) {
    bool ok = static_cast<int>(out.size()) <= kMaxLen;
    for (int t : out) ok = ok && t >= 0 && t < vocab && t != kEosId;
    bad += !ok;
  }
  rep.check(bad == 0 && r.packed_rows() > 0,
            "outputs are token sequences within max_len", bad);
}

double modeled_tokens_per_s(const ScheduleReport& r) {
  return static_cast<double>(r.packed_rows()) /
         (static_cast<double>(r.makespan_cycles()) / (r.clock_mhz * 1e6));
}

// --- traced replay ---------------------------------------------------------

// Wraps every ResBlockBackend hook of `b` in a span.
ResBlockBackend traced_backend(const ResBlockBackend& b, Tracer& tr) {
  ResBlockBackend t;
  t.mha = [f = b.mha, &tr](const MatF& q, const MatF& kv,
                           const MhaWeights& w, const Mask& m) {
    Tracer::Scope s(tr, Layer::kEncMha, q.rows());
    return f(q, kv, w, m);
  };
  t.ffn = [f = b.ffn, &tr](const MatF& x, const FfnWeights& w) {
    Tracer::Scope s(tr, Layer::kFfn, x.rows());
    return f(x, w);
  };
  t.mha_self_cache = [f = b.mha_self_cache, &tr](const MhaWeights& w) {
    Tracer::Scope s(tr, Layer::kCacheInit, 0);
    return f(w);
  };
  t.mha_cross_cache = [f = b.mha_cross_cache, &tr](const MatF& memory,
                                                   const MhaWeights& w) {
    Tracer::Scope s(tr, Layer::kCacheInit, memory.rows());
    return f(memory, w);
  };
  t.mha_cached = [f = b.mha_cached, &tr](const MatF& q, MhaCache& cache,
                                         const MhaWeights& w, const Mask& m,
                                         bool append) {
    Tracer::Scope s(tr, append ? Layer::kDecSelfMha : Layer::kDecCrossMha,
                    q.rows());
    return f(q, cache, w, m, append);
  };
  t.mha_cached_batch = [f = b.mha_cached_batch, &tr](
                           const MatF& q, const std::vector<MhaCache*>& caches,
                           const MhaWeights& w, const std::vector<Mask>& masks,
                           bool append) {
    Tracer::Scope s(tr, append ? Layer::kDecSelfMha : Layer::kDecCrossMha,
                    q.rows());
    return f(q, caches, w, masks, append);
  };
  return t;
}

struct Live {
  std::size_t id;
  GreedySearch search;
  std::vector<SublayerPlan> chunks;  ///< prefill chunks not yet spliced
  std::size_t next_chunk = 0;
  bool ready() const { return next_chunk >= chunks.size(); }
};

// A single-threaded continuous-batching loop over one card's worth of
// slots: the same Transformer calls the Scheduler makes (encode,
// begin_decode, decode_step_batch, GreedySearch::advance, and on the
// accelerator the fuser's prefill capture and per-step ledger), with a span
// around each. Outputs must equal the Scheduler's.
std::vector<TokenSeq> replay(Transformer& model, const ResBlockBackend& backend,
                             DecodeStepFuser* fuser, int chunk_rows,
                             const std::vector<TokenSeq>& sources,
                             Tracer& tr) {
  model.set_backend(tr.enabled() ? traced_backend(backend, tr) : backend);
  std::vector<TokenSeq> outputs(sources.size());
  std::vector<std::unique_ptr<Live>> active;
  std::vector<DecodeState*> states;
  std::vector<int> tokens;
  std::vector<Live*> ready;
  std::vector<std::vector<float>> row(1);
  MatF logits;
  std::size_t next = 0;
  while (next < sources.size() || !active.empty()) {
    while (active.size() < static_cast<std::size_t>(kSlots) &&
           next < sources.size()) {
      const TokenSeq& src = sources[next];
      MatF memory;
      std::vector<SublayerPlan> chunks;
      {
        Tracer::Scope s(tr, Layer::kEncode, static_cast<long>(src.size()));
        if (fuser) fuser->begin_prefill();
        memory = model.encode(src);
        if (fuser) chunks = chunk_prefill(fuser->end_prefill(), chunk_rows);
      }
      active.push_back(std::make_unique<Live>(Live{
          next,
          GreedySearch(kMaxLen,
                       model.begin_decode(memory, unpadded_length(src))),
          std::move(chunks), 0}));
      ++next;
    }
    states.clear();
    tokens.clear();
    ready.clear();
    for (const auto& a : active)
      if (a->ready()) {
        ready.push_back(a.get());
        states.push_back(&a->search.state(0));
        tokens.push_back(a->search.input_token(0));
      }
    if (fuser) {
      fuser->begin_step();
      for (const auto& a : active)
        if (!a->ready()) fuser->add_prefill_chunk(a->chunks[a->next_chunk++]);
    }
    if (!states.empty()) {
      Tracer::Scope s(tr, Layer::kDecodeStep, static_cast<long>(states.size()));
      model.decode_step_batch(states, tokens, logits);
    }
    if (fuser) {
      Tracer::Scope s(tr, Layer::kStepLedger, 0);
      (void)fuser->end_step();
    }
    {
      Tracer::Scope s(tr, Layer::kSearch, static_cast<long>(ready.size()));
      for (std::size_t i = 0; i < ready.size(); ++i) {
        const float* r = logits.row(static_cast<int>(i));
        row[0].assign(r, r + logits.cols());
        ready[i]->search.advance(row);
      }
    }
    for (std::size_t i = 0; i < active.size();) {
      if (active[i]->search.done()) {
        outputs[active[i]->id] = active[i]->search.result();
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  model.set_backend(ResBlockBackend{});
  return outputs;
}

// --- trace 0: end-to-end ---------------------------------------------------

void measure(const Options& opt, Report& rep, const ServeSpec& spec,
             const Inputs& in) {
  const SchedulerConfig sc = scheduler_config(spec);
  const long n = static_cast<long>(in.sources.size());

  std::vector<double> setup;
  std::unique_ptr<Scheduler> sched;
  for (int i = 0; i < (opt.tiny ? 1 : kSetupReps); ++i) {
    sched.reset();
    const double t0 = now_s();
    sched = std::make_unique<Scheduler>(in.weights, in.calib, sc);
    setup.push_back(now_s() - t0);
  }
  rep.timing("setup_s", setup, "s");
  rep.set("setup_s", median(setup));

  // Untimed warm-up run: fills the arenas and the pool, and is the
  // reference every timed repetition must reproduce.
  rep.attempt(n);
  const ScheduleReport ref = sched->run(in.sources);
  check_outputs_valid(rep, ref, in.weights.vocab_size);

  std::vector<double> walls;
  long bad_outputs = 0, bad_schedules = 0;
  const double deadline = now_s() + opt.seconds;
  do {
    rep.attempt(n);
    const double t0 = now_s();
    ScheduleReport r = sched->run(in.sources);
    walls.push_back(now_s() - t0);
    if (opt.inject_mismatch && walls.size() == 1) r.outputs[0].push_back(3);
    bad_outputs += mismatched_outputs(ref.outputs, r.outputs);
    bad_schedules += !same_schedule(ref, r);
  } while (now_s() < deadline ||
           walls.size() < static_cast<std::size_t>(kMinTimedRuns));
  rep.check(bad_outputs == 0 && bad_schedules == 0,
            "repeated runs reproduce outputs, admission order and per-card "
            "cycles (" + std::to_string(walls.size()) + " runs)",
            std::max(bad_outputs, bad_schedules));

  // Rates use the fastest repetition; see fastest() in bench.hpp.
  const double wall = fastest(walls);
  rep.timing("run_wall_s", walls, "s");
  rep.info("tokens_per_run", static_cast<double>(ref.packed_rows()), "tokens",
           "decode rows, EOS included");
  rep.set("host_tokens_per_s", static_cast<double>(ref.packed_rows()) / wall);
  rep.set("host_resblocks_per_s", resblock_pairs(ref) / wall);
  rep.set("peak_rss_mb", peak_rss_mb());
  sched.reset();

  if (spec.backend != ServeBackend::kAccelerator) return;
  rep.info("modeled_tokens_per_s", modeled_tokens_per_s(ref), "tokens/s",
           "exact; per-layer metric");

  SchedulerConfig qc = sc;
  qc.backend = ServeBackend::kQuantized;
  rep.attempt(n);
  const ScheduleReport q = Scheduler(in.weights, in.calib, qc).run(in.sources);
  const long bad_q = mismatched_outputs(ref.outputs, q.outputs);
  rep.check(bad_q == 0, "outputs equal a quantized-backend Scheduler run",
            bad_q);

  SchedulerConfig vc = sc;
  vc.accel.verify_schedules = true;
  rep.attempt(n);
  const ScheduleReport v = Scheduler(in.weights, in.calib, vc).run(in.sources);
  const long bad_v = mismatched_outputs(ref.outputs, v.outputs);
  rep.check(bad_v == 0 && modeled_counts(v) == modeled_counts(ref),
            "schedule verifier raises no diagnostic and reproduces outputs "
            "and modeled counts",
            bad_v);
}

// --- trace 1: per-layer ----------------------------------------------------

void layers(const Options& opt, Report& rep, const ServeSpec& spec,
            const Inputs& in) {
  const SchedulerConfig sc = scheduler_config(spec);
  const long n = static_cast<long>(in.sources.size());

  std::vector<double> build;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    const Transformer m(in.weights);
    build.push_back(now_s() - t0);
  }
  rep.set("reference.model_build_s", median(build));

  Transformer model(in.weights);
  std::vector<double> calib;
  std::optional<QuantizedTransformer> qt;
  for (int i = 0; i < (opt.tiny ? 1 : 2); ++i) {
    qt.reset();
    const double t0 = now_s();
    qt.emplace(QuantizedTransformer::build(model, in.calib, kMaxLen,
                                           sc.softmax));
    calib.push_back(now_s() - t0);
  }
  rep.set("quant.calibrate_s", median(calib));

  Scheduler sched(in.weights, in.calib, sc);
  rep.attempt(n);
  const ScheduleReport ref = sched.run(in.sources);
  std::vector<double> walls;
  long bad = 0;
  for (int i = 0; i < 2; ++i) {
    rep.attempt(n);
    const double t0 = now_s();
    ScheduleReport r = sched.run(in.sources);
    walls.push_back(now_s() - t0);
    if (opt.inject_mismatch && i == 0) r.outputs[0].push_back(3);
    bad += mismatched_outputs(ref.outputs, r.outputs);
  }
  rep.check(bad == 0, "repeated runs reproduce outputs", bad);
  const double wall = median(walls);

  long max_rows = 0;
  for (const CardStepStats& s : ref.per_card_steps)
    max_rows = std::max(max_rows, s.packed_rows);
  rep.set("serve.packed_rows_mean", ref.packed_rows_mean());
  rep.set("serve.packed_steps", static_cast<double>(ref.packed_steps()));
  rep.set("serve.card_rows_imbalance",
          static_cast<double>(max_rows) * spec.cards /
              static_cast<double>(ref.packed_rows()));
  rep.set("serve.prefill_chunks", static_cast<double>(ref.prefill_chunks()));

  // One card is already served by one host thread; more cards get a
  // separate forced-serial Scheduler.
  double serial = wall;
  if (spec.cards > 1) {
    SchedulerConfig one = sc;
    one.host_threads = 1;
    Scheduler serial_sched(in.weights, in.calib, one);
    rep.attempt(n);
    const double t0 = now_s();
    const ScheduleReport r = serial_sched.run(in.sources);
    serial = now_s() - t0;
    const long bad_serial = mismatched_outputs(ref.outputs, r.outputs);
    rep.check(bad_serial == 0 && same_schedule(ref, r),
              "host_threads = 1 reproduces outputs and admission order",
              bad_serial);
  }
  rep.set("serve.serial_wall_s", serial);
  rep.set("serve.parallel_efficiency", serial / (spec.cards * wall));

  if (spec.backend == ServeBackend::kAccelerator) {
    rep.set("modeled_tokens_per_s", modeled_tokens_per_s(ref));
    rep.set("core.sa_utilization", ref.sa_utilization());
    rep.set("core.softmax_stall_cycles",
            static_cast<double>(ref.softmax_stall_cycles()));
    rep.set("core.boundary_stall_cycles",
            static_cast<double>(ref.boundary_stall_cycles()));
    rep.set("core.prefill_stall_cycles",
            static_cast<double>(ref.prefill_stall_cycles()));
    rep.set("core.layernorm_busy_cycles",
            static_cast<double>(ref.layernorm_busy_cycles()));
    rep.set("core.fused_steps", static_cast<double>(ref.fused_steps()));
  }

  // Replays: a short untimed one warms the arenas, then untraced and traced
  // replays alternate and the overhead compares their medians. The layer
  // totals come from the last traced replay.
  std::optional<Accelerator> acc;
  AcceleratorStats stats;
  std::optional<DecodeStepFuser> fuser;
  ResBlockBackend backend = qt->backend();
  if (spec.backend == ServeBackend::kAccelerator) {
    acc.emplace(sc.accel);
    fuser.emplace(*acc, &stats);
    backend = accelerator_backend(*qt, *acc, &stats, &*fuser);
  }
  DecodeStepFuser* f = fuser ? &*fuser : nullptr;
  const int chunk_rows = sc.accel.prefill_chunk_rows;
  Tracer off(false);
  const std::vector<TokenSeq> warm(
      in.sources.begin(), in.sources.begin() + std::min<long>(n, kSlots));
  (void)replay(model, backend, f, chunk_rows, warm, off);
  std::optional<Tracer> on;
  std::vector<double> plain_s, traced_s;
  long bad_replay = 0;
  for (int i = 0; i < kReplayPairs; ++i) {
    rep.attempt(2 * n);
    double t0 = now_s();
    bad_replay += mismatched_outputs(
        ref.outputs, replay(model, backend, f, chunk_rows, in.sources, off));
    plain_s.push_back(now_s() - t0);
    on.emplace(true);
    t0 = now_s();
    bad_replay += mismatched_outputs(
        ref.outputs, replay(model, backend, f, chunk_rows, in.sources, *on));
    traced_s.push_back(now_s() - t0);
  }
  rep.check(bad_replay == 0,
            "untraced and traced replay outputs equal the Scheduler's",
            bad_replay);
  rep.timing("replay_wall_s", traced_s, "s");
  rep.set("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0);

  const auto t = on->totals();
  auto at = [&](Layer l) { return t[static_cast<std::size_t>(l)]; };
  rep.set("reference.encode_s", at(Layer::kEncode).total_s);
  rep.set("reference.decode_step_s", at(Layer::kDecodeStep).total_s);
  rep.set("reference.decode_step_self_s", at(Layer::kDecodeStep).self_s);
  rep.set("reference.search_s", at(Layer::kSearch).total_s);
  const std::pair<Layer, const char*> hooks[] = {
      {Layer::kEncMha, "core.enc_mha"},
      {Layer::kDecSelfMha, "core.dec_self_mha"},
      {Layer::kDecCrossMha, "core.dec_cross_mha"},
      {Layer::kFfn, "core.ffn"}};
  for (const auto& [layer, name] : hooks) {
    const std::string base = name;
    rep.set(base + "_s", at(layer).total_s);
    rep.set(base + ".calls", static_cast<double>(at(layer).calls));
    rep.set(base + ".rows", static_cast<double>(at(layer).rows));
  }
  rep.set("core.cache_init_s", at(Layer::kCacheInit).total_s);
  if (fuser) rep.set("core.step_ledger_s", at(Layer::kStepLedger).total_s);
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const ServeSpec spec = spec_for(opt);
  const Inputs in = make_inputs(opt.seed, spec.sentences);
  if (opt.trace) {
    layers(opt, rep, spec, in);
    run_kernels(rep);
  } else {
    measure(opt, rep, spec, in);
  }
}

}  // namespace perfbench
