// In-memory span recorder for the traced replay. Spans are recorded from
// the benchmark's own files around calls into each layer; they nest (a
// ResBlock hook span inside a decode-step span), so a layer's self time is
// its duration minus its children's. A disabled tracer records nothing.
#pragma once

#include <array>
#include <vector>

#include "bench.hpp"

namespace perfbench {

enum class Layer {
  kEncode,       ///< Transformer::encode (admission)
  kDecodeStep,   ///< Transformer::decode_step_batch
  kSearch,       ///< GreedySearch::advance over one step's logits rows
  kStepLedger,   ///< DecodeStepFuser::end_step (the simulator's cost)
  kEncMha,       ///< ResBlockBackend::mha (encoder self-attention)
  kDecSelfMha,   ///< mha_cached_batch / mha_cached with append
  kDecCrossMha,  ///< mha_cached_batch / mha_cached without append
  kFfn,          ///< ResBlockBackend::ffn (encoder and decoder)
  kCacheInit,    ///< mha_self_cache / mha_cross_cache
  kCount,
};

class Tracer {
 public:
  struct Totals {
    double total_s = 0;  ///< Σ span durations
    double self_s = 0;   ///< Σ durations minus child spans
    long calls = 0;
    long rows = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& t, Layer layer, long rows) : t_(t) {
      if (t_.enabled_) id_ = t_.open(layer, rows);
    }
    ~Scope() {
      if (id_ >= 0) t_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_ = -1;
  };

  std::array<Totals, static_cast<int>(Layer::kCount)> totals() const;

 private:
  struct Span {
    Layer layer;
    int parent;
    long rows;
    double t0, t1;
  };

  int open(Layer layer, long rows) {
    spans_.push_back(Span{layer, current_, rows, now_s(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  bool enabled_;
  int current_ = -1;
  std::vector<Span> spans_;
};

inline std::array<Tracer::Totals, static_cast<int>(Layer::kCount)>
Tracer::totals() const {
  std::array<Totals, static_cast<int>(Layer::kCount)> out{};
  std::vector<double> child_s(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      child_s[static_cast<std::size_t>(spans_[i].parent)] +=
          spans_[i].t1 - spans_[i].t0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[static_cast<std::size_t>(s.layer)];
    t.total_s += s.t1 - s.t0;
    t.self_s += s.t1 - s.t0 - child_s[i];
    ++t.calls;
    t.rows += s.rows;
  }
  return out;
}

}  // namespace perfbench
