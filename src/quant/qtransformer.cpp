#include "quant/qtransformer.hpp"

#include <optional>

namespace tfacc {

namespace {

// Calls mha(block, slot) for every MHA block of `weights`, then
// ffn(block, slot) for every FFN block, each kind in model order: the order
// one forward pass first reaches them, encoder layers first, then each
// decoder layer's self- before its cross-attention. Slots count each kind
// from 0; they index CaptureStore and QuantizedTransformer. (Building every
// MHA block before any FFN block also keeps the build's peak memory low.)
template <typename MhaFn, typename FfnFn>
void for_each_block(const TransformerWeights& weights, MhaFn&& mha,
                    FfnFn&& ffn) {
  std::size_t slot = 0;
  for (const auto& layer : weights.encoder_layers) mha(layer.mha, slot++);
  for (const auto& layer : weights.decoder_layers) {
    mha(layer.self_mha, slot++);
    mha(layer.cross_mha, slot++);
  }
  slot = 0;
  for (const auto& layer : weights.encoder_layers) ffn(layer.ffn, slot++);
  for (const auto& layer : weights.decoder_layers) ffn(layer.ffn, slot++);
}

// Slot of `w` among the blocks of its kind, matched by address (no block
// lies inside another, so only `w` itself can match): a block of other
// weights (a copy of them included) throws CheckError.
template <typename Block>
std::size_t slot_of(const TransformerWeights& weights, const Block& w) {
  std::optional<std::size_t> slot;
  const auto match = [&](const auto& block, std::size_t i) {
    if (static_cast<const void*>(&block) == &w) slot = i;
  };
  for_each_block(weights, match, match);
  TFACC_CHECK_ARG_MSG(slot.has_value(),
                      "ResBlock weights are not part of the calibrated model");
  return *slot;
}

}  // namespace

CaptureStore::CaptureStore(std::shared_ptr<const TransformerWeights> w)
    : weights(std::move(w)) {
  TFACC_CHECK_ARG(weights != nullptr);
  for_each_block(
      *weights, [this](const MhaWeights&, std::size_t) { mha.emplace_back(); },
      [this](const FfnWeights&, std::size_t) { ffn.emplace_back(); });
}

ResBlockBackend capturing_backend(CaptureStore& store) {
  // Only the batch-style hooks capture; the cached-MHA hooks keep their
  // reference defaults, so drive this backend with
  // DecodeMode::kFullRecompute (as build() does) to record every block.
  ResBlockBackend b;
  b.mha = [&store](const MatF& q, const MatF& kv, const MhaWeights& w,
                   const Mask& mask) {
    auto& calib = store.mha[slot_of(*store.weights, w)];
    calib.q.push_back(q);
    calib.kv.push_back(kv);
    calib.mask.push_back(mask);
    return mha_resblock(q, kv, w, mask);
  };
  b.ffn = [&store](const MatF& x, const FfnWeights& w) {
    store.ffn[slot_of(*store.weights, w)].push_back(x);
    return ffn_resblock(x, w);
  };
  return b;
}

QuantizedTransformer QuantizedTransformer::build(
    const Transformer& model, const std::vector<TokenSeq>& calib_sources,
    int max_len, SoftmaxImpl impl, CalibMethod method) {
  TFACC_CHECK_ARG(!calib_sources.empty());

  // Calibrate on a private model over the same weights, so the backend
  // `model` holds plays no part. Full recompute: the capturing backend only
  // hooks the batch-style mha/ffn calls, and calibration wants the same
  // growing-prefix inputs deployment's batch ResBlocks would see.
  CaptureStore store(model.shared_weights());
  Transformer capture(store.weights);
  capture.set_backend(capturing_backend(store));
  for (const auto& src : calib_sources)
    capture.translate_greedy(src, max_len, DecodeMode::kFullRecompute);

  // A block that calibration never reached has no samples, and its build
  // throws CheckError.
  QuantizedTransformer qt;
  qt.weights_ = store.weights;
  for_each_block(
      *qt.weights_,
      [&](const MhaWeights& w, std::size_t i) {
        qt.mha_.push_back(MhaQuantized::build(w, store.mha[i], impl, method));
      },
      [&](const FfnWeights& w, std::size_t i) {
        qt.ffn_.push_back(FfnQuantized::build(w, store.ffn[i], method));
      });
  return qt;
}

const MhaQuantized& QuantizedTransformer::mha_for(const MhaWeights& w) const {
  return mha_[slot_of(*weights_, w)];
}

const FfnQuantized& QuantizedTransformer::ffn_for(const FfnWeights& w) const {
  return ffn_[slot_of(*weights_, w)];
}

ResBlockBackend QuantizedTransformer::backend() const {
  ResBlockBackend b;
  b.mha = [this](const MatF& q, const MatF& kv, const MhaWeights& w,
                 const Mask& mask) {
    const MhaQuantized& qm = mha_for(w);
    return qm.dequantize_out(
        qm.forward(qm.quantize_q(q), qm.quantize_kv(kv), mask));
  };
  b.ffn = [this](const MatF& x, const FfnWeights& w) {
    const FfnQuantized& qf = ffn_for(w);
    return qf.dequantize_out(qf.forward(qf.quantize_in(x)));
  };
  b.mha_self_cache = [this](const MhaWeights& w) -> MhaCachePtr {
    return std::make_unique<QuantKvCache>(mha_for(w).make_cache());
  };
  b.mha_cross_cache = [this](const MatF& memory,
                             const MhaWeights& w) -> MhaCachePtr {
    const MhaQuantized& qm = mha_for(w);
    auto cache = std::make_unique<QuantKvCache>(qm.make_cache());
    qm.append_kv(qm.quantize_kv(memory), *cache);
    return cache;
  };
  b.mha_cached = [this](const MatF& q, MhaCache& cache, const MhaWeights& w,
                        const Mask& mask, bool append) {
    const MhaQuantized& qm = mha_for(w);
    auto& kv_cache = dynamic_cast<QuantKvCache&>(cache);
    if (append) qm.append_kv(qm.quantize_kv(q), kv_cache);
    return qm.dequantize_out(
        qm.forward_cached(qm.quantize_q(q), kv_cache, mask));
  };
  // Packed decode: the stacked rows share one quantization pass per scale
  // (q_in for queries/residual, kv_in for the appended K/V) and one
  // projection per weight matrix; attention stays per slot.
  b.mha_cached_batch = [this](const MatF& q,
                              const std::vector<MhaCache*>& caches,
                              const MhaWeights& w,
                              const std::vector<Mask>& masks, bool append) {
    const MhaQuantized& qm = mha_for(w);
    // Thread-local marshalling scratch: zero heap allocations once warm.
    BatchHookScratch& s = batch_hook_scratch();
    quant_kv_caches_into(caches, s);
    mask_ptrs_into(masks, s);
    if (append) qm.append_kv_batch(qm.quantize_kv(q), s.kv);
    return qm.dequantize_out(
        qm.forward_cached_batch(qm.quantize_q(q), s.ckv, s.masks));
  };
  return b;
}

TokenSeq QuantizedTransformer::translate_greedy(const Transformer& model,
                                                const TokenSeq& src,
                                                int max_len,
                                                DecodeMode mode) const {
  Transformer quantized(model.shared_weights());
  quantized.set_backend(backend());
  return quantized.translate_greedy(src, max_len, mode);
}

}  // namespace tfacc
