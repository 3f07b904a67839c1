#include "quant/qtransformer.hpp"

#include <optional>

#include "reference/search.hpp"

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

// The target prefix (BOS + emitted tokens) fed to the decoder by the last
// step of a full-recompute greedy decode of the source whose encoder output
// is `memory`: GreedySearch's own stop rule, driven by cached FP32 decode
// steps, which are bit-identical to full recompute.
TokenSeq last_greedy_prefix(const Transformer& fp32, const MatF& memory,
                            int src_valid, int max_len) {
  GreedySearch search(max_len, fp32.begin_decode(memory, src_valid));
  TokenSeq prefix;
  while (!search.done()) {
    prefix = search.prefix(0);
    search.advance({fp32.decode_step(search.state(0), search.input_token(0))});
  }
  return prefix;
}

// Counts the sample that one decoder pass over a `prefix_rows`-row prefix
// just added to each decoder block's capture (slots as for_each_block
// numbers them) as the full-recompute steps 1..T (T = prefix_rows) would
// have fed it. The causal mask keeps rows independent, so step t's decoder
// input is the first t rows of that pass, bit for bit: decoder row i is fed
// in steps i+1..T (T − i times), and the encoder memory, cross-attention's
// K/V, in every step (T times).
void count_decoder_rows(CaptureStore& store, int prefix_rows,
                        int memory_rows) {
  std::vector<int> stream(static_cast<std::size_t>(prefix_rows));
  for (int i = 0; i < prefix_rows; ++i)
    stream[static_cast<std::size_t>(i)] = prefix_rows - i;
  const std::vector<int> memory(static_cast<std::size_t>(memory_rows),
                                prefix_rows);
  std::size_t mha = store.weights->encoder_layers.size();
  std::size_t ffn = mha;
  for (std::size_t l = 0; l < store.weights->decoder_layers.size(); ++l) {
    MhaQuantized::Calibration& self = store.mha[mha++];
    self.q_count.push_back(stream);
    self.kv_count.push_back(stream);
    MhaQuantized::Calibration& cross = store.mha[mha++];
    cross.q_count.push_back(stream);
    cross.kv_count.push_back(memory);
    store.ffn[ffn++].x_count.push_back(stream);
  }
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
    store.ffn[slot_of(*store.weights, w)].x.push_back(x);
    return ffn_resblock(x, w);
  };
  return b;
}

QuantizedTransformer QuantizedTransformer::build(
    const Transformer& model, const std::vector<TokenSeq>& calib_sources,
    int max_len, SoftmaxImpl impl, CalibMethod method) {
  TFACC_CHECK_ARG(!calib_sources.empty());

  // Two private models over the same weights, so the backend `model` holds
  // plays no part: `capture` records one pass per source, `fp32` (the plain
  // reference) finds the prefix that pass runs over.
  CaptureStore store(model.shared_weights());
  Transformer capture(store.weights);
  capture.set_backend(capturing_backend(store));
  const Transformer fp32(store.weights);
  for (const auto& src : calib_sources) {
    const MatF memory = capture.encode(src);
    const int src_valid = unpadded_length(src);
    const TokenSeq prefix = last_greedy_prefix(fp32, memory, src_valid,
                                               max_len);
    capture.decode_states(prefix, memory, src_valid);
    count_decoder_rows(store, static_cast<int>(prefix.size()), memory.rows());
  }

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
