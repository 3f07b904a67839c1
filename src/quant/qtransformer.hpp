// Post-training quantization of a whole Transformer: capture per-ResBlock
// calibration inputs by running FP32 inference, build the quantized blocks,
// and expose a ResBlockBackend that routes every block through its INT8
// model. This is the software side of the Section V.A experiment.
#pragma once

#include <memory>
#include <vector>

#include "quant/qresblock.hpp"
#include "reference/transformer.hpp"

namespace tfacc {

/// FP32 inputs observed at each ResBlock of one model's weights during a
/// calibration run, in model order: mha[i] / ffn[i] belong to the weights'
/// i-th MHA / FFN block, counting encoder layers first and each decoder
/// layer's self- before its cross-attention (the order a forward pass first
/// reaches them).
struct CaptureStore {
  explicit CaptureStore(std::shared_ptr<const TransformerWeights> weights);

  std::shared_ptr<const TransformerWeights> weights;
  std::vector<MhaQuantized::Calibration> mha;
  std::vector<FfnQuantized::Calibration> ffn;
};

/// A backend that behaves exactly like the FP32 reference but records the
/// inputs of every `mha` / `ffn` call into `store` (which must outlive the
/// backend's use), with no row counts. Only those two hooks record: the
/// cached-MHA hooks keep their reference defaults, so supports_cached_decode()
/// is false and translate_greedy / translate_beam on this backend fall back
/// to full recompute. A block from weights other than the store's throws
/// CheckError.
ResBlockBackend capturing_backend(CaptureStore& store);

/// All ResBlocks of one set of weights, quantized. Immutable once built, so
/// one instance serves every model (on any thread) that runs on those shared
/// weights. A hook's block is resolved by its model-order position in the
/// weights, which this object keeps alive; a block from any other weights —
/// a copy of them included — throws CheckError.
class QuantizedTransformer {
 public:
  /// Calibrate on the block inputs a full-recompute FP32 greedy translation
  /// of each of `calib_sources` would feed every block, then quantize every
  /// block of `model.shared_weights()`. The backend `model` has installed
  /// plays no part: each source is decoded once, cached, on a private FP32
  /// model to find its longest target prefix T, and one capturing encoder
  /// pass plus one decoder pass over that prefix record every row once. Each
  /// row carries the count of full-recompute steps that would have fed it
  /// (decoder row i: T − i; encoder memory as cross-attention K/V: T;
  /// encoder rows: 1), so both CalibMethods see the same multiset and build
  /// bit-identical blocks.
  static QuantizedTransformer build(const Transformer& model,
                                    const std::vector<TokenSeq>& calib_sources,
                                    int max_len, SoftmaxImpl impl,
                                    CalibMethod method = CalibMethod::kMaxAbs);

  /// Backend computing every ResBlock with its INT8 model
  /// (dequantizing back to FP32 at block boundaries, as deployment does).
  /// Includes the cached-MHA hooks: K/V caches hold already-quantized INT8
  /// rows, so incremental decode is bit-identical to full recompute.
  ResBlockBackend backend() const;

  const MhaQuantized& mha_for(const MhaWeights& w) const;
  const FfnQuantized& ffn_for(const FfnWeights& w) const;

  /// Convenience: translate with this quantized model on `model`'s weights
  /// (through a private model, so `model` and its backend are untouched).
  TokenSeq translate_greedy(const Transformer& model, const TokenSeq& src,
                            int max_len,
                            DecodeMode mode = DecodeMode::kKvCache) const;

 private:
  QuantizedTransformer() = default;  // build() is the only way to make one

  std::shared_ptr<const TransformerWeights> weights_;
  std::vector<MhaQuantized> mha_;  ///< model order (see CaptureStore)
  std::vector<FfnQuantized> ffn_;  ///< model order
};

}  // namespace tfacc
