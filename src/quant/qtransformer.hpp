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
  std::vector<std::vector<MatF>> ffn;
};

/// A backend that behaves exactly like the FP32 reference but records every
/// block input into `store` (which must outlive the backend's use). A block
/// from weights other than the store's throws CheckError.
ResBlockBackend capturing_backend(CaptureStore& store);

/// All ResBlocks of one set of weights, quantized. Immutable once built, so
/// one instance serves every model (on any thread) that runs on those shared
/// weights. A hook's block is resolved by its model-order position in the
/// weights, which this object keeps alive; a block from any other weights —
/// a copy of them included — throws CheckError.
class QuantizedTransformer {
 public:
  /// Calibrate by greedily translating `calib_sources` with the FP32
  /// reference on `model.shared_weights()` (through a private model, so the
  /// backend `model` has installed plays no part), then quantize every block
  /// of those weights.
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
