// Post-training quantization of a whole Transformer: capture per-ResBlock
// calibration inputs by running FP32 inference, build the quantized blocks,
// and expose a ResBlockBackend that routes every block through its INT8
// model. This is the software side of the Section V.A experiment.
#pragma once

#include <unordered_map>
#include <vector>

#include "quant/qresblock.hpp"
#include "reference/transformer.hpp"

namespace tfacc {

/// FP32 inputs observed at each ResBlock during a calibration run,
/// keyed by the address of the block's weights inside the model.
///
/// The maps are lookup-only accumulators: anything that must iterate over
/// the captured blocks (QuantizedTransformer::build) walks `mha_order` /
/// `ffn_order` instead, which record first-capture order — pointer-keyed
/// hash iteration depends on where the allocator placed the weights, and a
/// build that quantizes blocks in allocator order is not reproducible.
struct CaptureStore {
  std::unordered_map<const MhaWeights*, MhaQuantized::Calibration>
      mha;  // lint: lookup-only
  std::unordered_map<const FfnWeights*, std::vector<MatF>>
      ffn;  // lint: lookup-only
  std::vector<const MhaWeights*> mha_order;  ///< first-capture order
  std::vector<const FfnWeights*> ffn_order;  ///< first-capture order
};

/// A backend that behaves exactly like the FP32 reference but records every
/// block input into `store` (which must outlive the backend's use).
ResBlockBackend capturing_backend(CaptureStore& store);

/// All ResBlocks of one model, quantized. Keys are weight addresses inside
/// the Transformer used at build time, so that model object must stay alive
/// (and unmoved) for the lifetime of this object.
class QuantizedTransformer {
 public:
  /// Calibrate by greedily translating `calib_sources` with the FP32 model,
  /// then quantize every block. The model's backend is restored on return,
  /// including when a source throws.
  static QuantizedTransformer build(Transformer& model,
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

  /// Convenience: translate with the quantized backend installed, restoring
  /// the model's previous backend afterwards (also when translation throws).
  TokenSeq translate_greedy(Transformer& model, const TokenSeq& src,
                            int max_len,
                            DecodeMode mode = DecodeMode::kKvCache) const;

 private:
  // Accessed only through find() (mha_for / ffn_for); nothing iterates, so
  // pointer keys cannot leak allocator order into any report or ledger.
  std::unordered_map<const MhaWeights*, MhaQuantized> mha_;  // lint: lookup-only
  std::unordered_map<const FfnWeights*, FfnQuantized> ffn_;  // lint: lookup-only
};

}  // namespace tfacc
