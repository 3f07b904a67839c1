#include "quant/qresblock.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace tfacc {

namespace {

// INT16 activations keep ~2.7% headroom below the type limit so that
// rounding in the requantizers cannot saturate calibration-range values.
constexpr int kI16CalibMax = 32000;

float scale_of(const std::vector<MatF>& samples, int qmax, CalibMethod method,
               const RowCounts& counts) {
  return calibrate(samples, qmax, method, counts).scale;
}

}  // namespace

MatI16 saturating_add_i16(const MatI16& a, const MatI16& b) {
  TFACC_CHECK_ARG(a.same_shape(b));
  MatI16 out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const std::int16_t* ar = a.row(r);
    const std::int16_t* br = b.row(r);
    std::int16_t* orow = out.row(r);
    for (int c = 0; c < a.cols(); ++c)
      orow[c] = saturate_i16(static_cast<std::int64_t>(ar[c]) + br[c]);
  }
  return out;
}

MatI16 requantize_i8_to_i16(const MatI8& m, const FixedPointScale& s) {
  MatI16 out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    const std::int8_t* mr = m.row(r);
    std::int16_t* orow = out.row(r);
    for (int c = 0; c < m.cols(); ++c) orow[c] = s.apply_i16(mr[c]);
  }
  return out;
}

// --- QuantizedLinear ---------------------------------------------------------

QuantizedLinear QuantizedLinear::build(const MatF& w,
                                       const std::vector<float>& bias,
                                       float in_scale, float out_scale,
                                       WeightGranularity granularity) {
  TFACC_CHECK_ARG(in_scale > 0.0f && out_scale > 0.0f);
  TFACC_CHECK_ARG(static_cast<int>(bias.size()) == w.cols());
  QuantizedLinear q;
  q.in_scale = in_scale;
  q.w_scale = calibrate(w, 127).scale;
  q.out_scale = out_scale;
  q.granularity = granularity;
  q.requant = FixedPointScale::from_double(
      static_cast<double>(in_scale) * q.w_scale / out_scale);
  if (granularity == WeightGranularity::kPerTensor) {
    q.w = quantize_i8(w, QuantParams{q.w_scale});
    q.bias = quantize_bias(bias, in_scale, q.w_scale);
    q.repack();
    return q;
  }
  // Per-column: each output channel gets its own scale and requantizer.
  q.w = MatI8(w.rows(), w.cols());
  q.bias.resize(static_cast<std::size_t>(w.cols()));
  q.col_w_scale.resize(static_cast<std::size_t>(w.cols()));
  q.col_requant.resize(static_cast<std::size_t>(w.cols()));
  for (int j = 0; j < w.cols(); ++j) {
    float mx = 0.0f;
    for (int r = 0; r < w.rows(); ++r)
      mx = std::max(mx, std::abs(w(r, j)));
    const float ws = mx > 0.0f ? mx / 127.0f : 1.0f;
    q.col_w_scale[static_cast<std::size_t>(j)] = ws;
    for (int r = 0; r < w.rows(); ++r)
      q.w(r, j) = saturate_i8(std::llround(w(r, j) / ws));
    q.bias[static_cast<std::size_t>(j)] = saturate_i32(std::llround(
        bias[static_cast<std::size_t>(j)] /
        (static_cast<double>(in_scale) * ws)));
    q.col_requant[static_cast<std::size_t>(j)] = FixedPointScale::from_double(
        static_cast<double>(in_scale) * ws / out_scale);
  }
  q.repack();
  return q;
}

MatI32 QuantizedLinear::accumulate(const MatI8& x) const {
  // Packed fused-bias kernel: c = bias ⊕ x·W in one pass, exactly
  // add_bias_i32(gemm_i8(x, w), bias). build() packs w, and every in-place
  // mutation of w (fault injection) repacks it.
  TFACC_CHECK_MSG(wpack.k == w.rows() && wpack.n == w.cols(),
                  "wpack " << wpack.k << 'x' << wpack.n << " vs w "
                           << w.rows() << 'x' << w.cols()
                           << " (call repack() after changing w)");
  MatI32 out(x.rows(), w.cols());
  kernels::gemm_i8_packed_bias_into(x, wpack, bias, out);
  return out;
}

MatI8 QuantizedLinear::requantize(const MatI32& acc, int col_offset) const {
  if (granularity == WeightGranularity::kPerTensor)
    return requantize_i8(acc, requant);
  TFACC_CHECK_ARG(col_offset >= 0 &&
                  col_offset + acc.cols() <=
                      static_cast<int>(col_requant.size()));
  MatI8 out(acc.rows(), acc.cols());
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      out(r, c) = col_requant[static_cast<std::size_t>(col_offset + c)]
                      .apply_i8(acc(r, c));
  return out;
}

MatI8 QuantizedLinear::forward(const MatI8& x) const {
  return requantize(accumulate(x));
}

MatI8 QuantizedLinear::forward_relu(const MatI8& x) const {
  return requantize(relu_i32(accumulate(x)));
}

// --- MhaQuantized ------------------------------------------------------------

MhaQuantized MhaQuantized::build(const MhaWeights& w, const Calibration& calib,
                                 SoftmaxImpl impl, CalibMethod method,
                                 WeightGranularity granularity) {
  TFACC_CHECK_ARG(!w.heads.empty());
  TFACC_CHECK_ARG(!calib.q.empty());
  TFACC_CHECK_ARG(calib.q.size() == calib.kv.size() &&
                  calib.q.size() == calib.mask.size());
  const int head_dim = w.heads.front().wq.cols();
  TFACC_CHECK_ARG_MSG(impl != SoftmaxImpl::kHardware || head_dim == 64,
                      "the Fig. 6 datapath hard-codes the /8 = sqrt(64) scale");

  MhaQuantized m;
  m.d_model = w.wg.rows();
  m.num_heads = static_cast<int>(w.heads.size());
  m.head_dim = head_dim;
  m.softmax_impl = impl;
  m.q_in_scale = scale_of(calib.q, 127, method, calib.q_count);
  m.kv_in_scale = scale_of(calib.kv, 127, method, calib.kv_count);

  // FP32 calibration pass: collect per-head projection ranges and the ranges
  // of P, G and the LayerNorm output over all samples.
  const std::size_t n_samples = calib.q.size();
  std::vector<std::vector<MatF>> q1s(w.heads.size()), k1s(w.heads.size()),
      v1s(w.heads.size());
  std::vector<MatF> ps, gs, outs;
  for (std::size_t s = 0; s < n_samples; ++s) {
    std::vector<MatF> head_outputs;
    for (std::size_t h = 0; h < w.heads.size(); ++h) {
      const auto& head = w.heads[h];
      MatF q1 = add_bias(gemm(calib.q[s], head.wq), head.bq);
      MatF k1 = add_bias(gemm(calib.kv[s], head.wk), head.bk);
      MatF v1 = add_bias(gemm(calib.kv[s], head.wv), head.bv);
      head_outputs.push_back(attention_head(q1, k1, v1, calib.mask[s]));
      q1s[h].push_back(std::move(q1));
      k1s[h].push_back(std::move(k1));
      v1s[h].push_back(std::move(v1));
    }
    MatF p = hconcat(head_outputs);
    MatF g = add(calib.q[s], add_bias(gemm(p, w.wg), w.bg));
    outs.push_back(layer_norm(g, w.norm));
    ps.push_back(std::move(p));
    gs.push_back(std::move(g));
  }

  m.p_scale = scale_of(ps, 127, method, calib.q_count);
  m.g_scale = scale_of(gs, kI16CalibMax, method, calib.q_count);
  m.out_scale = scale_of(outs, 127, method, calib.q_count);

  m.heads.resize(w.heads.size());
  for (std::size_t h = 0; h < w.heads.size(); ++h) {
    Head& qh = m.heads[h];
    const auto& wh = w.heads[h];
    qh.wq = QuantizedLinear::build(
        wh.wq, wh.bq, m.q_in_scale,
        scale_of(q1s[h], 127, method, calib.q_count), granularity);
    qh.wk = QuantizedLinear::build(
        wh.wk, wh.bk, m.kv_in_scale,
        scale_of(k1s[h], 127, method, calib.kv_count), granularity);
    qh.wv = QuantizedLinear::build(
        wh.wv, wh.bv, m.kv_in_scale,
        scale_of(v1s[h], 127, method, calib.kv_count), granularity);
    qh.av_requant = FixedPointScale::from_double(
        static_cast<double>(hw::kProbScale) * qh.wv.out_scale / m.p_scale);
  }

  // W_G requantizes straight into the INT16 residual domain, so its
  // QuantizedLinear out_scale equals g_scale (requant field unused there).
  m.wg = QuantizedLinear::build(w.wg, w.bg, m.p_scale, m.g_scale);
  m.wg_to_g = FixedPointScale::from_double(
      static_cast<double>(m.p_scale) * m.wg.w_scale / m.g_scale);
  m.residual_to_g =
      FixedPointScale::from_double(static_cast<double>(m.q_in_scale) /
                                   m.g_scale);
  m.norm = hw::LayerNormUnit::build(w.norm, m.out_scale);
  return m;
}

MatI8 MhaQuantized::softmax(const MatI32& scores, const Mask& mask,
                            int head) const {
  TFACC_CHECK_ARG(head >= 0 && head < num_heads);
  const auto& qh = heads[static_cast<std::size_t>(head)];
  const double d_scale =
      static_cast<double>(qh.wq.out_scale) * qh.wk.out_scale;
  switch (softmax_impl) {
    case SoftmaxImpl::kHardware: {
      const hw::SoftmaxUnit unit(d_scale);
      return unit(scores, mask);
    }
    case SoftmaxImpl::kFloatExact: {
      const MatF d = dequantize_i32(scores, static_cast<float>(d_scale));
      const MatF probs = scaled_masked_softmax(
          d, mask, std::sqrt(static_cast<float>(head_dim)));
      return quantize_i8(probs, QuantParams{hw::kProbScale});
    }
  }
  TFACC_CHECK(false);
  return {};
}

namespace {

/// W_G projection + residual + LayerNorm, shared by the plain and cached
/// forward paths (both operate per row).
MatI8 mha_output_stage(const MhaQuantized& m, const MatI8& q,
                       const MatI8& p) {
  const MatI32 g_acc = m.wg.accumulate(p);
  const MatI16 g_proj = requantize_i16(g_acc, m.wg_to_g);
  const MatI16 g_res = requantize_i8_to_i16(q, m.residual_to_g);
  const MatI16 g = saturating_add_i16(g_proj, g_res);
  return m.norm(g);
}

}  // namespace

MatI8 MhaQuantized::forward(const MatI8& q, const MatI8& kv,
                            const Mask& mask) const {
  TFACC_CHECK_ARG(q.cols() == d_model && kv.cols() == d_model);
  TFACC_CHECK_ARG(mask.rows() == q.rows() && mask.cols() == kv.rows());

  MatI8 p(q.rows(), d_model);
  for (int h = 0; h < num_heads; ++h) {
    const auto& qh = heads[static_cast<std::size_t>(h)];
    const MatI8 q1 = qh.wq.forward(q);
    const MatI8 k1 = qh.wk.forward(kv);
    const MatI8 v1 = qh.wv.forward(kv);
    const MatI32 scores = gemm_nt_i8(q1, k1);
    const MatI8 probs = softmax(scores, mask, h);
    const MatI32 a = gemm_i8(probs, v1);
    p.set_block(0, h * head_dim, requantize_i8(a, qh.av_requant));
  }
  return mha_output_stage(*this, q, p);
}

// --- Cached (incremental-decode) path ---------------------------------------

QuantKvCache::QuantKvCache(std::size_t num_heads, int head_dim)
    : k1(num_heads, MatI8(0, head_dim)), v1(num_heads, MatI8(0, head_dim)) {}

MhaCachePtr QuantKvCache::clone() const {
  return std::make_unique<QuantKvCache>(*this);
}

int QuantKvCache::rows() const { return k1.empty() ? 0 : k1.front().rows(); }

QuantKvCache MhaQuantized::make_cache() const {
  return QuantKvCache(static_cast<std::size_t>(num_heads), head_dim);
}

void MhaQuantized::append_kv(const MatI8& kv, QuantKvCache& cache) const {
  TFACC_CHECK_ARG(kv.cols() == d_model);
  TFACC_CHECK_ARG(cache.k1.size() == heads.size());
  for (std::size_t h = 0; h < heads.size(); ++h) {
    cache.k1[h].append_rows(heads[h].wk.forward(kv));
    cache.v1[h].append_rows(heads[h].wv.forward(kv));
  }
}

MatI8 MhaQuantized::forward_cached(const MatI8& q, const QuantKvCache& cache,
                                   const Mask& mask) const {
  TFACC_CHECK_ARG(q.cols() == d_model);
  TFACC_CHECK_ARG(mask.rows() == q.rows() && mask.cols() == cache.rows());

  MatI8 p(q.rows(), d_model);
  for (int h = 0; h < num_heads; ++h) {
    const auto& qh = heads[static_cast<std::size_t>(h)];
    const MatI8 q1 = qh.wq.forward(q);
    const MatI32 scores =
        gemm_nt_i8(q1, cache.k1[static_cast<std::size_t>(h)]);
    const MatI8 probs = softmax(scores, mask, h);
    const MatI32 a = gemm_i8(probs, cache.v1[static_cast<std::size_t>(h)]);
    p.set_block(0, h * head_dim, requantize_i8(a, qh.av_requant));
  }
  return mha_output_stage(*this, q, p);
}

BatchHookScratch& batch_hook_scratch() {
  thread_local BatchHookScratch s;
  return s;
}

void quant_kv_caches_into(const std::vector<MhaCache*>& caches,
                          BatchHookScratch& s) {
  s.kv.clear();
  s.ckv.clear();
  s.kv.reserve(caches.size());
  s.ckv.reserve(caches.size());
  for (MhaCache* c : caches) {
    QuantKvCache* q = &dynamic_cast<QuantKvCache&>(*c);
    s.kv.push_back(q);
    s.ckv.push_back(q);
  }
}

void mask_ptrs_into(const std::vector<Mask>& masks, BatchHookScratch& s) {
  s.masks.clear();
  s.masks.reserve(masks.size());
  for (const Mask& m : masks) s.masks.push_back(&m);
}

void MhaQuantized::append_kv_batch(
    const MatI8& kv, const std::vector<QuantKvCache*>& caches) const {
  TFACC_CHECK_ARG(kv.cols() == d_model);
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == kv.rows());
  for (std::size_t h = 0; h < heads.size(); ++h) {
    const MatI8 k1 = heads[h].wk.forward(kv);
    const MatI8 v1 = heads[h].wv.forward(kv);
    for (int r = 0; r < kv.rows(); ++r) {
      QuantKvCache& cache = *caches[static_cast<std::size_t>(r)];
      TFACC_CHECK_ARG(cache.k1.size() == heads.size());
      cache.k1[h].append_rows(k1.block(r, 0, 1, head_dim));
      cache.v1[h].append_rows(v1.block(r, 0, 1, head_dim));
    }
  }
}

MatI8 MhaQuantized::forward_cached_batch(
    const MatI8& q, const std::vector<const QuantKvCache*>& caches,
    const std::vector<const Mask*>& masks) const {
  const int n = q.rows();
  TFACC_CHECK_ARG(q.cols() == d_model);
  TFACC_CHECK_ARG(static_cast<int>(caches.size()) == n &&
                  static_cast<int>(masks.size()) == n);
  for (int r = 0; r < n; ++r)
    TFACC_CHECK_ARG(masks[static_cast<std::size_t>(r)]->rows() == 1 &&
                    masks[static_cast<std::size_t>(r)]->cols() ==
                        caches[static_cast<std::size_t>(r)]->rows());

  MatI8 p(n, d_model);
  for (int h = 0; h < num_heads; ++h) {
    const auto& qh = heads[static_cast<std::size_t>(h)];
    const MatI8 q1 = qh.wq.forward(q);  // one stacked projection
    for (int r = 0; r < n; ++r) {
      const QuantKvCache& cache = *caches[static_cast<std::size_t>(r)];
      const MatI8 q1_row = q1.block(r, 0, 1, head_dim);
      const MatI32 scores =
          gemm_nt_i8(q1_row, cache.k1[static_cast<std::size_t>(h)]);
      const MatI8 probs =
          softmax(scores, *masks[static_cast<std::size_t>(r)], h);
      const MatI32 a = gemm_i8(probs, cache.v1[static_cast<std::size_t>(h)]);
      p.set_block(r, h * head_dim, requantize_i8(a, qh.av_requant));
    }
  }
  return mha_output_stage(*this, q, p);
}

// --- FfnQuantized ------------------------------------------------------------

namespace {

// FfnQuantized::build over samples `xs` whose rows count `x_count` times.
FfnQuantized build_ffn(const FfnWeights& w, const std::vector<MatF>& xs,
                       const RowCounts& x_count, CalibMethod method,
                       float in_scale_override,
                       WeightGranularity granularity) {
  TFACC_CHECK_ARG(!xs.empty());
  FfnQuantized f;
  f.d_model = w.w1.rows();
  f.d_ff = w.w1.cols();
  f.in_scale = in_scale_override > 0.0f ? in_scale_override
                                        : scale_of(xs, 127, method, x_count);

  std::vector<MatF> hiddens, gs, outs;
  for (const auto& x : xs) {
    MatF hidden = relu(add_bias(gemm(x, w.w1), w.b1));
    MatF g = add(x, add_bias(gemm(hidden, w.w2), w.b2));
    outs.push_back(layer_norm(g, w.norm));
    hiddens.push_back(std::move(hidden));
    gs.push_back(std::move(g));
  }
  const float h_scale = scale_of(hiddens, 127, method, x_count);
  f.g_scale = scale_of(gs, kI16CalibMax, method, x_count);
  f.out_scale = scale_of(outs, 127, method, x_count);

  f.w1 = QuantizedLinear::build(w.w1, w.b1, f.in_scale, h_scale, granularity);
  f.w2 = QuantizedLinear::build(w.w2, w.b2, h_scale, f.g_scale);
  f.w2_to_g = FixedPointScale::from_double(
      static_cast<double>(h_scale) * f.w2.w_scale / f.g_scale);
  f.residual_to_g =
      FixedPointScale::from_double(static_cast<double>(f.in_scale) /
                                   f.g_scale);
  f.norm = hw::LayerNormUnit::build(w.norm, f.out_scale);
  return f;
}

}  // namespace

FfnQuantized FfnQuantized::build(const FfnWeights& w, const Calibration& calib,
                                 CalibMethod method, float in_scale_override,
                                 WeightGranularity granularity) {
  return build_ffn(w, calib.x, calib.x_count, method, in_scale_override,
                   granularity);
}

FfnQuantized FfnQuantized::build(const FfnWeights& w,
                                 const std::vector<MatF>& x_samples,
                                 CalibMethod method, float in_scale_override,
                                 WeightGranularity granularity) {
  return build_ffn(w, x_samples, {}, method, in_scale_override, granularity);
}

MatI8 FfnQuantized::forward(const MatI8& x) const {
  TFACC_CHECK_ARG(x.cols() == d_model);
  const MatI8 hidden = w1.forward_relu(x);
  const MatI32 g_acc = w2.accumulate(hidden);
  const MatI16 g_proj = requantize_i16(g_acc, w2_to_g);
  const MatI16 g_res = requantize_i8_to_i16(x, residual_to_g);
  const MatI16 g = saturating_add_i16(g_proj, g_res);
  return norm(g);
}

}  // namespace tfacc
