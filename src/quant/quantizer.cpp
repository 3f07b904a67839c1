#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/kernels.hpp"

namespace tfacc {

namespace {

// Scale mapping a range bound to qmax (unit scale for an all-zero range).
float scale_for(float bound, int qmax) {
  if (bound <= 0.0f) return 1.0f;
  return bound / static_cast<float>(qmax);
}

// Rank of the 99.9th percentile among n sorted values.
std::size_t percentile_rank(std::size_t n) {
  return static_cast<std::size_t>(0.999 * static_cast<double>(n - 1));
}

float reduce_range(std::vector<float> absvals, int qmax, CalibMethod method) {
  if (absvals.empty()) return 1.0f;
  float bound = 0.0f;
  switch (method) {
    case CalibMethod::kMaxAbs:
      bound = *std::max_element(absvals.begin(), absvals.end());
      break;
    case CalibMethod::kPercentile999: {
      const std::size_t k = percentile_rank(absvals.size());
      std::nth_element(absvals.begin(), absvals.begin() + k, absvals.end());
      bound = absvals[k];
      break;
    }
  }
  return scale_for(bound, qmax);
}

// The k-th smallest (from 0) value of the multiset in which each
// v[i].first occurs v[i].second times: a quickselect that weighs the side
// below each pivot by its counts, so no value is ever replicated.
float weighted_kth(std::vector<std::pair<float, int>> v, std::size_t k) {
  const auto by_value = [](const std::pair<float, int>& a,
                           const std::pair<float, int>& b) {
    return a.first < b.first;
  };
  auto first = v.begin();
  auto last = v.end();
  for (;;) {
    const auto mid = first + (last - first) / 2;
    std::nth_element(first, mid, last, by_value);
    std::size_t below = 0;
    for (auto it = first; it != mid; ++it)
      below += static_cast<std::size_t>(it->second);
    if (k < below) {
      last = mid;
    } else if (k < below + static_cast<std::size_t>(mid->second)) {
      return mid->first;
    } else {
      k -= below + static_cast<std::size_t>(mid->second);
      first = mid + 1;
    }
  }
}

// reduce_range over the multiset in which each weighted[i].first (an |x|)
// occurs weighted[i].second times.
float reduce_range(std::vector<std::pair<float, int>> weighted, int qmax,
                   CalibMethod method) {
  if (weighted.empty()) return 1.0f;
  float bound = 0.0f;
  switch (method) {
    case CalibMethod::kMaxAbs:
      for (const auto& [absval, count] : weighted)
        bound = std::max(bound, absval);
      break;
    case CalibMethod::kPercentile999: {
      std::size_t n = 0;
      for (const auto& [absval, count] : weighted)
        n += static_cast<std::size_t>(count);
      bound = weighted_kth(std::move(weighted), percentile_rank(n));
      break;
    }
  }
  return scale_for(bound, qmax);
}

}  // namespace

QuantParams calibrate(const std::vector<float>& values, int qmax,
                      CalibMethod method) {
  TFACC_CHECK_ARG(qmax > 0);
  std::vector<float> absvals(values.size());
  std::transform(values.begin(), values.end(), absvals.begin(),
                 [](float v) { return std::abs(v); });
  return QuantParams{reduce_range(std::move(absvals), qmax, method)};
}

QuantParams calibrate(const MatF& values, int qmax, CalibMethod method) {
  TFACC_CHECK_ARG(qmax > 0);
  std::vector<float> absvals;
  absvals.reserve(values.size());
  for (int r = 0; r < values.rows(); ++r)
    for (int c = 0; c < values.cols(); ++c)
      absvals.push_back(std::abs(values(r, c)));
  return QuantParams{reduce_range(std::move(absvals), qmax, method)};
}

QuantParams calibrate(const std::vector<MatF>& samples, int qmax,
                      CalibMethod method, const RowCounts& counts) {
  TFACC_CHECK_ARG(qmax > 0);
  if (counts.empty()) {
    std::vector<float> absvals;
    for (const auto& m : samples)
      for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c)
          absvals.push_back(std::abs(m(r, c)));
    return QuantParams{reduce_range(std::move(absvals), qmax, method)};
  }
  TFACC_CHECK_ARG_MSG(counts.size() == samples.size(),
                      counts.size() << " count vectors for " << samples.size()
                                    << " samples");
  std::vector<std::pair<float, int>> weighted;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const MatF& m = samples[s];
    TFACC_CHECK_ARG_MSG(static_cast<int>(counts[s].size()) == m.rows(),
                        "sample " << s << " has " << m.rows() << " rows but "
                                  << counts[s].size() << " counts");
    for (int r = 0; r < m.rows(); ++r) {
      const int count = counts[s][static_cast<std::size_t>(r)];
      TFACC_CHECK_ARG_MSG(count >= 1, "row count " << count << " < 1");
      for (int c = 0; c < m.cols(); ++c)
        weighted.emplace_back(std::abs(m(r, c)), count);
    }
  }
  return QuantParams{reduce_range(std::move(weighted), qmax, method)};
}

MatI8 quantize_i8(const MatF& m, QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  MatI8 out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = saturate_i8(std::llround(m(r, c) / p.scale));
  return out;
}

MatI16 quantize_i16(const MatF& m, QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  MatI16 out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = saturate_i16(std::llround(m(r, c) / p.scale));
  return out;
}

std::vector<std::int8_t> quantize_i8(const std::vector<float>& v,
                                     QuantParams p) {
  TFACC_CHECK_ARG(p.scale > 0.0f);
  std::vector<std::int8_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = saturate_i8(std::llround(v[i] / p.scale));
  return out;
}

std::vector<std::int32_t> quantize_bias(const std::vector<float>& bias,
                                        float in_scale, float w_scale) {
  TFACC_CHECK_ARG(in_scale > 0.0f && w_scale > 0.0f);
  const double acc_scale = static_cast<double>(in_scale) * w_scale;
  std::vector<std::int32_t> out(bias.size());
  for (std::size_t i = 0; i < bias.size(); ++i)
    out[i] = saturate_i32(std::llround(bias[i] / acc_scale));
  return out;
}

MatF dequantize(const MatI8& m, QuantParams p) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * p.scale;
  return out;
}

MatF dequantize_i16(const MatI16& m, QuantParams p) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * p.scale;
  return out;
}

MatF dequantize_i32(const MatI32& m, float scale) {
  MatF out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r)
    for (int c = 0; c < m.cols(); ++c)
      out(r, c) = static_cast<float>(m(r, c)) * scale;
  return out;
}

MatI8 requantize_i8(const MatI32& acc, const FixedPointScale& s) {
  MatI8 out(acc.rows(), acc.cols());
  kernels::requantize_i8_into(acc, s.mantissa, s.shift, out);
  return out;
}

MatI16 requantize_i16(const MatI32& acc, const FixedPointScale& s) {
  MatI16 out(acc.rows(), acc.cols());
  kernels::requantize_i16_into(acc, s.mantissa, s.shift, out);
  return out;
}

}  // namespace tfacc
