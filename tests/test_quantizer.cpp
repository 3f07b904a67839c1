// Unit tests for src/quant/quantizer: calibration, quantize/dequantize,
// fixed-point requantization.
#include <gtest/gtest.h>

#include <cmath>

#include "quant/quantizer.hpp"
#include "tensor/compare.hpp"
#include "tensor/ops.hpp"

namespace tfacc {
namespace {

TEST(Calibrate, MaxAbsUsesLargestMagnitude) {
  const QuantParams p = calibrate(std::vector<float>{-6.35f, 1.0f, 2.0f}, 127);
  EXPECT_NEAR(p.scale, 6.35f / 127.0f, 1e-6);
}

TEST(Calibrate, AllZeroFallsBackToUnitScale) {
  const QuantParams p = calibrate(std::vector<float>{0.0f, 0.0f}, 127);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(Calibrate, PercentileClipsOutliers) {
  std::vector<float> v(10000, 1.0f);
  v[0] = 1000.0f;  // single outlier
  const QuantParams pm = calibrate(v, 127, CalibMethod::kMaxAbs);
  const QuantParams pp = calibrate(v, 127, CalibMethod::kPercentile999);
  EXPECT_GT(pm.scale, 1.0f);
  EXPECT_NEAR(pp.scale, 1.0f / 127.0f, 1e-5);
}

TEST(Calibrate, MultiSampleTakesGlobalRange) {
  MatF a(1, 2), b(1, 2);
  a(0, 0) = 1.0f;
  b(0, 1) = -12.7f;
  const QuantParams p = calibrate(std::vector<MatF>{a, b}, 127);
  EXPECT_NEAR(p.scale, 0.1f, 1e-6);
}

// Random samples of `rows[s]` rows each, with repeat counts in [1, 9].
struct CountedSamples {
  std::vector<MatF> samples;
  RowCounts counts;
};

CountedSamples counted_samples(const std::vector<int>& rows, Rng& rng) {
  CountedSamples cs;
  for (const int n : rows) {
    MatF m(n, 24);
    fill_normal(m, rng, 0, 2);
    cs.samples.push_back(m);
    std::vector<int> c;
    for (int r = 0; r < n; ++r) c.push_back(rng.uniform_int(1, 9));
    cs.counts.push_back(c);
  }
  return cs;
}

// The same set with every row physically copied `count` times.
std::vector<MatF> replicated(const CountedSamples& cs) {
  std::vector<MatF> out;
  for (std::size_t s = 0; s < cs.samples.size(); ++s) {
    const MatF& m = cs.samples[s];
    int total = 0;
    for (const int c : cs.counts[s]) total += c;
    MatF rep(total, m.cols());
    int dst = 0;
    for (int r = 0; r < m.rows(); ++r)
      for (int k = 0; k < cs.counts[s][static_cast<std::size_t>(r)]; ++k)
        rep.set_block(dst++, 0, m.block(r, 0, 1, m.cols()));
    out.push_back(rep);
  }
  return out;
}

TEST(CalibrateCounted, RepeatCountsLeaveMaxAbsUnchanged) {
  Rng rng(11);
  const CountedSamples cs = counted_samples({5, 1, 9}, rng);
  EXPECT_EQ(calibrate(cs.samples, 127, CalibMethod::kMaxAbs, cs.counts).scale,
            calibrate(cs.samples, 127, CalibMethod::kMaxAbs).scale);
}

TEST(CalibrateCounted, PercentileEqualsReplicatedRows) {
  Rng rng(12);
  for (const std::vector<int>& rows :
       {std::vector<int>{5, 1, 9}, std::vector<int>{1}, std::vector<int>{33, 17}})
    for (const int qmax : {127, 32000}) {
      const CountedSamples cs = counted_samples(rows, rng);
      EXPECT_EQ(calibrate(cs.samples, qmax, CalibMethod::kPercentile999,
                          cs.counts)
                    .scale,
                calibrate(replicated(cs), qmax, CalibMethod::kPercentile999)
                    .scale);
    }
}

TEST(CalibrateCounted, PercentileSeesTheCounts) {
  // 256 small values once each, then 3 rows of large values whose counts
  // lift the 99.9th percentile from the second-largest value to the
  // largest: the counts must change the result, not just be accepted.
  Rng rng(13);
  CountedSamples cs;
  MatF small(4, 64), large(3, 64);
  fill_normal(small, rng, 0, 1);
  fill_normal(large, rng, 0, 10);
  cs.samples = {small, large};
  cs.counts = {{1, 1, 1, 1}, {20, 13, 7}};
  const float counted =
      calibrate(cs.samples, 127, CalibMethod::kPercentile999, cs.counts)
          .scale;
  EXPECT_EQ(counted,
            calibrate(replicated(cs), 127, CalibMethod::kPercentile999).scale);
  EXPECT_NE(counted,
            calibrate(cs.samples, 127, CalibMethod::kPercentile999).scale);
  EXPECT_EQ(counted, calibrate(cs.samples, 127, CalibMethod::kMaxAbs).scale);
}

TEST(CalibrateCounted, MismatchedCountShapeThrows) {
  Rng rng(14);
  const CountedSamples cs = counted_samples({3, 2}, rng);
  for (const CalibMethod method :
       {CalibMethod::kMaxAbs, CalibMethod::kPercentile999}) {
    RowCounts too_few_samples = cs.counts;
    too_few_samples.pop_back();
    EXPECT_THROW(calibrate(cs.samples, 127, method, too_few_samples),
                 CheckError);
    RowCounts too_few_rows = cs.counts;
    too_few_rows[1].pop_back();
    EXPECT_THROW(calibrate(cs.samples, 127, method, too_few_rows), CheckError);
    RowCounts too_many_rows = cs.counts;
    too_many_rows[0].push_back(1);
    EXPECT_THROW(calibrate(cs.samples, 127, method, too_many_rows),
                 CheckError);
  }
}

TEST(CalibrateCounted, CountBelowOneThrows) {
  Rng rng(15);
  const CountedSamples cs = counted_samples({3, 2}, rng);
  for (const int bad : {0, -1})
    for (const CalibMethod method :
         {CalibMethod::kMaxAbs, CalibMethod::kPercentile999}) {
      RowCounts counts = cs.counts;
      counts[1][1] = bad;
      EXPECT_THROW(calibrate(cs.samples, 127, method, counts), CheckError);
    }
}

TEST(Quantize, RoundTripErrorBoundedByHalfStep) {
  Rng rng(3);
  MatF m(16, 16);
  fill_normal(m, rng, 0, 2);
  const QuantParams p = calibrate(m, 127);
  const MatF back = dequantize(quantize_i8(m, p), p);
  EXPECT_LE(max_abs_diff(m, back), 0.5 * p.scale + 1e-7);
}

TEST(Quantize, SaturatesOutOfRange) {
  MatF m{{100.0f, -100.0f}};
  const MatI8 q = quantize_i8(m, QuantParams{0.1f});
  EXPECT_EQ(q(0, 0), 127);
  EXPECT_EQ(q(0, 1), -128);
}

TEST(Quantize, I16RoundTrip) {
  Rng rng(4);
  MatF m(8, 8);
  fill_normal(m, rng, 0, 5);
  const QuantParams p = calibrate(m, 32000);
  const MatF back = dequantize_i16(quantize_i16(m, p), p);
  EXPECT_LE(max_abs_diff(m, back), 0.5 * p.scale + 1e-7);
}

TEST(QuantizeBias, LandsInAccumulatorUnits) {
  const std::vector<float> bias{1.0f, -0.5f};
  const auto q = quantize_bias(bias, 0.1f, 0.01f);  // acc scale 1e-3
  EXPECT_EQ(q[0], 1000);
  EXPECT_EQ(q[1], -500);
}

TEST(Requantize, MatchesRealValuedRescaling) {
  Rng rng(5);
  MatI32 acc(12, 12);
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c)
      acc(r, c) = rng.uniform_int(-200000, 200000);
  const double ratio = 4.2e-4;
  const auto fps = FixedPointScale::from_double(ratio);
  const MatI8 q = requantize_i8(acc, fps);
  for (int r = 0; r < acc.rows(); ++r)
    for (int c = 0; c < acc.cols(); ++c) {
      const double real = acc(r, c) * ratio;
      EXPECT_NEAR(static_cast<double>(q(r, c)),
                  clamp<double>(real, -128.0, 127.0), 0.75)
          << acc(r, c);
    }
}

TEST(Requantize, I16Path) {
  MatI32 acc{{1000000, -1000000}};
  const auto fps = FixedPointScale::from_double(0.01);
  const MatI16 q = requantize_i16(acc, fps);
  EXPECT_NEAR(q(0, 0), 10000, 1);
  EXPECT_NEAR(q(0, 1), -10000, 1);
}

TEST(Requantize, QuantizedGemmTracksFloatGemm) {
  // The full INT8 pipeline: quantize inputs/weights, int GEMM, requantize —
  // result must track the FP32 GEMM within accumulated quantization error.
  Rng rng(6);
  MatF x(8, 32), w(32, 8);
  fill_normal(x, rng, 0, 1);
  fill_normal(w, rng, 0, 0.5);
  const QuantParams px = calibrate(x, 127);
  const QuantParams pw = calibrate(w, 127);
  const MatF y = gemm(x, w);
  const QuantParams py = calibrate(y, 127);

  const MatI32 acc = gemm_i8(quantize_i8(x, px), quantize_i8(w, pw));
  const auto fps = FixedPointScale::from_double(
      static_cast<double>(px.scale) * pw.scale / py.scale);
  const MatF yq = dequantize(requantize_i8(acc, fps), py);
  EXPECT_GT(cosine_similarity(y, yq), 0.999);
  EXPECT_LT(max_abs_diff(y, yq) / calibrate(y, 1).scale, 0.05);
}

}  // namespace
}  // namespace tfacc
