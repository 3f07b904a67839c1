#include "tensor/pack.hpp"

#include <algorithm>
#include <vector>

namespace tfacc {
namespace {

/// Byte offset of B(p, j) inside the pack.
std::size_t packed_offset(const PackedI8& pk, int p, int j) {
  return static_cast<std::size_t>(j / PackedI8::kPanelCols) *
             pk.panel_bytes() +
         static_cast<std::size_t>(p / PackedI8::kGroupK) *
             PackedI8::kLineBytes +
         static_cast<std::size_t>(j % PackedI8::kPanelCols) *
             PackedI8::kGroupK +
         static_cast<std::size_t>(p % PackedI8::kGroupK);
}

}  // namespace

PackedI8 pack_b_i8(const MatI8& b) {
  PackedI8 out;
  out.k = b.rows();
  out.n = b.cols();
  out.k_pad = (out.k + PackedI8::kGroupK - 1) / PackedI8::kGroupK *
              PackedI8::kGroupK;
  out.n_pad = (out.n + PackedI8::kPanelCols - 1) / PackedI8::kPanelCols *
              PackedI8::kPanelCols;
  out.data.assign(static_cast<std::size_t>(out.n_pad) * out.k_pad, 0);
  std::vector<std::int64_t> sums(static_cast<std::size_t>(out.n), 0);
  for (int p = 0; p < out.k; ++p) {  // row-major over B
    const std::int8_t* src = b.row(p);
    std::int8_t* dst = out.data.data() + packed_offset(out, p, 0);
    for (int j0 = 0; j0 < out.n; j0 += PackedI8::kPanelCols) {
      const int end = std::min(out.n, j0 + PackedI8::kPanelCols);
      for (int j = j0; j < end; ++j) {
        dst[(j - j0) * PackedI8::kGroupK] = src[j];
        sums[static_cast<std::size_t>(j)] += src[j];
      }
      dst += out.panel_bytes();
    }
  }
  // Narrowed modulo 2³², like the VNNI kernel's own sums (kernels.cpp).
  out.sum128.assign(static_cast<std::size_t>(out.n_pad), 0);
  for (int j = 0; j < out.n; ++j)
    out.sum128[static_cast<std::size_t>(j)] =
        static_cast<std::int32_t>(128 * sums[static_cast<std::size_t>(j)]);
  return out;
}

MatI8 unpack_b_i8(const PackedI8& p) {
  MatI8 out(p.k, p.n);
  for (int r = 0; r < p.k; ++r)
    for (int j = 0; j < p.n; ++j) out(r, j) = p.data[packed_offset(p, r, j)];
  return out;
}

}  // namespace tfacc
