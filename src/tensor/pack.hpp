// Pre-packed B operand for the packed int8 GEMM kernels.
//
// The SA-style GEMMs all compute C = A·B where B is a weight matrix that is
// quantized once at load time and then read on every step. The pack lays B
// out as k-interleaved column panels — marian-dev's packed-B idiom — so a
// register-blocked micro-kernel streams one 64-byte line per k-group:
//
//   panel P holds output columns 16P .. 16P+15, k_pad·16 bytes, contiguous
//   line g of a panel (64 bytes) holds k = 4g .. 4g+3 of each column:
//     byte 4c + t of line g = B(4g + t, 16P + c)
//
// One line is exactly one zmm vpdpbusd operand (16 columns × 4 k), a quarter
// line one AVX2 pmaddwd operand once widened to int16. n is zero-padded to
// n_pad (a multiple of 16) and k to k_pad (a multiple of 4); the zero padding
// is arithmetically inert.
//
// The pack also stores sum128[j] = 128·Σ_p B(p, j), the correction the VNNI
// kernel subtracts after feeding A as the unsigned byte a + 128.
//
// The pack is built once (QuantizedLinear::build), never on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/matrix.hpp"

namespace tfacc {

struct PackedI8 {
  static constexpr int kPanelCols = 16;  // output columns per panel
  static constexpr int kGroupK = 4;      // consecutive k per column per line
  static constexpr int kLineBytes = kPanelCols * kGroupK;  // one k-group

  int k = 0;      // logical inner dimension (B is k×n)
  int n = 0;      // logical output columns
  int k_pad = 0;  // k rounded up to a multiple of kGroupK
  int n_pad = 0;  // n rounded up to a multiple of kPanelCols

  // Pooled storage is 64-byte aligned (tensor/arena.hpp), and every panel is
  // k_pad·16 bytes — a multiple of 64 — so every panel starts on a cache line.
  PoolVec<std::int8_t> data;      // n_pad·k_pad bytes, panel after panel
  PoolVec<std::int32_t> sum128;   // n_pad entries, zero in the padding

  bool empty() const { return n == 0; }

  /// Bytes from one panel to the next.
  std::size_t panel_bytes() const {
    return static_cast<std::size_t>(kPanelCols) * k_pad;
  }

  /// Panel p (columns 16p .. 16p+15): k_pad/4 lines of kLineBytes.
  const std::int8_t* panel(int p) const {
    return data.data() + static_cast<std::size_t>(p) * panel_bytes();
  }
};

/// k-interleaved panel pack of B (k×n) for the packed GEMM kernels.
PackedI8 pack_b_i8(const MatI8& b);

/// Inverse of pack_b_i8 (drops the padding); round-trip tested.
MatI8 unpack_b_i8(const PackedI8& p);

}  // namespace tfacc
