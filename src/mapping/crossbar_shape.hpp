// Crossbar shapes and the candidate sets used throughout the paper.
//
// The paper distinguishes square crossbars (SXB, side lengths powers of 2 —
// the sizes used by ISAAC/PRIME-class homogeneous accelerators) from
// rectangle crossbars (RXB, §3.3) whose *height* is a multiple of 9 so that
// unfolded 3x3-kernel columns tile the wordlines without waste.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace autohet::mapping {

struct CrossbarShape {
  std::int64_t rows = 0;  ///< wordlines (r in Eq. 4)
  std::int64_t cols = 0;  ///< bitlines  (c in Eq. 4)

  std::int64_t cells() const noexcept { return rows * cols; }

  std::string name() const {
    return std::to_string(rows) + "x" + std::to_string(cols);
  }

  friend bool operator==(const CrossbarShape&, const CrossbarShape&) = default;
  /// Orders by cell count, then rows; gives candidate lists a canonical order.
  friend bool operator<(const CrossbarShape& a, const CrossbarShape& b) {
    if (a.cells() != b.cells()) return a.cells() < b.cells();
    return a.rows < b.rows;
  }
};

/// The five square sizes used by the homogeneous baselines (§4.1):
/// 32x32, 64x64, 128x128, 256x256, 512x512.
std::vector<CrossbarShape> square_candidates();

/// The five rectangle shapes (§4.3): 36x32, 72x64, 144x128, 288x256, 576x512.
std::vector<CrossbarShape> rectangle_candidates();

/// The paper's default heterogeneous candidate set (§3.3 / §4.1):
/// 32x32, 36x32, 72x64, 288x256, 576x512.
std::vector<CrossbarShape> hybrid_candidates();

/// All ten shapes (5 SXB + 5 RXB) used by the Fig. 11 sensitivity study.
std::vector<CrossbarShape> all_candidates();

/// Picks `num_square` SXBs + `num_rect` RXBs (largest-first from each family)
/// for the Fig. 11(a) aSbR sweeps.
std::vector<CrossbarShape> mixed_candidates(int num_square, int num_rect);

}  // namespace autohet::mapping
