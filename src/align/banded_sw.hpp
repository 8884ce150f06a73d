// Banded Smith-Waterman: local alignment restricted to a diagonal band.
//
// Once a seed has located the query on the target, the true alignment lies
// near the seed's diagonal; restricting the DP to a band of half-width `band`
// around it turns the O(m*n) kernel into O(m*band). Used as an ablation
// alternative to the full-window kernel in the extension step.
#pragma once

#include <cstdint>
#include <span>

#include "align/smith_waterman.hpp"

namespace mera::align {

/// Local alignment of query vs target confined to |(j - i) - diag| <= band,
/// where i indexes the query and j the target (0-based). Scores outside the
/// band are treated as unreachable. With a band wide enough to contain the
/// optimum this returns the same score as smith_waterman().
[[nodiscard]] LocalAlignment banded_smith_waterman(
    std::span<const std::uint8_t> query, std::span<const std::uint8_t> target,
    std::ptrdiff_t diag, std::size_t band, const Scoring& sc = {});

/// DP cells banded_smith_waterman computes for an m x n input.
[[nodiscard]] std::uint64_t banded_cells(std::size_t m, std::size_t n,
                                         std::ptrdiff_t diag,
                                         std::size_t band) noexcept;

}  // namespace mera::align
