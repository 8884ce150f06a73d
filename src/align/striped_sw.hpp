// Striped SIMD Smith-Waterman (Farrar 2007), the SSW-library stand-in the
// paper uses for seed extension (Section V-B).
//
// Score-only kernel: the query profile is laid out in stripes so all SIMD
// lanes advance one target column per iteration, with Farrar's "lazy F" loop
// fixing up rare vertical-gap carries. An 8-bit saturating pass handles the
// common case; on saturation the kernel transparently re-runs in 16 bits.
// On non-SSE2 builds a scalar implementation with identical results is used.
// Property tests assert equality with sw_score_reference on random inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "align/scoring.hpp"

namespace mera::align {

/// smith_waterman's own end cell, as the half-open ends it reports
/// (LocalAlignment::q_end / t_end): the FIRST cell in row-major order (query
/// row, then target column) that reaches the best score.
struct SwEndCell {
  std::size_t q_end = 0;
  std::size_t t_end = 0;
  friend bool operator==(const SwEndCell&, const SwEndCell&) = default;
};

struct StripedResult {
  int score = 0;
  /// 0-based target position of the last column of the best alignment.
  /// Tie-break contract (pinned, identical on every kernel and ISA tier):
  /// among all cells achieving the best score, the SMALLEST t_end wins.
  std::size_t t_end = 0;
  bool used_16bit = false;  ///< 8-bit pass saturated and was retried
  /// smith_waterman's end cell when the engine tracked it and score > 0:
  /// the batch screen's lane-group passes and striped_scalar_score report
  /// it; StripedSmithWaterman's SIMD passes (and so the batch per-pair
  /// backstop on SIMD builds) do not.
  std::optional<SwEndCell> end_cell;
};

/// Scalar reference for the score-only kernels: exact local-alignment score
/// plus the pinned smallest-t_end tie-break, and smith_waterman's end cell.
/// Always compiled — every SIMD tier (striped SSE2, batch SSE2/AVX2/AVX-512)
/// is property-tested against it — and it is the fallback the kernels use on
/// non-SSE2 builds and under MERA_FORCE_SCALAR_SW.
[[nodiscard]] StripedResult striped_scalar_score(
    std::span<const std::uint8_t> query, std::span<const std::uint8_t> target,
    const Scoring& sc = {});

/// Reusable query profile: build once per query, align against many targets
/// (exactly how the aligning phase uses it — one read, many candidates).
class StripedSmithWaterman {
 public:
  StripedSmithWaterman(std::span<const std::uint8_t> query_codes,
                       const Scoring& sc = {});
  explicit StripedSmithWaterman(std::string_view query, const Scoring& sc = {});

  [[nodiscard]] StripedResult align(std::span<const std::uint8_t> target_codes) const;
  [[nodiscard]] StripedResult align(std::string_view target) const;

  [[nodiscard]] std::size_t query_len() const noexcept { return query_.size(); }
  [[nodiscard]] const Scoring& scoring() const noexcept { return sc_; }

  /// True when the SIMD code path is compiled in (SSE2 available).
  [[nodiscard]] static bool simd_enabled() noexcept;

 private:
  std::vector<std::uint8_t> query_;
  Scoring sc_;
  // Striped profiles, built lazily in the constructor when SIMD is enabled.
  std::vector<std::uint8_t> profile8_;   // 4 residues x segLen8 x 16 lanes
  std::vector<std::int16_t> profile16_;  // 4 residues x segLen16 x 8 lanes
  std::size_t seglen8_ = 0, seglen16_ = 0;
  int bias_ = 0;
};

}  // namespace mera::align
