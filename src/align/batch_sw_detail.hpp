// Internal plumbing for the inter-candidate batch SW engine: the argument
// blocks the per-ISA translation units fill in, and the function table the
// dispatcher selects at runtime. Nothing here is part of the public API —
// include batch_sw.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mera::align::detail {

/// Target columns are padded with 0xFF past len[l]; query rows are padded
/// with 0xFE past qlen[l]. DNA codes are 0–3, so neither pad ever equals a
/// residue code — and the two pads never equal each other, so a padded row
/// meeting a padded column still scores a mismatch. With mismatch <= 0 and
/// both gap penalties >= 0 every cell in a padded row derives from real
/// cells through non-increasing operations, so a padded row can never
/// STRICTLY exceed the running best — and the strict `>` best-update means
/// score / t_end / saturation are untouched by row padding. A padded row's
/// index exceeds every real row's, so it never wins the end cell's
/// smaller-row tie-break either. BatchSwScorer
/// verifies that precondition and falls back to per-pair scoring for exotic
/// scoring schemes that violate it.
inline constexpr std::uint8_t kTargetPadCode = 0xFF;
inline constexpr std::uint8_t kQueryPadCode = 0xFE;

/// One 8-bit lane-group pass: scores `lanes8` candidates, one query/target
/// pair per lane, in saturating unsigned arithmetic (values biased by
/// `bias`, exactly like the striped kernel's 8-bit pass, so saturation —
/// and therefore used_16bit — is bit-identical per pair).
struct BatchPass8Args {
  /// Interleaved queries: qbuf[i * lanes + l] = code of lane l's query at
  /// row i, padded with kQueryPadCode past qlen[l].
  const std::uint8_t* qbuf = nullptr;
  const std::size_t* qlen = nullptr;  ///< per-lane query length
  std::size_t m = 0;                  ///< max(qlen), rows in qbuf
  /// Interleaved targets: tbuf[j * lanes + l] = code of candidate l at
  /// column j, padded with kTargetPadCode past len[l].
  const std::uint8_t* tbuf = nullptr;
  const std::size_t* len = nullptr;  ///< per-lane target length
  std::size_t nmax = 0;              ///< max(len), columns in tbuf
  int match_bias = 0;     ///< scoring.match + bias   (fits u8)
  int mismatch_bias = 0;  ///< scoring.mismatch + bias (>= 0 by construction)
  int bias = 0;           ///< max(0, -scoring.mismatch)
  int gap_open_total = 0;  ///< gap_open + gap_extend
  int gap_extend = 0;
  // Outputs, one per lane. Lanes with len[l] == 0 are left untouched.
  int* best = nullptr;           ///< best score (exact unless saturated)
  std::size_t* t_end = nullptr;  ///< smallest column achieving best
  std::uint8_t* saturated = nullptr;  ///< best >= 255 - bias: rerun in 16-bit
  /// smith_waterman's end cell (0-based row and column): the first cell in
  /// row-major order reaching `best`. Rows are counted in 8-bit lanes, so
  /// end_row is exact only while m <= kMaxEndCellRows8.
  std::size_t* end_row = nullptr;
  std::size_t* end_col = nullptr;
};

/// Largest row count whose end-cell rows the 8-bit pass carries exactly.
inline constexpr std::size_t kMaxEndCellRows8 = 255;
/// Same for the 16-bit pass.
inline constexpr std::size_t kMaxEndCellRows16 = 32767;

/// One 16-bit lane-group pass for candidates whose 8-bit lane saturated.
/// Signed arithmetic with an explicit zero floor, mirroring striped_i16.
struct BatchPass16Args {
  /// Interleaved queries as int16 codes, padded with kQueryPadCode past
  /// qlen[l].
  const std::int16_t* qbuf = nullptr;
  const std::size_t* qlen = nullptr;  ///< per-lane query length
  std::size_t m = 0;                  ///< max(qlen), rows in qbuf
  /// Interleaved targets as int16 codes, padded with kTargetPadCode past
  /// len[l].
  const std::int16_t* tbuf = nullptr;
  const std::size_t* len = nullptr;
  std::size_t nmax = 0;
  int match = 0;
  int mismatch = 0;
  int gap_open_total = 0;
  int gap_extend = 0;
  int* best = nullptr;
  std::size_t* t_end = nullptr;
  std::uint8_t* saturated = nullptr;  ///< best >= 32767: scalar rerun
  /// As in BatchPass8Args; exact while m <= kMaxEndCellRows16.
  std::size_t* end_row = nullptr;
  std::size_t* end_col = nullptr;
};

/// Per-ISA function table. Each per-ISA TU exposes its table when the build
/// compiled that tier in, nullptr otherwise; the dispatcher in batch_sw.cpp
/// picks one per resolved SwIsa.
struct BatchKernel {
  int lanes8 = 0;   ///< candidates per 8-bit group (16 / 32 / 64)
  int lanes16 = 0;  ///< candidates per 16-bit group (8 / 16 / 32)
  void (*pass8)(const BatchPass8Args&) = nullptr;
  void (*pass16)(const BatchPass16Args&) = nullptr;
};

/// Compiled-in kernels, or nullptr when the toolchain/build excludes the
/// tier (non-x86, missing -mavx2/-mavx512bw support, MERA_FORCE_SCALAR_SW).
const BatchKernel* batch_kernel_sse2() noexcept;
const BatchKernel* batch_kernel_avx2() noexcept;
const BatchKernel* batch_kernel_avx512() noexcept;

}  // namespace mera::align::detail
