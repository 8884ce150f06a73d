// Seed extension: turn a located seed (query offset / target offset) into a
// full local alignment (Section II-D).
//
// The seed fixes the alignment's diagonal, so only a small target window
// around the implied query placement needs to be examined: the window is the
// query's projected span padded by `window_pad` bases on each side. Within
// the window the full-DP kernel produces score + CIGAR; the batch engine
// (core::AlignSession's kBatch path) instead screens many windows per SIMD
// sweep and traces back survivors with anchored_traceback.
#pragma once

#include <cstdint>
#include <span>

#include "align/banded_sw.hpp"
#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"
#include "align/striped_sw.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

/// Which Smith-Waterman engine performs the in-window alignment. extend_seed
/// is always the full-DP extension; the kernel tells core::AlignSession
/// which path a batch takes.
enum class SwKernel : std::uint8_t {
  /// Exact full-window DP with affine-gap traceback (sw_engine) per
  /// candidate, emitted inline — the oracle kBatch is tested against.
  kFullDP = 0,
  /// Inter-candidate batch SIMD score pass (batch_sw) as a pre-screen:
  /// candidates pool across reads in an align::PooledExtensionQueue and are
  /// screened one-per-lane on the widest available ISA (see
  /// ExtensionConfig::isa). Survivors trace back inside a score-bounded band
  /// anchored at the end cell the screen reports (anchored_traceback), for
  /// the same alignment as kFullDP.
  kBatch,
};

struct ExtensionConfig {
  Scoring scoring{};
  /// Extra target bases examined on each side of the query's projected span
  /// (allows for indels near the read ends).
  std::size_t window_pad = 16;
  /// SW engine of a session batch; extend_seed ignores it.
  SwKernel kernel = SwKernel::kFullDP;
  /// Dispatch tier for SwKernel::kBatch (kAuto = MERA_SW_ISA env override or
  /// the widest the CPU supports). Ignored by kFullDP.
  SwIsa isa = SwIsa::kAuto;
};

struct Extension {
  LocalAlignment aln;        ///< coordinates within query / full target
  std::size_t window_begin = 0;  ///< target window used (diagnostics)
  std::size_t window_end = 0;
  /// DP cells the traceback kernel computed (0 when screened out).
  std::uint64_t traceback_cells = 0;
};

/// Traceback of a candidate the score screen passed, bit-identical to
/// smith_waterman(query, window, sc). With the screen's end cell (q_end,
/// t_end) and score S it runs banded_smith_waterman over query[0, q_end) x
/// window[0, t_end) on diagonal t_end - q_end with half-width
///   W = max(0, (max(match, mismatch) * min(q_end, t_end) - S - gap_open)
///              / gap_extend)
/// (the whole box when gap penalties are not positive), then soft-clips the
/// query tail. Exact because any alignment tying the traced one, joined to
/// the traced suffix, is another score-S alignment ending at the end cell,
/// so it drifts at most W from that diagonal; and every cell before the end
/// cell in row-major order scores below S, so the band's own first maximum
/// is the end cell. Without an end cell it calls smith_waterman. `cells`,
/// when non-null, accumulates the DP cells the traceback computed.
[[nodiscard]] LocalAlignment anchored_traceback(
    std::span<const std::uint8_t> query, std::span<const std::uint8_t> window,
    const StripedResult& screen, const Scoring& sc = {},
    std::uint64_t* cells = nullptr);

/// Target window implied by a seed: the query's projected span on the seed
/// diagonal, padded by window_pad and clipped to the target. begin >= end
/// means no window (query projects entirely off the target).
struct SeedWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Compute the seed's target window — the same projection extend_seed
/// performs internally, exposed so deferred-extension callers
/// (core::AlignSession's pooled path) can mirror window extents and sw_cells
/// accounting without scoring yet.
[[nodiscard]] SeedWindow project_seed_window(std::size_t query_len,
                                             const seq::PackedSeq& target,
                                             std::size_t q_off,
                                             std::size_t t_off,
                                             std::size_t window_pad) noexcept;

/// Stable lowercase kernel tag for reports and metric labels.
[[nodiscard]] constexpr const char* kernel_name(SwKernel k) noexcept {
  switch (k) {
    case SwKernel::kFullDP: return "full_dp";
    case SwKernel::kBatch: return "batch";
  }
  return "unknown";
}

/// Extend a seed match: query[q_off..q_off+k) == target[t_off..t_off+k).
/// Runs the full-window DP (smith_waterman) whatever cfg.kernel says and
/// returns an alignment whose t_begin/t_end are in full-target coordinates.
[[nodiscard]] Extension extend_seed(std::span<const std::uint8_t> query,
                                    const seq::PackedSeq& target,
                                    std::size_t q_off, std::size_t t_off,
                                    int k, const ExtensionConfig& cfg = {});

}  // namespace mera::align
