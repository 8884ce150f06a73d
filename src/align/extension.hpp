// Seed extension: turn a located seed (query offset / target offset) into a
// full local alignment (Section II-D).
//
// The seed fixes the alignment's diagonal, so only a small target window
// around the implied query placement needs to be examined: the window is the
// query's projected span padded by `window_pad` bases on each side. Within
// the window the full-DP kernel produces score + CIGAR; the striped SIMD
// kernel can pre-screen candidates when a query aligns against many targets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/banded_sw.hpp"
#include "align/batch_sw.hpp"
#include "align/smith_waterman.hpp"
#include "align/striped_sw.hpp"
#include "seq/packed_seq.hpp"

namespace mera::align {

/// Which Smith-Waterman kernel performs the in-window alignment. Selectable
/// per ExtensionConfig (and therefore per aligning batch): sessions can probe
/// a batch with the cheap screening kernel and re-run hard batches with the
/// exact one without rebuilding anything.
enum class SwKernel : std::uint8_t {
  /// Exact full-window DP with affine-gap traceback (sw_engine) — reference.
  kFullDP = 0,
  /// Banded DP around the seed diagonal (band = max(window_pad, 8)).
  kBanded,
  /// Farrar striped SIMD score pass (striped_sw) as a pre-screen; candidates
  /// scoring below the caller's report threshold are rejected without a
  /// traceback, survivors re-run the full DP for an identical alignment.
  kStriped,
  /// Inter-candidate batch SIMD score pass (batch_sw) as a pre-screen: all of
  /// a query's candidate windows are packed one-per-lane and screened in one
  /// DP sweep on the widest available ISA (see ExtensionConfig::isa).
  /// Screening decisions and scores are bit-identical to kStriped; survivors
  /// trace back inside a score-bounded band anchored at the end cell the
  /// screen reports (anchored_traceback), for the same alignment.
  kBatch,
};

struct ExtensionConfig {
  Scoring scoring{};
  /// Extra target bases examined on each side of the query's projected span
  /// (allows for indels near the read ends).
  std::size_t window_pad = 16;
  /// In-window alignment kernel.
  SwKernel kernel = SwKernel::kFullDP;
  /// Dispatch tier for SwKernel::kBatch (kAuto = MERA_SW_ISA env override or
  /// the widest the CPU supports). Ignored by the other kernels.
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

/// Compute the seed's target window — the same projection extend_seed /
/// extend_candidates perform internally, exposed so deferred-extension
/// callers (core::AlignSession's pooled path) can mirror window extents and
/// sw_cells accounting without scoring yet.
[[nodiscard]] SeedWindow project_seed_window(std::size_t query_len,
                                             const seq::PackedSeq& target,
                                             std::size_t q_off,
                                             std::size_t t_off,
                                             std::size_t window_pad) noexcept;

/// Stable lowercase kernel tag for reports and metric labels.
[[nodiscard]] constexpr const char* kernel_name(SwKernel k) noexcept {
  switch (k) {
    case SwKernel::kFullDP: return "full_dp";
    case SwKernel::kBanded: return "banded";
    case SwKernel::kStriped: return "striped";
    case SwKernel::kBatch: return "batch";
  }
  return "unknown";
}

/// Extend a seed match: query[q_off..q_off+k) == target[t_off..t_off+k).
/// Returns an alignment whose t_begin/t_end are in full-target coordinates.
/// `screen_min_score` is the caller's reporting threshold: the kStriped
/// backend skips the traceback DP for candidates whose (exact) striped score
/// falls below it — such results carry the score but an empty alignment.
/// `striped_profile`, when given, must be the profile of `query` under
/// `cfg.scoring`; it lets a caller extending one query against many
/// candidates build the striped profile once instead of per call (the
/// profile is query-only state). Ignored by the other kernels.
[[nodiscard]] Extension extend_seed(
    std::span<const std::uint8_t> query, const seq::PackedSeq& target,
    std::size_t q_off, std::size_t t_off, int k,
    const ExtensionConfig& cfg = {}, int screen_min_score = 0,
    const StripedSmithWaterman* striped_profile = nullptr);

/// One buffered candidate extension for extend_candidates: the seed's target
/// sequence plus the query/target offsets that fix its diagonal. `target`
/// must outlive the extend_candidates call.
struct SeedCandidate {
  const seq::PackedSeq* target = nullptr;
  std::size_t q_off = 0;
  std::size_t t_off = 0;
};

/// Batch form of extend_seed: extend one query against many candidates at
/// once, screening every window in a single inter-candidate SIMD sweep
/// (SwKernel::kBatch; kStriped builds the query's striped profile once and
/// screens per candidate with it; the exact kernels fall back to
/// per-candidate extend_seed). Results are positionally parallel to
/// `candidates` and bit-identical to calling extend_seed on each candidate
/// with the same config. When `lane_stats` is non-null the kBatch sweep's
/// lane occupancy is accumulated into it (other kernels record nothing).
[[nodiscard]] std::vector<Extension> extend_candidates(
    std::span<const std::uint8_t> query,
    std::span<const SeedCandidate> candidates, int k,
    const ExtensionConfig& cfg = {}, int screen_min_score = 0,
    LaneStats* lane_stats = nullptr);

}  // namespace mera::align
