#include "align/extension.hpp"

#include <algorithm>
#include <optional>

namespace mera::align {

SeedWindow project_seed_window(std::size_t query_len,
                               const seq::PackedSeq& target, std::size_t q_off,
                               std::size_t t_off,
                               std::size_t window_pad) noexcept {
  // diag0 = target position where query base 0 lands (may be negative when
  // the query hangs off the target's start).
  const std::ptrdiff_t diag0 = static_cast<std::ptrdiff_t>(t_off) -
                               static_cast<std::ptrdiff_t>(q_off);
  const auto pad = static_cast<std::ptrdiff_t>(window_pad);
  SeedWindow w;
  w.begin = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, diag0 - pad));
  w.end = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      diag0 + static_cast<std::ptrdiff_t>(query_len) + pad, 0,
      static_cast<std::ptrdiff_t>(target.size())));
  return w;
}

LocalAlignment anchored_traceback(std::span<const std::uint8_t> query,
                                  std::span<const std::uint8_t> window,
                                  const StripedResult& screen,
                                  const Scoring& sc, std::uint64_t* cells) {
  std::uint64_t computed = 0;
  LocalAlignment aln;
  if (!screen.end_cell) {
    computed = static_cast<std::uint64_t>(query.size()) * window.size();
    aln = smith_waterman(query, window, sc);
  } else {
    const std::size_t q_end = screen.end_cell->q_end;
    const std::size_t t_end = screen.end_cell->t_end;
    std::size_t band = std::max(q_end, t_end);
    if (sc.gap_extend > 0 && sc.gap_open >= 0) {
      const long long slack =
          static_cast<long long>(std::max(sc.match, sc.mismatch)) *
              static_cast<long long>(std::min(q_end, t_end)) -
          screen.score - sc.gap_open;
      band = std::min(band, static_cast<std::size_t>(
                                std::max(0LL, slack / sc.gap_extend)));
    }
    const auto diag = static_cast<std::ptrdiff_t>(t_end) -
                      static_cast<std::ptrdiff_t>(q_end);
    computed = banded_cells(q_end, t_end, diag, band);
    aln = banded_smith_waterman(query.first(q_end), window.first(t_end), diag,
                                band, sc);
    aln.cigar.push(CigarOp::kSoftClip,
                   static_cast<std::uint32_t>(query.size() - q_end));
  }
  if (cells) *cells += computed;
  return aln;
}

Extension extend_seed(std::span<const std::uint8_t> query,
                      const seq::PackedSeq& target, std::size_t q_off,
                      std::size_t t_off, int k, const ExtensionConfig& cfg,
                      int screen_min_score,
                      const StripedSmithWaterman* striped_profile) {
  Extension ext;
  const std::size_t m = query.size();
  if (m == 0 || target.empty() || k <= 0) return ext;

  const SeedWindow w =
      project_seed_window(m, target, q_off, t_off, cfg.window_pad);
  ext.window_begin = w.begin;
  ext.window_end = w.end;
  if (w.begin >= w.end) return ext;

  const auto window = dna_codes(target, w.begin, w.end - w.begin);
  switch (cfg.kernel) {
    case SwKernel::kBanded: {
      // The seed lies on diagonal (t_off - proj_begin) - q_off within the
      // window; band half-width = window_pad covers the padding budget.
      const auto diag = static_cast<std::ptrdiff_t>(t_off - w.begin) -
                        static_cast<std::ptrdiff_t>(q_off);
      const std::size_t band = std::max<std::size_t>(cfg.window_pad, 8);
      ext.aln = banded_smith_waterman(query, window, diag, band, cfg.scoring);
      ext.traceback_cells = banded_cells(m, window.size(), diag, band);
      break;
    }
    case SwKernel::kStriped: {
      // Score-only screen: the striped kernel returns the exact local-maximum
      // score, so thresholding here rejects precisely the candidates the full
      // DP would reject — survivors get an identical traceback alignment.
      std::optional<StripedSmithWaterman> local;
      if (!striped_profile)
        local.emplace(query, cfg.scoring);  // one-off caller: build here
      const StripedResult sr =
          (striped_profile ? *striped_profile : *local).align(window);
      if (sr.score < screen_min_score) {
        ext.aln.score = sr.score;  // empty alignment: screened out
        return ext;
      }
      ext.aln = smith_waterman(query, window, cfg.scoring);
      ext.traceback_cells = static_cast<std::uint64_t>(m) * window.size();
      break;
    }
    case SwKernel::kBatch: {
      // Single-candidate route through the batch engine: same screen
      // semantics as kStriped, scores proven bit-identical by the tier-sweep
      // equivalence tests. Callers with many candidates should prefer
      // extend_candidates, which actually fills the SIMD lanes.
      BatchSwScorer scorer(query, cfg.scoring, cfg.isa);
      scorer.add(window);
      const StripedResult sr = scorer.flush().front();
      if (sr.score < screen_min_score) {
        ext.aln.score = sr.score;
        return ext;
      }
      ext.aln = anchored_traceback(query, window, sr, cfg.scoring,
                                   &ext.traceback_cells);
      break;
    }
    case SwKernel::kFullDP:
      ext.aln = smith_waterman(query, window, cfg.scoring);
      ext.traceback_cells = static_cast<std::uint64_t>(m) * window.size();
      break;
  }
  ext.aln.t_begin += w.begin;
  ext.aln.t_end += w.begin;
  return ext;
}

std::vector<Extension> extend_candidates(std::span<const std::uint8_t> query,
                                         std::span<const SeedCandidate> cands,
                                         int k, const ExtensionConfig& cfg,
                                         int screen_min_score,
                                         LaneStats* lane_stats) {
  std::vector<Extension> out(cands.size());
  if (cands.empty()) return out;

  if (cfg.kernel != SwKernel::kBatch) {
    // kStriped screens with a query-only profile: build it once here instead
    // of once per candidate inside extend_seed.
    std::optional<StripedSmithWaterman> profile;
    if (cfg.kernel == SwKernel::kStriped && !query.empty())
      profile.emplace(query, cfg.scoring);
    for (std::size_t c = 0; c < cands.size(); ++c)
      out[c] = extend_seed(query, *cands[c].target, cands[c].q_off,
                           cands[c].t_off, k, cfg, screen_min_score,
                           profile ? &*profile : nullptr);
    return out;
  }

  const std::size_t m = query.size();
  BatchSwScorer scorer(query, cfg.scoring, cfg.isa);

  // Project every candidate's window and enqueue the live ones. `slot[c]`
  // is the candidate's lane index in the flush, or npos when extend_seed
  // would have bailed before scoring (empty inputs / empty window).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(cands.size(), kNone);
  std::vector<std::vector<std::uint8_t>> windows(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const seq::PackedSeq& target = *cands[c].target;
    if (m == 0 || target.empty() || k <= 0) continue;
    const SeedWindow w = project_seed_window(m, target, cands[c].q_off,
                                             cands[c].t_off, cfg.window_pad);
    out[c].window_begin = w.begin;
    out[c].window_end = w.end;
    if (w.begin >= w.end) continue;
    windows[c] = dna_codes(target, w.begin, w.end - w.begin);
    slot[c] = scorer.add(windows[c]);
  }

  const std::vector<StripedResult> screened = scorer.flush();
  if (lane_stats) *lane_stats += scorer.lane_stats();
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (slot[c] == kNone) continue;
    const StripedResult& sr = screened[slot[c]];
    if (sr.score < screen_min_score) {
      out[c].aln.score = sr.score;  // screened out, same as extend_seed
      continue;
    }
    out[c].aln = anchored_traceback(query, windows[c], sr, cfg.scoring,
                                    &out[c].traceback_cells);
    out[c].aln.t_begin += out[c].window_begin;
    out[c].aln.t_end += out[c].window_begin;
  }
  return out;
}

}  // namespace mera::align
