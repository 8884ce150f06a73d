#include "align/extension.hpp"

#include <algorithm>

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
                      std::size_t t_off, int k, const ExtensionConfig& cfg) {
  Extension ext;
  const std::size_t m = query.size();
  if (m == 0 || target.empty() || k <= 0) return ext;

  const SeedWindow w =
      project_seed_window(m, target, q_off, t_off, cfg.window_pad);
  ext.window_begin = w.begin;
  ext.window_end = w.end;
  if (w.begin >= w.end) return ext;

  const auto window = dna_codes(target, w.begin, w.end - w.begin);
  ext.aln = smith_waterman(query, window, cfg.scoring);
  ext.traceback_cells = static_cast<std::uint64_t>(m) * window.size();
  ext.aln.t_begin += w.begin;
  ext.aln.t_end += w.begin;
  return ext;
}

}  // namespace mera::align
