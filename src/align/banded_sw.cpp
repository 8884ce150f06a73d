#include "align/banded_sw.hpp"

#include <algorithm>
#include <climits>
#include <vector>

namespace mera::align {

namespace {
constexpr std::uint8_t kHDiag = 1, kHFromE = 2, kHFromF = 3;
constexpr std::uint8_t kEExt = 4, kFExt = 8;
constexpr int kNegInf = INT_MIN / 4;
}  // namespace

std::uint64_t banded_cells(std::size_t m, std::size_t n, std::ptrdiff_t diag,
                           std::size_t band) noexcept {
  if (m == 0 || n == 0) return 0;
  const auto bw = static_cast<std::ptrdiff_t>(band);
  const auto nn = static_cast<std::ptrdiff_t>(n);
  std::uint64_t cells = 0;
  // Row i (1-based) covers j in [max(1, i + diag - bw), min(n, i + diag + bw)].
  for (std::ptrdiff_t i = 1; i <= static_cast<std::ptrdiff_t>(m); ++i) {
    const std::ptrdiff_t jlo = std::max<std::ptrdiff_t>(1, i + diag - bw);
    const std::ptrdiff_t jhi = std::min<std::ptrdiff_t>(nn, i + diag + bw);
    if (jhi >= jlo) cells += static_cast<std::uint64_t>(jhi - jlo + 1);
  }
  return cells;
}

LocalAlignment banded_smith_waterman(std::span<const std::uint8_t> query,
                                     std::span<const std::uint8_t> target,
                                     std::ptrdiff_t diag, std::size_t band,
                                     const Scoring& sc) {
  const std::size_t m = query.size(), n = target.size();
  LocalAlignment out;
  if (m == 0 || n == 0) return out;

  const int go = sc.gap_open + sc.gap_extend;
  const int ge = sc.gap_extend;
  const auto bw = static_cast<std::ptrdiff_t>(band);

  // Same layout as the full kernel but cells outside the band read as -inf.
  // For the window sizes the extension step uses, a full provenance matrix is
  // still tiny; the win is the skipped inner-loop work.
  std::vector<int> H(n + 1, 0), Hprev(n + 1, 0), Fv(n + 1, kNegInf);
  std::vector<std::uint8_t> prov((m + 1) * (n + 1), 0);

  int best = 0;
  std::size_t best_i = 0, best_j = 0;

  for (std::size_t i = 1; i <= m; ++i) {
    std::swap(Hprev, H);
    // Band for row i (1-based): j in [i + diag - bw, i + diag + bw].
    const auto ii = static_cast<std::ptrdiff_t>(i);
    const std::ptrdiff_t jlo =
        std::max<std::ptrdiff_t>(1, ii + diag - bw);
    const std::ptrdiff_t jhi =
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(n), ii + diag + bw);
    // Clear cells bordering the band so stale values don't leak in.
    if (jlo >= 1 && static_cast<std::size_t>(jlo) <= n) {
      H[static_cast<std::size_t>(jlo) - 1] = (jlo == 1) ? 0 : kNegInf;
    }
    if (jhi >= 0 && static_cast<std::size_t>(jhi) < n)
      Hprev[static_cast<std::size_t>(jhi) + 1] = kNegInf;
    int E = kNegInf;
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      std::uint8_t p = 0;
      const int e_open = H[ju - 1] - go;
      const int e_ext = E - ge;
      if (e_ext >= e_open) {
        E = e_ext;
        p |= kEExt;
      } else {
        E = e_open;
      }
      const int f_open = Hprev[ju] - go;
      const int f_ext = Fv[ju] - ge;
      if (f_ext >= f_open) {
        Fv[ju] = f_ext;
        p |= kFExt;
      } else {
        Fv[ju] = f_open;
      }
      const int diag_score =
          Hprev[ju - 1] + sc.substitution(query[i - 1], target[ju - 1]);
      int h = 0;
      std::uint8_t hsrc = 0;
      if (diag_score > h) { h = diag_score; hsrc = kHDiag; }
      if (E > h) { h = E; hsrc = kHFromE; }
      if (Fv[ju] > h) { h = Fv[ju]; hsrc = kHFromF; }
      H[ju] = h;
      prov[i * (n + 1) + ju] = static_cast<std::uint8_t>(p | hsrc);
      if (h > best) {
        best = h;
        best_i = i;
        best_j = ju;
      }
    }
    // Cells right of the band in this row must not be read as valid next row.
    if (jhi >= 0 && static_cast<std::size_t>(jhi) < n)
      H[static_cast<std::size_t>(jhi) + 1] = kNegInf;
    // jlo is unclamped above: once the band slides entirely past the target
    // (jlo > n + 1, e.g. a query much longer than the window), there is no
    // left-border cell to clear — indexing H there would write out of bounds.
    if (jlo > 1 && static_cast<std::size_t>(jlo) <= n + 1)
      H[static_cast<std::size_t>(jlo) - 1] = kNegInf;
  }

  out.score = best;
  if (best == 0) {
    out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(m));
    return out;
  }

  Cigar rev;
  std::size_t i = best_i, j = best_j;
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    const std::uint8_t p = prov[i * (n + 1) + j];
    if (state == State::kH) {
      const std::uint8_t hsrc = p & 3u;
      if (hsrc == 0) break;
      if (hsrc == kHDiag) {
        rev.push(CigarOp::kMatch, 1);
        if (query[i - 1] != target[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (hsrc == kHFromE) {
        state = State::kE;
      } else {
        state = State::kF;
      }
    } else if (state == State::kE) {
      rev.push(CigarOp::kDelete, 1);
      ++out.gap_columns;
      const bool ext = (p & kEExt) != 0;
      --j;
      if (!ext) state = State::kH;
    } else {
      rev.push(CigarOp::kInsert, 1);
      ++out.gap_columns;
      const bool ext = (p & kFExt) != 0;
      --i;
      if (!ext) state = State::kH;
    }
  }

  out.q_begin = i;
  out.q_end = best_i;
  out.t_begin = j;
  out.t_end = best_j;
  out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(i));
  rev.reverse();
  for (const auto& e : rev.elems()) out.cigar.push(e.op, e.len);
  out.cigar.push(CigarOp::kSoftClip, static_cast<std::uint32_t>(m - best_i));
  return out;
}

}  // namespace mera::align
