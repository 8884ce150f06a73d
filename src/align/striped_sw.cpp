#include "align/striped_sw.hpp"

#include <algorithm>
#include <limits>

#include "align/smith_waterman.hpp"

#if defined(__SSE2__) && !defined(MERA_FORCE_SCALAR_SW)
#include <emmintrin.h>
#define MERA_SSW_SIMD 1
// std::vector<__m128i> is the natural container for the striped rows; GCC
// warns that the alignment attribute is ignored in the template argument,
// which is harmless here (allocation is 16B-aligned on x86-64 malloc).
// push/pop so the suppression covers exactly this TU's striped code, not
// whatever else the build happens to pull in after it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
#else
#define MERA_SSW_SIMD 0
#endif

namespace mera::align {

bool StripedSmithWaterman::simd_enabled() noexcept { return MERA_SSW_SIMD != 0; }

StripedSmithWaterman::StripedSmithWaterman(
    std::span<const std::uint8_t> query_codes, const Scoring& sc)
    : query_(query_codes.begin(), query_codes.end()), sc_(sc) {
  bias_ = std::max(0, -sc_.mismatch);
#if MERA_SSW_SIMD
  const std::size_t m = query_.size();
  if (m == 0) return;
  seglen8_ = (m + 15) / 16;
  profile8_.assign(4 * seglen8_ * 16, 0);
  for (std::uint8_t r = 0; r < 4; ++r)
    for (std::size_t i = 0; i < seglen8_; ++i)
      for (std::size_t lane = 0; lane < 16; ++lane) {
        const std::size_t pos = i + lane * seglen8_;
        const int v = pos < m ? sc_.substitution(r, query_[pos]) + bias_ : 0;
        profile8_[(r * seglen8_ + i) * 16 + lane] =
            static_cast<std::uint8_t>(v);
      }
  seglen16_ = (m + 7) / 8;
  profile16_.assign(4 * seglen16_ * 8, 0);
  for (std::uint8_t r = 0; r < 4; ++r)
    for (std::size_t i = 0; i < seglen16_; ++i)
      for (std::size_t lane = 0; lane < 8; ++lane) {
        const std::size_t pos = i + lane * seglen16_;
        const int v = pos < m ? sc_.substitution(r, query_[pos]) : 0;
        profile16_[(r * seglen16_ + i) * 8 + lane] =
            static_cast<std::int16_t>(v);
      }
#endif
}

namespace {
std::vector<std::uint8_t> codes_of(std::string_view s) { return dna_codes(s); }
}  // namespace

StripedSmithWaterman::StripedSmithWaterman(std::string_view query,
                                           const Scoring& sc)
    : StripedSmithWaterman(std::span<const std::uint8_t>(codes_of(query)), sc) {}

namespace {

#if MERA_SSW_SIMD

/// 8-bit saturated Farrar pass. Returns {score (0..255), t_end, saturated}.
struct Pass8Result {
  int score;
  std::size_t t_end;
  bool saturated;
};

Pass8Result striped_u8(std::span<const std::uint8_t> target,
                       const std::uint8_t* profile, std::size_t seglen,
                       int bias, int gap_open_total, int gap_extend) {
  const auto vGapO = _mm_set1_epi8(static_cast<char>(gap_open_total));
  const auto vGapE = _mm_set1_epi8(static_cast<char>(gap_extend));
  const auto vBias = _mm_set1_epi8(static_cast<char>(bias));
  const auto vZero = _mm_setzero_si128();

  std::vector<__m128i> Hstore(seglen, vZero), Hload(seglen, vZero),
      Evec(seglen, vZero);
  __m128i vMax = vZero;
  std::size_t best_col = 0;
  std::uint8_t best = 0;

  for (std::size_t j = 0; j < target.size(); ++j) {
    const __m128i* prof = reinterpret_cast<const __m128i*>(
        profile + static_cast<std::size_t>(target[j]) * seglen * 16);
    // H from previous column's last segment, shifted one lane.
    __m128i vH = _mm_slli_si128(Hstore[seglen - 1], 1);
    __m128i vF = vZero;
    __m128i vColMax = vZero;
    std::swap(Hstore, Hload);
    for (std::size_t i = 0; i < seglen; ++i) {
      vH = _mm_adds_epu8(vH, _mm_loadu_si128(prof + i));
      vH = _mm_subs_epu8(vH, vBias);
      const __m128i vE = Evec[i];
      vH = _mm_max_epu8(vH, vE);
      vH = _mm_max_epu8(vH, vF);
      vColMax = _mm_max_epu8(vColMax, vH);
      Hstore[i] = vH;
      // Update E and F for the next column / next segment.
      __m128i vHgap = _mm_subs_epu8(vH, vGapO);
      Evec[i] = _mm_max_epu8(_mm_subs_epu8(vE, vGapE), vHgap);
      vF = _mm_max_epu8(_mm_subs_epu8(vF, vGapE), vHgap);
      vH = Hload[i];
    }
    // Lazy F: propagate F across segment boundaries until it stops mattering.
    // A lane is settled once F left its H unchanged AND the next row's F
    // cannot beat H - gap_open (which the main loop already propagated). An
    // unchanged H alone is not enough: F - gap_extend can still exceed
    // H - gap_open and raise a later row.
    for (int lane = 0; lane < 16; ++lane) {
      vF = _mm_slli_si128(vF, 1);
      bool live = true;
      for (std::size_t i = 0; i < seglen && live; ++i) {
        const __m128i vHold = Hstore[i];
        const __m128i vH2 = _mm_max_epu8(vHold, vF);
        Hstore[i] = vH2;
        vColMax = _mm_max_epu8(vColMax, vH2);
        const __m128i vHgap = _mm_subs_epu8(vH2, vGapO);
        Evec[i] = _mm_max_epu8(Evec[i], vHgap);
        vF = _mm_subs_epu8(vF, vGapE);
        // F <= H - gap_open <=> (F -sat (H - gap_open)) == 0.
        const __m128i settled =
            _mm_and_si128(_mm_cmpeq_epi8(vH2, vHold),
                          _mm_cmpeq_epi8(_mm_subs_epu8(vF, vHgap), vZero));
        live = _mm_movemask_epi8(settled) != 0xFFFF;
      }
      if (!live) break;
    }
    vMax = _mm_max_epu8(vMax, vColMax);
    // Track best column for t_end.
    alignas(16) std::uint8_t lanes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vColMax);
    const std::uint8_t colbest = *std::max_element(lanes, lanes + 16);
    if (colbest > best) {
      best = colbest;
      best_col = j;
    }
  }
  return {static_cast<int>(best), best_col, best >= 255 - bias};
}

/// 16-bit signed Farrar pass (no bias needed; explicit zero floor).
struct Pass16Result {
  int score;
  std::size_t t_end;
};

Pass16Result striped_i16(std::span<const std::uint8_t> target,
                         const std::int16_t* profile, std::size_t seglen,
                         int gap_open_total, int gap_extend) {
  const auto vGapO = _mm_set1_epi16(static_cast<short>(gap_open_total));
  const auto vGapE = _mm_set1_epi16(static_cast<short>(gap_extend));
  const auto vZero = _mm_setzero_si128();

  std::vector<__m128i> Hstore(seglen, vZero), Hload(seglen, vZero),
      Evec(seglen, vZero);
  std::int16_t best = 0;
  std::size_t best_col = 0;

  for (std::size_t j = 0; j < target.size(); ++j) {
    const __m128i* prof = reinterpret_cast<const __m128i*>(
        profile + static_cast<std::size_t>(target[j]) * seglen * 8);
    __m128i vH = _mm_slli_si128(Hstore[seglen - 1], 2);
    __m128i vF = vZero;
    __m128i vColMax = vZero;
    std::swap(Hstore, Hload);
    for (std::size_t i = 0; i < seglen; ++i) {
      vH = _mm_adds_epi16(vH, _mm_loadu_si128(prof + i));
      vH = _mm_max_epi16(vH, vZero);
      const __m128i vE = Evec[i];
      vH = _mm_max_epi16(vH, vE);
      vH = _mm_max_epi16(vH, vF);
      vColMax = _mm_max_epi16(vColMax, vH);
      Hstore[i] = vH;
      __m128i vHgap = _mm_max_epi16(_mm_subs_epi16(vH, vGapO), vZero);
      Evec[i] = _mm_max_epi16(_mm_subs_epi16(vE, vGapE), vHgap);
      vF = _mm_max_epi16(_mm_subs_epi16(vF, vGapE), vHgap);
      vH = Hload[i];
    }
    for (int lane = 0; lane < 8; ++lane) {
      vF = _mm_slli_si128(vF, 2);
      bool live = true;
      for (std::size_t i = 0; i < seglen && live; ++i) {
        const __m128i vHold = Hstore[i];
        const __m128i vH2 = _mm_max_epi16(vHold, vF);
        Hstore[i] = vH2;
        vColMax = _mm_max_epi16(vColMax, vH2);
        const __m128i vHgap = _mm_max_epi16(_mm_subs_epi16(vH2, vGapO), vZero);
        Evec[i] = _mm_max_epi16(Evec[i], vHgap);
        vF = _mm_subs_epi16(vF, vGapE);
        const __m128i settled = _mm_andnot_si128(
            _mm_cmpgt_epi16(vF, vHgap), _mm_cmpeq_epi16(vH2, vHold));
        live = _mm_movemask_epi8(settled) != 0xFFFF;
      }
      if (!live) break;
    }
    alignas(16) std::int16_t lanes[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vColMax);
    const std::int16_t colbest = *std::max_element(lanes, lanes + 8);
    if (colbest > best) {
      best = colbest;
      best_col = j;
    }
  }
  return {static_cast<int>(best), best_col};
}

#endif  // MERA_SSW_SIMD

}  // namespace

StripedResult striped_scalar_score(std::span<const std::uint8_t> query,
                                   std::span<const std::uint8_t> target,
                                   const Scoring& sc) {
  StripedResult r;
  const std::size_t m = query.size(), n = target.size();
  if (m == 0 || n == 0) return r;
  const int go = sc.gap_open + sc.gap_extend;
  const int ge = sc.gap_extend;
  constexpr int kNegInf = std::numeric_limits<int>::min() / 4;
  std::vector<int> H(n + 1, 0), Hprev(n + 1, 0), Fv(n + 1, kNegInf);
  for (std::size_t i = 1; i <= m; ++i) {
    std::swap(Hprev, H);
    H[0] = 0;
    int E = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      E = std::max(E - ge, H[j - 1] - go);
      Fv[j] = std::max(Fv[j] - ge, Hprev[j] - go);
      const int diag = Hprev[j - 1] + sc.substitution(query[i - 1], target[j - 1]);
      H[j] = std::max({0, diag, E, Fv[j]});
      // Tie-break contract: among cells with the best score, the smallest
      // t_end wins. The row-major scan must therefore keep shrinking t_end
      // on equal-score cells in later rows, not just take the first best
      // cell it happens to visit (which is NOT the smallest column).
      // The first strict raise in row-major order is smith_waterman's own
      // end cell (its `h > best` rule).
      if (H[j] > r.score) {
        r.score = H[j];
        r.t_end = j - 1;
        r.end_cell = SwEndCell{i, j};
      } else if (H[j] == r.score && r.score > 0 && j - 1 < r.t_end) {
        r.t_end = j - 1;
      }
    }
  }
  return r;
}

StripedResult StripedSmithWaterman::align(
    std::span<const std::uint8_t> target_codes) const {
  if (query_.empty() || target_codes.empty()) return {};
#if MERA_SSW_SIMD
  const int go = sc_.gap_open + sc_.gap_extend;
  const int ge = sc_.gap_extend;
  const Pass8Result p8 = striped_u8(target_codes, profile8_.data(), seglen8_,
                                    bias_, go, ge);
  if (!p8.saturated) return {p8.score, p8.t_end, false, std::nullopt};
  const Pass16Result p16 =
      striped_i16(target_codes, profile16_.data(), seglen16_, go, ge);
  return {p16.score, p16.t_end, true, std::nullopt};
#else
  return striped_scalar_score(std::span<const std::uint8_t>(query_),
                              target_codes, sc_);
#endif
}

StripedResult StripedSmithWaterman::align(std::string_view target) const {
  const auto t = dna_codes(target);
  return align(std::span<const std::uint8_t>(t));
}

}  // namespace mera::align

#if MERA_SSW_SIMD
#pragma GCC diagnostic pop
#endif
