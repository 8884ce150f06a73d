// Traits-templated inter-candidate SW passes, instantiated once per ISA TU
// (batch_sw_sse2/avx2/avx512.cpp) with that TU's vector traits. Internal —
// include batch_sw.hpp instead.
//
// Layout: candidate l lives in lane l; column j is target position j; the
// inner loop walks the query rows, one query PER LANE (lanes whose query is
// shorter than the group's row count see kQueryPadCode rows — inert under
// the pad-safety precondition documented in batch_sw_detail.hpp). Because
// rows are visited in order within a column, the vertical-gap term F is
// computed exactly — no striping, so no lazy-F fixup loop. The arithmetic
// (biased unsigned saturating 8-bit, zero-floored signed 16-bit) copies the
// striped kernel's cell updates operation-for-operation, which is what
// makes score / t_end / used_16bit bit-identical per pair across every
// engine and tier.
//
// Recurrence (match the scalar reference in striped_scalar_score):
//   E(i,j) = max(E(i,j-1) - ge, H(i,j-1) - go)     horizontal gap
//   F(i,j) = max(F(i-1,j) - ge, H(i-1,j) - go)     vertical gap
//   H(i,j) = max(0, H(i-1,j-1) + sub(q[i],t[j]), E(i,j), F(i,j))
//
// t_end: per lane, the smallest column whose column-max equals the global
// best (strict `>` on a running best == first best column == pinned
// smallest-t_end tie-break).
//
// End cell: smith_waterman's own (row, column), the first best cell in
// row-major order. Each column tracks the first row that raises its max
// (one sel_eq on the max already computed). Per lane, a column whose max
// beats the running best takes the end cell; a column whose max ties it
// with a smaller first row replaces it.
#pragma once

#include <cstdint>
#include <vector>

#include "align/batch_sw_detail.hpp"

namespace mera::align::detail {

template <class T>
void batch_pass8(const BatchPass8Args& a) {
  using V = typename T::V;
  constexpr int L = T::kLanes8;
  const V vGapO = T::set1_u8(static_cast<std::uint8_t>(a.gap_open_total));
  const V vGapE = T::set1_u8(static_cast<std::uint8_t>(a.gap_extend));
  const V vBias = T::set1_u8(static_cast<std::uint8_t>(a.bias));
  const V vMatch = T::set1_u8(static_cast<std::uint8_t>(a.match_bias));
  const V vMism = T::set1_u8(static_cast<std::uint8_t>(a.mismatch_bias));

  // Row-indexed DP state, one vector (L lanes) per query row. Plain byte
  // buffers + unaligned load/store keep the template free of vector-typed
  // containers (and their attribute-alignment warnings).
  std::vector<std::uint8_t> Hrow(a.m * L, 0), Evec(a.m * L, 0);
  alignas(64) std::uint8_t colmax[L];
  alignas(64) std::uint8_t colrow[L];
  std::uint8_t best[L] = {};
  std::size_t t_end[L] = {};
  std::size_t end_row[L] = {}, end_col[L] = {};
  const V vOne = T::set1_u8(1);

  for (std::size_t j = 0; j < a.nmax; ++j) {
    const V vT = T::load(a.tbuf + j * L);
    V vF = T::zero();
    V vHdiag = T::zero();  // H(-1, j-1) boundary row
    V vColMax = T::zero();
    V vColRow = T::zero();  // first row raising vColMax
    V vRow = T::zero();     // i, saturating past 255 (end cell then unused)
    for (std::size_t i = 0; i < a.m; ++i) {
      const V vHup = T::load(Hrow.data() + i * L);  // H(i, j-1)
      const V vE = T::max_u8(T::subs_u8(T::load(Evec.data() + i * L), vGapE),
                             T::subs_u8(vHup, vGapO));
      const V vSub = T::sel_eq8(vT, T::load(a.qbuf + i * L), vMatch, vMism);
      V vH = T::subs_u8(T::adds_u8(vHdiag, vSub), vBias);
      vH = T::max_u8(vH, vE);
      vH = T::max_u8(vH, vF);
      const V vNewMax = T::max_u8(vColMax, vH);
      vColRow = T::sel_eq8(vNewMax, vColMax, vColRow, vRow);
      vColMax = vNewMax;
      T::store(Hrow.data() + i * L, vH);
      T::store(Evec.data() + i * L, vE);
      vF = T::max_u8(T::subs_u8(vF, vGapE), T::subs_u8(vH, vGapO));
      vHdiag = vHup;
      vRow = T::adds_u8(vRow, vOne);
    }
    T::store(colmax, vColMax);
    T::store(colrow, vColRow);
    for (int l = 0; l < L; ++l) {
      if (j >= a.len[l]) continue;
      if (colmax[l] > best[l]) {
        best[l] = colmax[l];
        t_end[l] = j;
        end_row[l] = colrow[l];
        end_col[l] = j;
      } else if (colmax[l] == best[l] && colrow[l] < end_row[l]) {
        end_row[l] = colrow[l];
        end_col[l] = j;
      }
    }
  }
  for (int l = 0; l < L; ++l) {
    if (a.len[l] == 0 || a.qlen[l] == 0) continue;
    a.best[l] = best[l];
    a.t_end[l] = t_end[l];
    a.saturated[l] = best[l] >= 255 - a.bias ? 1 : 0;
    a.end_row[l] = end_row[l];
    a.end_col[l] = end_col[l];
  }
}

template <class T>
void batch_pass16(const BatchPass16Args& a) {
  using V = typename T::V;
  constexpr int L = T::kLanes16;
  const V vGapO = T::set1_i16(static_cast<std::int16_t>(a.gap_open_total));
  const V vGapE = T::set1_i16(static_cast<std::int16_t>(a.gap_extend));
  const V vMatch = T::set1_i16(static_cast<std::int16_t>(a.match));
  const V vMism = T::set1_i16(static_cast<std::int16_t>(a.mismatch));

  std::vector<std::int16_t> Hrow(a.m * L, 0), Evec(a.m * L, 0);
  alignas(64) std::int16_t colmax[L];
  alignas(64) std::int16_t colrow[L];
  std::int16_t best[L] = {};
  std::size_t t_end[L] = {};
  std::size_t end_row[L] = {}, end_col[L] = {};
  const V vOne = T::set1_i16(1);

  for (std::size_t j = 0; j < a.nmax; ++j) {
    const V vT = T::load(a.tbuf + j * L);
    V vF = T::zero();
    V vHdiag = T::zero();
    V vColMax = T::zero();
    V vColRow = T::zero();
    V vRow = T::zero();
    for (std::size_t i = 0; i < a.m; ++i) {
      const V vHup = T::load(Hrow.data() + i * L);
      const V vHgapUp =
          T::max_i16(T::subs_i16(vHup, vGapO), T::zero());
      const V vE =
          T::max_i16(T::subs_i16(T::load(Evec.data() + i * L), vGapE), vHgapUp);
      const V vSub = T::sel_eq16(vT, T::load(a.qbuf + i * L), vMatch, vMism);
      V vH = T::max_i16(T::adds_i16(vHdiag, vSub), T::zero());
      vH = T::max_i16(vH, vE);
      vH = T::max_i16(vH, vF);
      const V vNewMax = T::max_i16(vColMax, vH);
      vColRow = T::sel_eq16(vNewMax, vColMax, vColRow, vRow);
      vColMax = vNewMax;
      T::store(Hrow.data() + i * L, vH);
      T::store(Evec.data() + i * L, vE);
      vF = T::max_i16(T::subs_i16(vF, vGapE),
                      T::max_i16(T::subs_i16(vH, vGapO), T::zero()));
      vHdiag = vHup;
      vRow = T::adds_i16(vRow, vOne);
    }
    T::store(colmax, vColMax);
    T::store(colrow, vColRow);
    for (int l = 0; l < L; ++l) {
      if (j >= a.len[l]) continue;
      if (colmax[l] > best[l]) {
        best[l] = colmax[l];
        t_end[l] = j;
        end_row[l] = static_cast<std::size_t>(colrow[l]);
        end_col[l] = j;
      } else if (colmax[l] == best[l] &&
                 static_cast<std::size_t>(colrow[l]) < end_row[l]) {
        end_row[l] = static_cast<std::size_t>(colrow[l]);
        end_col[l] = j;
      }
    }
  }
  for (int l = 0; l < L; ++l) {
    if (a.len[l] == 0 || a.qlen[l] == 0) continue;
    a.best[l] = best[l];
    a.t_end[l] = t_end[l];
    a.saturated[l] = best[l] >= 32767 ? 1 : 0;
    a.end_row[l] = end_row[l];
    a.end_col[l] = end_col[l];
  }
}

}  // namespace mera::align::detail
