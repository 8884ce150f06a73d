// Equivalence and dispatch tests for the inter-candidate batch SW engine.
// The central contract: on EVERY dispatch tier this host supports, the batch
// scorer's score / t_end (smallest-t_end tie-break) are bit-identical to the
// scalar reference and to the per-pair striped kernel, and the end cell it
// reports anchors a traceback bit-identical to smith_waterman.
#include "align/batch_sw.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "align/extension.hpp"
#include "align/smith_waterman.hpp"
#include "align/striped_sw.hpp"

namespace {

using mera::testutil::random_dna;

using namespace mera::align;

/// Every concrete tier this binary + CPU can actually run (always includes
/// kScalar). Tests sweep these so CI proves bit-identity on each.
std::vector<SwIsa> supported_tiers() {
  std::vector<SwIsa> tiers{SwIsa::kScalar};
  for (SwIsa isa : {SwIsa::kSse2, SwIsa::kAvx2, SwIsa::kAvx512})
    if (isa_supported(isa)) tiers.push_back(isa);
  return tiers;
}

std::vector<std::vector<std::uint8_t>> random_targets(std::mt19937_64& rng,
                                                      std::size_t n,
                                                      std::size_t max_len) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(dna_codes(random_dna(rng, rng() % (max_len + 1))));
  return out;
}

class BatchSwTiers : public ::testing::TestWithParam<SwIsa> {};

TEST_P(BatchSwTiers, MatchesScalarReferenceAndStriped) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(71);
  const Scoring sc;
  for (int round = 0; round < 8; ++round) {
    const std::string q = random_dna(rng, 1 + rng() % 150);
    const auto qc = dna_codes(q);
    const auto targets = random_targets(rng, 40, 300);
    const auto got = batch_sw_scores(qc, targets, sc, isa);
    ASSERT_EQ(got.size(), targets.size());
    const StripedSmithWaterman ssw(std::span<const std::uint8_t>(qc), sc);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score)
          << isa_name(isa) << " round=" << round << " i=" << i << " q=" << q;
      ASSERT_EQ(got[i].t_end, ref.t_end)
          << isa_name(isa) << " round=" << round << " i=" << i << " q=" << q;
      const auto sres = ssw.align(std::span<const std::uint8_t>(targets[i]));
      ASSERT_EQ(got[i].score, sres.score);
      ASSERT_EQ(got[i].t_end, sres.t_end);
      // used_16bit is an 8-bit-saturation fact, only defined where an 8-bit
      // SIMD pass ran: compare it between the SIMD engines, not vs scalar.
      if (isa != SwIsa::kScalar && StripedSmithWaterman::simd_enabled())
        ASSERT_EQ(got[i].used_16bit, sres.used_16bit);
    }
  }
}

TEST_P(BatchSwTiers, MatchesReferenceAcrossScoringSchemes) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(72);
  for (const Scoring sc : {Scoring{2, -2, 3, 1}, Scoring{1, -3, 5, 2},
                           Scoring{3, -1, 1, 1}, Scoring{1, -1, 0, 1}}) {
    const std::string q = random_dna(rng, 10 + rng() % 120);
    const auto qc = dna_codes(q);
    const auto targets = random_targets(rng, 37, 250);
    const auto got = batch_sw_scores(qc, targets, sc, isa);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
      ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
      ASSERT_EQ(got[i].score,
                sw_score_reference(std::span<const std::uint8_t>(qc),
                                   std::span<const std::uint8_t>(targets[i]),
                                   sc));
    }
  }
}

TEST_P(BatchSwTiers, TiedScoresPickSmallestTEnd) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  const Scoring sc;
  const std::string q = "ACGTAC";
  // Three tandem copies: the best score is achieved ending at t[5], t[11]
  // and t[17]; the pinned tie-break selects the first.
  const auto qc = dna_codes(q);
  const auto tc = dna_codes(q + q + q);
  BatchSwScorer scorer(qc, sc, isa);
  scorer.add(tc);
  const auto res = scorer.flush();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].score, sc.match * 6);
  EXPECT_EQ(res[0].t_end, 5u) << isa_name(isa);
}

TEST_P(BatchSwTiers, SaturatedLanesEscalateTo16Bit) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(73);
  const Scoring sc;
  const std::string q = random_dna(rng, 400);
  const auto qc = dna_codes(q);
  // Mix saturating (perfect 400bp self-match: score 800 > 255) and small
  // candidates in one batch so both passes run and slot results correctly.
  std::vector<std::vector<std::uint8_t>> targets;
  for (int i = 0; i < 9; ++i) {
    targets.push_back(dna_codes(random_dna(rng, 60)));
    targets.push_back(qc);
  }
  const auto got = batch_sw_scores(qc, targets, sc, isa);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto ref = striped_scalar_score(qc, targets[i], sc);
    ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
    ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
    if (i % 2 == 1) {
      EXPECT_EQ(got[i].score, 800);
      if (isa != SwIsa::kScalar) EXPECT_TRUE(got[i].used_16bit);
    }
  }
}

TEST_P(BatchSwTiers, EmptyInputsScoreZero) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  const Scoring sc;
  {
    BatchSwScorer scorer(std::span<const std::uint8_t>(), sc, isa);
    scorer.add(dna_codes(std::string_view("ACGT")));
    const auto res = scorer.flush();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].score, 0);
  }
  {
    const auto qc = dna_codes(std::string_view("ACGT"));
    BatchSwScorer scorer(qc, sc, isa);
    scorer.add(std::span<const std::uint8_t>());
    scorer.add(qc);
    const auto res = scorer.flush();
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[0].score, 0);
    EXPECT_EQ(res[1].score, 4 * sc.match);
  }
}

TEST_P(BatchSwTiers, LargeBatchSpansManyLaneGroups) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(74);
  const Scoring sc;
  const std::string q = random_dna(rng, 101);
  const auto qc = dna_codes(q);
  const auto targets = random_targets(rng, 150, 220);  // > 2 AVX-512 groups
  const auto got = batch_sw_scores(qc, targets, sc, isa);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto ref = striped_scalar_score(qc, targets[i], sc);
    ASSERT_EQ(got[i].score, ref.score) << isa_name(isa) << " i=" << i;
    ASSERT_EQ(got[i].t_end, ref.t_end) << isa_name(isa) << " i=" << i;
  }
}

TEST_P(BatchSwTiers, ReuseAcrossFlushes) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  std::mt19937_64 rng(75);
  const Scoring sc;
  const auto qc = dna_codes(random_dna(rng, 80));
  BatchSwScorer scorer(qc, sc, isa);
  for (int round = 0; round < 3; ++round) {
    const auto targets = random_targets(rng, 21, 160);
    for (const auto& t : targets) scorer.add(t);
    EXPECT_EQ(scorer.pending(), targets.size());
    const auto got = scorer.flush();
    EXPECT_EQ(scorer.pending(), 0u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto ref = striped_scalar_score(qc, targets[i], sc);
      ASSERT_EQ(got[i].score, ref.score);
      ASSERT_EQ(got[i].t_end, ref.t_end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BatchSwTiers,
                         ::testing::Values(SwIsa::kScalar, SwIsa::kSse2,
                                           SwIsa::kAvx2, SwIsa::kAvx512),
                         [](const auto& info) { return isa_name(info.param); });

TEST(SwIsaDispatch, NamesRoundTrip) {
  for (SwIsa isa : {SwIsa::kAuto, SwIsa::kScalar, SwIsa::kSse2, SwIsa::kAvx2,
                    SwIsa::kAvx512})
    EXPECT_EQ(parse_isa(isa_name(isa)), isa);
  EXPECT_FALSE(parse_isa("sse9").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
}

TEST(SwIsaDispatch, DetectReturnsASupportedTier) {
  const SwIsa isa = detect_isa();
  EXPECT_NE(isa, SwIsa::kAuto);
  EXPECT_TRUE(isa_supported(isa));
}

TEST(SwIsaDispatch, EnvOverridePinsTier) {
  ASSERT_EQ(setenv("MERA_SW_ISA", "scalar", 1), 0);
  const auto qc = dna_codes(std::string_view("ACGTACGT"));
  {
    BatchSwScorer scorer(qc);
    EXPECT_EQ(scorer.isa(), SwIsa::kScalar);
  }
  // An explicit tier beats the environment.
  if (isa_supported(SwIsa::kSse2)) {
    BatchSwScorer scorer(qc, Scoring{}, SwIsa::kSse2);
    EXPECT_EQ(scorer.isa(), SwIsa::kSse2);
  }
  ASSERT_EQ(setenv("MERA_SW_ISA", "not-an-isa", 1), 0);
  EXPECT_THROW(BatchSwScorer{qc}, std::invalid_argument);
  ASSERT_EQ(unsetenv("MERA_SW_ISA"), 0);
  BatchSwScorer scorer(qc);
  EXPECT_EQ(scorer.isa(), detect_isa());
}

TEST(SwIsaDispatch, UnsupportedExplicitTierThrows) {
  // At most one of these can be the CPU's actual widest tier; find a tier
  // that is NOT supported, if any, and check the constructor refuses it.
  for (SwIsa isa : {SwIsa::kAvx512, SwIsa::kAvx2, SwIsa::kSse2})
    if (!isa_supported(isa)) {
      const auto qc = dna_codes(std::string_view("ACGT"));
      EXPECT_THROW(BatchSwScorer(qc, Scoring{}, isa), std::invalid_argument);
      return;
    }
  GTEST_SKIP() << "every SIMD tier is supported on this host";
}

// ---------------------------------------------------------------------------
// End cell + anchored traceback: bit-identical to smith_waterman
// ---------------------------------------------------------------------------

/// Codes drawn from the first `alphabet` residues (1 = a homopolymer world).
std::vector<std::uint8_t> random_codes(std::mt19937_64& rng, std::size_t len,
                                       unsigned alphabet) {
  std::vector<std::uint8_t> v(len);
  for (auto& c : v) c = static_cast<std::uint8_t>(rng() % alphabet);
  return v;
}

/// `unit` repeated until `len` codes.
std::vector<std::uint8_t> tandem(const std::vector<std::uint8_t>& unit,
                                 std::size_t len) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) v[i] = unit[i % unit.size()];
  return v;
}

/// Copy of `src` with ~rate substitutions, insertions and deletions each.
std::vector<std::uint8_t> mutate(std::mt19937_64& rng,
                                 const std::vector<std::uint8_t>& src,
                                 unsigned alphabet, double rate) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::uint8_t> out;
  for (const std::uint8_t c : src) {
    const double x = u(rng);
    if (x < rate) continue;  // deletion
    if (x < 2 * rate)        // insertion before c
      out.push_back(static_cast<std::uint8_t>(rng() % alphabet));
    const bool substitute = x >= 2 * rate && x < 3 * rate;
    out.push_back(substitute ? static_cast<std::uint8_t>(rng() % alphabet)
                             : c);
  }
  return out;
}

void expect_same_alignment(const LocalAlignment& got,
                           const LocalAlignment& want,
                           const std::string& what) {
  ASSERT_EQ(got.score, want.score) << what;
  ASSERT_EQ(got.q_begin, want.q_begin) << what;
  ASSERT_EQ(got.q_end, want.q_end) << what;
  ASSERT_EQ(got.t_begin, want.t_begin) << what;
  ASSERT_EQ(got.t_end, want.t_end) << what;
  ASSERT_EQ(got.cigar.to_string(), want.cigar.to_string()) << what;
  ASSERT_EQ(got.mismatches, want.mismatches) << what;
  ASSERT_EQ(got.gap_columns, want.gap_columns) << what;
}

/// A query for the property sweep: random, tandem or long (250-300 rows,
/// past the 8-bit pass's end-cell row limit).
std::vector<std::uint8_t> sweep_query(std::mt19937_64& rng, unsigned alphabet) {
  switch (rng() % 4) {
    case 0:
      return tandem(random_codes(rng, 1 + rng() % 6, alphabet),
                    20 + rng() % 130);
    case 1:
      return random_codes(rng, 250 + rng() % 51, alphabet);
    default:
      return random_codes(rng, 1 + rng() % 150, alphabet);
  }
}

/// A candidate window for `q`: empty, random, tandem, a mutated copy of the
/// query (indels included) inside random flanks, or two copies (ties).
std::vector<std::uint8_t> sweep_target(std::mt19937_64& rng,
                                       const std::vector<std::uint8_t>& q,
                                       unsigned alphabet) {
  const auto flank = [&] { return random_codes(rng, rng() % 24, alphabet); };
  std::vector<std::uint8_t> t;
  switch (rng() % 6) {
    case 0:
      return t;
    case 1:
      return random_codes(rng, 1 + rng() % 330, alphabet);
    case 2:
      return tandem(random_codes(rng, 1 + rng() % 6, alphabet),
                    1 + rng() % 200);
    case 5: {
      t = flank();
      const auto a = mutate(rng, q, alphabet, 0.02);
      const auto b = mutate(rng, q, alphabet, 0.02);
      t.insert(t.end(), a.begin(), a.end());
      t.insert(t.end(), b.begin(), b.end());
      return t;
    }
    default: {
      t = flank();
      const auto m = mutate(rng, q, alphabet, 0.01 * (rng() % 8));
      t.insert(t.end(), m.begin(), m.end());
      const auto tail = flank();
      t.insert(t.end(), tail.begin(), tail.end());
      return t;
    }
  }
}

TEST(AnchoredTraceback, EndCellAndTracebackMatchSmithWaterman) {
  std::mt19937_64 rng(81);
  std::size_t candidates = 0;
  // Scoring SIMD-lane results that took the anchored path / the fallback.
  std::size_t anchored = 0, fallback = 0;
  for (const Scoring sc :
       {Scoring{}, Scoring{1, -3, 5, 2}, Scoring{3, -1, 1, 1}}) {
    for (int round = 0; round < 6; ++round) {
      const unsigned alphabet = 1 + static_cast<unsigned>(round % 4);
      // Several queries of mixed lengths in one flush, so lane groups mix
      // row counts (padding) and some exceed the 8-bit end-cell row limit.
      std::vector<std::vector<std::uint8_t>> queries, targets;
      std::vector<std::size_t> query_of;
      for (int qi = 0; qi < 4; ++qi) queries.push_back(sweep_query(rng, alphabet));
      for (int c = 0; c < 48; ++c) {
        query_of.push_back(rng() % queries.size());
        targets.push_back(sweep_target(rng, queries[query_of.back()], alphabet));
      }
      std::vector<LocalAlignment> want;
      for (std::size_t c = 0; c < targets.size(); ++c)
        want.push_back(smith_waterman(
            std::span<const std::uint8_t>(queries[query_of[c]]),
            std::span<const std::uint8_t>(targets[c]), sc));
      candidates += targets.size();

      const auto check = [&](const StripedResult& r, std::size_t c,
                             const std::string& what) {
        const auto& q = queries[query_of[c]];
        ASSERT_EQ(r.score, want[c].score) << what;
        if (r.end_cell) {
          ASSERT_GT(r.score, 0) << what;
          ASSERT_EQ(r.end_cell->q_end, want[c].q_end) << what;
          ASSERT_EQ(r.end_cell->t_end, want[c].t_end) << what;
        }
        std::uint64_t cells = 0;
        const LocalAlignment got =
            anchored_traceback(q, targets[c], r, sc, &cells);
        expect_same_alignment(got, want[c], what);
        ASSERT_LE(cells, static_cast<std::uint64_t>(q.size()) *
                             targets[c].size())
            << what;
      };

      // The scalar reference always reports the end cell of a scoring pair.
      for (std::size_t c = 0; c < targets.size(); ++c) {
        const auto r = striped_scalar_score(queries[query_of[c]], targets[c], sc);
        ASSERT_EQ(r.end_cell.has_value(), r.score > 0) << "scalar ref c=" << c;
        check(r, c, "scalar ref round=" + std::to_string(round) +
                        " c=" + std::to_string(c));
      }
      for (const SwIsa isa : supported_tiers()) {
        BatchSwScorer scorer(sc, isa);
        std::vector<std::size_t> qid;
        for (const auto& q : queries) qid.push_back(scorer.add_query(q));
        for (std::size_t c = 0; c < targets.size(); ++c)
          scorer.add(qid[query_of[c]], targets[c]);
        const auto got = scorer.flush();
        for (std::size_t c = 0; c < targets.size(); ++c) {
          // SIMD lanes report the end cell unless the row limit or the
          // per-pair backstop intervened; a short-query lane never lacks it.
          if (isa != SwIsa::kScalar && got[c].score > 0 &&
              queries[query_of[c]].size() <= 150 &&
              std::all_of(queries.begin(), queries.end(),
                          [](const auto& q) { return q.size() <= 255; }))
            ASSERT_TRUE(got[c].end_cell.has_value()) << isa_name(isa);
          if (isa != SwIsa::kScalar && got[c].score > 0)
            ++(got[c].end_cell ? anchored : fallback);
          check(got[c], c,
                std::string(isa_name(isa)) + " round=" + std::to_string(round) +
                    " c=" + std::to_string(c));
        }
      }
    }
  }
  EXPECT_GE(candidates, 800u);
  if (isa_lanes8(SwIsa::kAuto) > 1) {
    EXPECT_GT(anchored, 0u);
    EXPECT_GT(fallback, 0u);  // 8-bit groups past the row limit
  }
}

TEST_P(BatchSwTiers, EndCellIsFirstInRowMajorOrderNotSmallestTEnd) {
  const SwIsa isa = GetParam();
  if (!isa_supported(isa)) GTEST_SKIP() << "tier not supported on this host";
  if (isa == SwIsa::kScalar) GTEST_SKIP() << "the scalar tier reports no cell";
  const Scoring sc;
  // Query CCCCGGGG vs target GGGGTTTTCCCC: both halves score 8. CCCC ends
  // in row 4 at column 12, GGGG in row 8 at column 4 — smith_waterman keeps
  // the row-major first (4, 12), the t_end contract the smallest column.
  const auto qc = dna_codes(std::string_view("CCCCGGGG"));
  const auto tc = dna_codes(std::string_view("GGGGTTTTCCCC"));
  BatchSwScorer scorer(qc, sc, isa);
  scorer.add(tc);
  const auto r = scorer.flush().front();
  const auto want = smith_waterman(std::span<const std::uint8_t>(qc),
                                   std::span<const std::uint8_t>(tc), sc);
  EXPECT_EQ(r.score, 8);
  EXPECT_EQ(r.t_end, 3u);
  ASSERT_TRUE(r.end_cell.has_value());
  EXPECT_EQ(*r.end_cell, (SwEndCell{4, 12}));
  EXPECT_EQ(*r.end_cell, (SwEndCell{want.q_end, want.t_end}));
}

}  // namespace
