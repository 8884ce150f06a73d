#include "align/striped_sw.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "align/smith_waterman.hpp"
#include "seq/dna.hpp"

namespace {

using mera::testutil::random_dna;

using namespace mera::align;

TEST(StripedSw, PerfectMatch) {
  const Scoring sc;
  const std::string q = "ACGTACGTACGTACGT";
  const StripedSmithWaterman ssw(q, sc);
  const auto res = ssw.align(q);
  EXPECT_EQ(res.score, sc.match * static_cast<int>(q.size()));
  EXPECT_EQ(res.t_end, q.size() - 1);
}

TEST(StripedSw, EmptyInputsScoreZero) {
  const Scoring sc;
  const StripedSmithWaterman ssw(std::string_view(""), sc);
  EXPECT_EQ(ssw.align("ACGT").score, 0);
  const StripedSmithWaterman ssw2(std::string_view("ACGT"), sc);
  EXPECT_EQ(ssw2.align("").score, 0);
}

TEST(StripedSw, MatchesReferenceOnRandomPairs) {
  std::mt19937_64 rng(51);
  const Scoring sc;
  for (int trial = 0; trial < 150; ++trial) {
    const std::string q = random_dna(rng, 1 + rng() % 150);
    const std::string t = random_dna(rng, 1 + rng() % 300);
    const StripedSmithWaterman ssw(q, sc);
    const auto res = ssw.align(t);
    const int expect = sw_score_reference(
        std::span<const std::uint8_t>(dna_codes(q)),
        std::span<const std::uint8_t>(dna_codes(t)), sc);
    ASSERT_EQ(res.score, expect)
        << "trial=" << trial << " q=" << q << " t=" << t;
  }
}

struct SchemeCase {
  Scoring sc;
  const char* label;
};

class StripedSchemes : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(StripedSchemes, MatchesReference) {
  std::mt19937_64 rng(52);
  const Scoring sc = GetParam().sc;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string q = random_dna(rng, 10 + rng() % 120);
    const std::string t = random_dna(rng, 10 + rng() % 250);
    const StripedSmithWaterman ssw(q, sc);
    ASSERT_EQ(ssw.align(t).score,
              sw_score_reference(std::span<const std::uint8_t>(dna_codes(q)),
                                 std::span<const std::uint8_t>(dna_codes(t)),
                                 sc))
        << "q=" << q << " t=" << t;
  }
}

// A query insertion is a vertical gap: its F chain runs down the query
// rows, which in a short query are one row per lane, so it crosses lanes
// through the lazy-F loop. That loop used to stop at the first pass that
// changed no H, dropping an F that could still raise a later row.
TEST_P(StripedSchemes, VerticalGapsAcrossStripeLanes) {
  std::mt19937_64 rng(54);
  const Scoring sc = GetParam().sc;
  for (int trial = 0; trial < 200; ++trial) {
    const std::string q = random_dna(rng, 8 + rng() % 40);
    std::string t = q;
    t.erase(2 + rng() % (q.size() - 6), 1 + rng() % 4);
    t = random_dna(rng, rng() % 20) + t + random_dna(rng, rng() % 20);
    const StripedSmithWaterman ssw(q, sc);
    ASSERT_EQ(ssw.align(t).score,
              sw_score_reference(std::span<const std::uint8_t>(dna_codes(q)),
                                 std::span<const std::uint8_t>(dna_codes(t)),
                                 sc))
        << "q=" << q << " t=" << t;
  }
}

TEST(StripedSw, TwoBaseQueryInsertionInAShortQuery) {
  // CGA[AC]GGGTA vs ...CGAGGGTA...: 8 matches and a 2-base vertical gap
  // score 16 - (3 + 2) = 11; the early lazy-F exit reported 10.
  const Scoring sc;
  const StripedSmithWaterman ssw(std::string_view("CGAACGGGTA"), sc);
  EXPECT_EQ(ssw.align("ATTACACGATTCGAGGGTAGAAAGTGTTTAACAACATAAAAGCT").score,
            11);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, StripedSchemes,
    ::testing::Values(SchemeCase{{2, -2, 3, 1}, "ssw_default"},
                      SchemeCase{{1, -3, 5, 2}, "blastn_like"},
                      SchemeCase{{3, -1, 1, 1}, "gap_friendly"},
                      SchemeCase{{1, -1, 0, 1}, "lcs_like"}),
    [](const auto& info) { return info.param.label; });

TEST(StripedSw, SimilarSequencesWithIndels) {
  std::mt19937_64 rng(53);
  const Scoring sc;
  for (int trial = 0; trial < 50; ++trial) {
    const std::string t = random_dna(rng, 200);
    std::string q = t.substr(rng() % 80, 100);
    // Mutate: substitutions + an indel.
    for (int e = 0; e < 5; ++e)
      q[rng() % q.size()] = "ACGT"[rng() & 3u];
    if (trial % 3 == 0) q.erase(rng() % (q.size() - 3), 2);
    if (trial % 3 == 1) q.insert(rng() % q.size(), "GT");
    const StripedSmithWaterman ssw(q, sc);
    ASSERT_EQ(ssw.align(t).score,
              sw_score_reference(std::span<const std::uint8_t>(dna_codes(q)),
                                 std::span<const std::uint8_t>(dna_codes(t)),
                                 sc));
  }
}

TEST(StripedSw, Overflow8BitFallsBackTo16Bit) {
  // Long perfect match: score = 2*600 = 1200 >> 255 forces the 16-bit pass.
  std::mt19937_64 rng(54);
  const Scoring sc;
  const std::string q = random_dna(rng, 600);
  const StripedSmithWaterman ssw(q, sc);
  const auto res = ssw.align(q);
  EXPECT_EQ(res.score, 1200);
  if (StripedSmithWaterman::simd_enabled()) {
    EXPECT_TRUE(res.used_16bit);
  }
}

TEST(StripedSw, TEndPointsAtBestColumn) {
  const Scoring sc;
  const std::string q = "ACGTACGTAC";
  const std::string t = "TTTTTTTTTT" + q + "TTTTTTTTTT";
  const StripedSmithWaterman ssw(q, sc);
  const auto res = ssw.align(t);
  EXPECT_EQ(res.score, sc.match * 10);
  EXPECT_EQ(res.t_end, 19u);  // alignment ends at t[19]
}

TEST(StripedSw, TiedScoresPickSmallestTEnd) {
  // Regression: the SIMD passes take the FIRST best column; the scalar
  // fallback used to take the first best cell in row-major order, which for
  // tied scores is a later column — so t_end diverged across platforms. The
  // pinned contract is smallest t_end, on every path.
  const Scoring sc;
  const std::string q = "ACGTAC";
  const std::string t = q + q + q;  // best score ends at t[5], t[11], t[17]
  const StripedSmithWaterman ssw(q, sc);
  EXPECT_EQ(ssw.align(t).t_end, 5u);
  const auto scalar = striped_scalar_score(
      std::span<const std::uint8_t>(dna_codes(q)),
      std::span<const std::uint8_t>(dna_codes(t)), sc);
  EXPECT_EQ(scalar.score, sc.match * 6);
  EXPECT_EQ(scalar.t_end, 5u);
}

TEST(StripedSw, ScalarReferenceMatchesSimdTEndOnRandomPairs) {
  // The divergence regression, property-tested: score AND t_end must agree
  // between the scalar reference and whatever path align() compiled to.
  // Short targets + short queries make score ties common.
  std::mt19937_64 rng(56);
  const Scoring sc;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string q = random_dna(rng, 1 + rng() % 12);
    const std::string t = random_dna(rng, 1 + rng() % 40);
    const auto qc = dna_codes(q);
    const auto tc = dna_codes(t);
    const StripedSmithWaterman ssw(std::span<const std::uint8_t>(qc), sc);
    const auto simd = ssw.align(std::span<const std::uint8_t>(tc));
    const auto scalar = striped_scalar_score(qc, tc, sc);
    ASSERT_EQ(simd.score, scalar.score) << "q=" << q << " t=" << t;
    ASSERT_EQ(simd.t_end, scalar.t_end) << "q=" << q << " t=" << t;
  }
}

TEST(StripedSw, ProfileReuseAcrossManyTargets) {
  // One profile, many targets — the aligning-phase usage pattern.
  std::mt19937_64 rng(55);
  const Scoring sc;
  const std::string q = random_dna(rng, 101);
  const StripedSmithWaterman ssw(q, sc);
  for (int i = 0; i < 20; ++i) {
    const std::string t = random_dna(rng, 150 + rng() % 150);
    ASSERT_EQ(ssw.align(t).score,
              sw_score_reference(std::span<const std::uint8_t>(dna_codes(q)),
                                 std::span<const std::uint8_t>(dna_codes(t)),
                                 sc));
  }
}

TEST(StripedSw, QueryShorterThanOneStripe) {
  const Scoring sc;
  const StripedSmithWaterman ssw(std::string_view("ACG"), sc);
  EXPECT_EQ(ssw.align("TTACGTT").score, 3 * sc.match);
}

}  // namespace
