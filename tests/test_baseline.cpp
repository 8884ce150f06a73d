#include "baseline/replicated_aligner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/pipeline.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace {

using namespace mera::baseline;
using mera::pgas::Runtime;
using mera::pgas::Topology;
using mera::seq::SeqRecord;

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<SeqRecord> reads;
};

Workload make_workload(std::size_t genome_len, double depth,
                       std::uint64_t seed = 5) {
  Workload w;
  const std::string genome =
      mera::seq::simulate_genome({.length = genome_len, .rng_seed = seed});
  mera::seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = mera::seq::chop_into_contigs(genome, cp);
  mera::seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = depth;
  rp.error_rate = 0.002;
  rp.rng_seed = seed + 2;
  w.reads = mera::seq::simulate_reads(genome, rp);
  return w;
}

BaselineConfig small_baseline(int k = 21) {
  BaselineConfig cfg;
  cfg.k = k;
  cfg.threads_per_instance = 2;
  return cfg;
}

// A 150 kbp reference makes the serial build tens of milliseconds of CPU.
// At a few milliseconds, one-off costs (first-touch page faults, a cold
// allocator arena in the process's first run) were a large share of it, and
// the serial-build timing tests below failed in a few of every 20 runs.
constexpr std::size_t kSerialBuildGenome = 150'000;

/// Simulated seconds of the serial index build, best of 3 runs: the build is
/// CPU-timed, and the minimum filters scheduler and frequency noise.
double serial_build_s(const Workload& w, int nranks, double multiplier = 1.0) {
  BaselineConfig cfg = small_baseline();
  cfg.index_build_multiplier = multiplier;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Runtime rt(Topology(nranks, 2));
    const auto res = ReplicatedIndexAligner(cfg).align(rt, w.contigs, w.reads);
    best = std::min(best, res.report.time_of("index.build.serial"));
  }
  return best;
}

TEST(Baseline, AlignsTheWorkload) {
  const auto w = make_workload(30'000, 1.5);
  Runtime rt(Topology(4, 2));
  const ReplicatedIndexAligner aligner(small_baseline());
  const auto res = aligner.align(rt, w.contigs, w.reads);
  EXPECT_EQ(res.stats.reads_processed, w.reads.size());
  EXPECT_GT(res.stats.aligned_fraction(), 0.8);
  EXPECT_GT(res.index_entries, 0u);
  EXPECT_GT(res.index_replica_bytes, 0u);
}

TEST(Baseline, IndexConstructionIsSerial) {
  // Only rank 0 accumulates CPU time in the build phase.
  const auto w = make_workload(40'000, 0.5);
  Runtime rt(Topology(4, 2));
  const auto res =
      ReplicatedIndexAligner(small_baseline()).align(rt, w.contigs, w.reads);
  const auto* build = res.report.find("index.build.serial");
  ASSERT_NE(build, nullptr);
  EXPECT_GT(build->cpu_s[0], 10 * build->cpu_s[1]);
  EXPECT_GT(build->cpu_s[0], 10 * build->cpu_s[3]);
}

TEST(Baseline, SerialBuildDoesNotScaleWithRanks) {
  const auto w = make_workload(kSerialBuildGenome, 0.05);
  const double t2 = serial_build_s(w, 2);
  const double t8 = serial_build_s(w, 8);
  // Same serial work regardless of rank count (allow noise).
  EXPECT_GT(t8, t2 * 0.5);
  EXPECT_LT(t8, t2 * 2.0);
}

TEST(Baseline, MappingPhaseDoesScale) {
  const auto w = make_workload(40'000, 3.0);
  auto map_cpu_max = [&](int nranks) {
    Runtime rt(Topology(nranks, 2));
    const auto res =
        ReplicatedIndexAligner(small_baseline()).align(rt, w.contigs, w.reads);
    return res.report.find("map")->cpu_max();
  };
  const double t1 = map_cpu_max(1);
  const double t8 = map_cpu_max(8);
  EXPECT_LT(t8, t1 / 3.0);  // parallel mapping: ~8x less per-rank work
}

TEST(Baseline, BuildMultiplierScalesSerialPhase) {
  const auto w = make_workload(kSerialBuildGenome, 0.05);
  const double x1 = serial_build_s(w, 2, 1.0);
  const double x8 = serial_build_s(w, 2, 8.0);
  EXPECT_GT(x8, 4.0 * x1);
}

TEST(Baseline, ReplicationChargesOneTransferPerInstanceLeader) {
  const auto w = make_workload(20'000, 0.3);
  Runtime rt(Topology(6, 3));
  BaselineConfig cfg = small_baseline();
  cfg.threads_per_instance = 3;  // leaders: ranks 0, 3 -> one remote pull
  const auto res =
      ReplicatedIndexAligner(cfg).align(rt, w.contigs, w.reads);
  const auto* rep = res.report.find("index.replicate");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->traffic.remote_msgs(), 1u);
  EXPECT_GE(rep->traffic.remote_bytes(), res.index_replica_bytes);
}

TEST(Baseline, ReadPartitionPhaseOnlyWhenEnabled) {
  const auto w = make_workload(20'000, 0.5);
  Runtime rt(Topology(4, 2));
  BaselineConfig cfg = small_baseline();
  EXPECT_EQ(ReplicatedIndexAligner(cfg)
                .align(rt, w.contigs, w.reads)
                .report.find("read.partition"),
            nullptr);
  cfg.include_read_partition = true;
  Runtime rt2(Topology(4, 2));
  EXPECT_NE(ReplicatedIndexAligner(cfg)
                .align(rt2, w.contigs, w.reads)
                .report.find("read.partition"),
            nullptr);
}

TEST(Baseline, PresetsAreOrderedLikeTableII) {
  // Bowtie2-like builds slower than BWA-mem-like; both much slower than
  // merAligner's parallel construction (checked in test_integration).
  const auto w = make_workload(kSerialBuildGenome, 0.05);
  // Phase times are thread-CPU measurements, so under a loaded machine
  // (parallel ctest) a single run is noisy. The presets' runs alternate, so
  // a slow stretch of the host hits both, and each keeps its median of five:
  // a best-of-N minimum let one unusually fast run of one preset decide.
  auto serial_time = [&](const BaselineConfig& base) {
    BaselineConfig cfg = base;
    cfg.threads_per_instance = 2;
    Runtime rt(Topology(4, 2));
    return ReplicatedIndexAligner(cfg)
        .align(rt, w.contigs, w.reads)
        .serial_index_time_s();
  };
  std::vector<double> bwa_runs;
  std::vector<double> bowtie_runs;
  for (int rep = 0; rep < 5; ++rep) {
    bwa_runs.push_back(serial_time(BaselineConfig::bwamem_like(21)));
    bowtie_runs.push_back(serial_time(BaselineConfig::bowtie2_like(21)));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + 2, v.end());
    return v[2];
  };
  const double bwa = median(bwa_runs);
  const double bowtie = median(bowtie_runs);
  EXPECT_GT(bowtie, 1.5 * bwa);
}

TEST(Baseline, AlignedFractionComparableToMerAligner) {
  // Same seed-and-extend core => alignment rates in the same ballpark
  // (Table II: 86.3% vs 83.8% / 82.6%).
  const auto w = make_workload(30'000, 1.0);
  Runtime rt1(Topology(4, 2));
  mera::core::AlignerConfig mcfg;
  mcfg.k = 21;
  mcfg.buffer_S = 64;
  mcfg.fragment_len = 512;
  const auto mer = mera::core::MerAligner(mcfg).align(rt1, w.contigs, w.reads);
  Runtime rt2(Topology(4, 2));
  const auto base =
      ReplicatedIndexAligner(small_baseline()).align(rt2, w.contigs, w.reads);
  const double diff = mer.stats.aligned_fraction() -
                      base.stats.aligned_fraction();
  EXPECT_LT(std::abs(diff), 0.05);
}

}  // namespace
