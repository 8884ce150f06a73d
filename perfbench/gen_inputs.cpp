// perfbench_gen — writes one seeded benchmark workload as plain files.
//
// Usage:
//   perfbench_gen --shape human|wheat|ecoli --genome-len BASES --depth D
//                 --seed N --batches B --k K --out DIR
//
// The genome, contigs and reads come from the library simulators with the
// workload shapes of bench/bench_common.hpp; only the size, depth and seed
// are overridden. Output in DIR:
//   contigs.fa          targets; names encode "contig<i>:<start>-<end>"
//   batch_NNNN.fastq    the reads cut into B consecutive batches; names
//                       encode "r<i>;pos=<p>;strand=<+|->[;junk=1]"
//   one.fastq           a one-read batch (the first non-junk read)
//   truth.tsv           <read name> TAB <findable 0|1>, one line per read
//
// "findable" is core::read_is_findable at seed length K: some clean K-base
// window of the read lies inside one contig, so any seed-and-extend aligner
// can place it. The benchmark's recall is measured against these reads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/evaluation.hpp"
#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"

namespace {

struct Options {
  std::string shape;
  std::size_t genome_len = 0;
  double depth = 0.0;
  std::uint64_t seed = 0;
  std::size_t batches = 1;
  int k = 51;
  std::string out;
};

Options parse_args(int argc, char** argv) {
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--shape") o.shape = val;
    else if (flag == "--genome-len") o.genome_len = std::stoull(val);
    else if (flag == "--depth") o.depth = std::stod(val);
    else if (flag == "--seed") o.seed = std::stoull(val);
    else if (flag == "--batches") o.batches = std::stoull(val);
    else if (flag == "--k") o.k = std::stoi(val);
    else if (flag == "--out") o.out = val;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.out.empty() || o.genome_len == 0 || o.depth <= 0.0 || o.batches == 0)
    throw std::invalid_argument(
        "required: --shape --genome-len --depth --seed --batches --k --out");
  return o;
}

bench::WorkloadSpec shape_spec(const Options& o) {
  bench::WorkloadSpec s;
  if (o.shape == "human") s = bench::human_like(o.genome_len, o.depth);
  else if (o.shape == "wheat") s = bench::wheat_like(o.genome_len, o.depth);
  else if (o.shape == "ecoli") s = bench::ecoli_like(o.depth);
  else throw std::invalid_argument("--shape expects human|wheat|ecoli");
  s.genome_len = o.genome_len;
  // Each shape keeps its own seed stream; make_workload uses seed, seed+1
  // and seed+2, so stride by 8 to keep neighbouring --seed values disjoint.
  s.seed = s.seed + 8 * o.seed;
  return s;
}

/// Name-only contig records sorted by genome start, for findability checks:
/// read_is_findable reads only contig names, and only contigs overlapping
/// the read can contain one of its windows.
struct ContigIndex {
  std::vector<std::size_t> starts;
  std::vector<std::size_t> ends;
  std::vector<mera::seq::SeqRecord> names;

  explicit ContigIndex(const std::vector<mera::seq::SeqRecord>& contigs) {
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t i = 0; i < contigs.size(); ++i)
      order.emplace_back(mera::seq::parse_contig_truth(contigs[i].name).start,
                         i);
    std::sort(order.begin(), order.end());
    for (const auto& [start, i] : order) {
      starts.push_back(start);
      ends.push_back(mera::seq::parse_contig_truth(contigs[i].name).end);
      names.push_back({contigs[i].name, "", ""});
    }
  }

  [[nodiscard]] std::vector<mera::seq::SeqRecord> overlapping(
      std::size_t begin, std::size_t end) const {
    std::vector<mera::seq::SeqRecord> out;
    // Contigs are disjoint and sorted, so the candidates are the last one
    // starting at or before `begin` and every one starting inside the span.
    auto it = std::upper_bound(starts.begin(), starts.end(), begin);
    std::size_t i = it == starts.begin() ? 0 : (it - starts.begin()) - 1;
    for (; i < starts.size() && starts[i] < end; ++i)
      if (ends[i] > begin) out.push_back(names[i]);
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mera;
  try {
    const Options o = parse_args(argc, argv);
    const bench::WorkloadSpec spec = shape_spec(o);

    seq::GenomeParams gp;
    gp.length = spec.genome_len;
    gp.repeat_fraction = spec.repeat_fraction;
    gp.rng_seed = spec.seed;
    const std::string genome = seq::simulate_genome(gp);
    seq::ContigParams cp;
    cp.min_len = 800;
    cp.max_len = 4000;
    cp.rng_seed = spec.seed + 1;
    const auto contigs = seq::chop_into_contigs(genome, cp);
    seq::ReadSimParams rp;
    rp.read_len = spec.read_len;
    rp.depth = spec.depth;
    rp.error_rate = spec.error_rate;
    rp.junk_fraction = spec.junk_fraction;
    rp.grouped = spec.grouped;
    rp.rng_seed = spec.seed + 2;
    const auto reads = seq::simulate_reads(genome, rp);
    if (reads.size() < o.batches)
      throw std::invalid_argument("fewer reads than batches");

    std::filesystem::create_directories(o.out);
    seq::write_fasta(o.out + "/contigs.fa", contigs);
    const std::size_t per = (reads.size() + o.batches - 1) / o.batches;
    for (std::size_t b = 0; b < o.batches; ++b) {
      const std::size_t lo = std::min(reads.size(), b * per);
      const std::size_t hi = std::min(reads.size(), lo + per);
      char name[32];
      std::snprintf(name, sizeof name, "/batch_%04zu.fastq", b);
      seq::write_fastq(o.out + name,
                       {reads.begin() + static_cast<std::ptrdiff_t>(lo),
                        reads.begin() + static_cast<std::ptrdiff_t>(hi)});
    }
    const auto first_real =
        std::find_if(reads.begin(), reads.end(), [](const seq::SeqRecord& r) {
          return !seq::parse_read_truth(r.name).junk;
        });
    if (first_real == reads.end())
      throw std::runtime_error("no non-junk read simulated");
    seq::write_fastq(o.out + "/one.fastq", {*first_real});

    const ContigIndex index(contigs);
    std::ofstream truth(o.out + "/truth.tsv");
    std::size_t findable = 0;
    for (const auto& r : reads) {
      const auto t = seq::parse_read_truth(r.name);
      bool f = false;
      if (!t.junk) {
        const auto near = index.overlapping(t.pos, t.pos + r.seq.size());
        f = core::read_is_findable(r, genome, near, o.k);
      }
      findable += f ? 1u : 0u;
      truth << r.name << '\t' << (f ? 1 : 0) << '\n';
    }
    truth.flush();
    if (!truth) throw std::runtime_error("cannot write truth.tsv");
    std::printf("reads %zu findable %zu contigs %zu batches %zu\n",
                reads.size(), findable, contigs.size(), o.batches);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: error: %s\n", e.what());
    return 1;
  }
}
