#include "core/stats.hpp"

#include <iomanip>
#include <ostream>

namespace mera::core {

void PipelineStats::print(std::ostream& os) const {
  os << "reads processed      " << reads_processed << '\n'
     << "reads aligned        " << reads_aligned << "  ("
     << std::fixed << std::setprecision(1) << 100.0 * aligned_fraction()
     << "%)\n"
     << "alignments reported  " << alignments_reported << '\n'
     << "exact-match reads    " << exact_match_reads << "  ("
     << 100.0 * exact_fraction() << "% of aligned)\n"
     << "seeds indexed        " << seeds_indexed << '\n'
     << "seed lookups         " << seed_lookups << "  (cache hits "
     << seed_cache_hits << ")\n"
     << "target fetches       " << target_fetches << "  (cache hits "
     << target_cache_hits << ")\n"
     << "Smith-Waterman calls " << sw_calls << "  (" << sw_cells
     << " DP cells)\n"
     << "traceback cells      " << traceback_cells << '\n'
     << "memcmp fast paths    " << memcmp_calls << '\n'
     << "lookups truncated    " << hits_truncated << '\n'
     << "comm (lookups)       " << std::setprecision(4) << comm_lookup_s
     << " s (rank-summed, modeled)\n"
     << "comm (target fetch)  " << comm_fetch_s << " s (rank-summed, modeled)\n";
  os.unsetf(std::ios::fixed);
}

}  // namespace mera::core
