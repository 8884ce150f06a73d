// Minimal flag parsing shared by the command-line tools, plus the engine
// flags (index, session, sharding) that meraligner and meralignerd share.
#pragma once

#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "align/batch_sw.hpp"
#include "cache/cache_snapshot.hpp"
#include "core/align_session.hpp"
#include "obs/log.hpp"
#include "pgas/runtime.hpp"
#include "seq/fasta.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace mera::tools {

/// A bad invocation (unknown flag, missing required flag, malformed value).
/// Tools catch this separately from runtime errors so they can print the
/// usage text and exit with a distinct status.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          flags_[a.substr(2, eq - 2)].push_back(a.substr(eq + 1));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[a.substr(2)].push_back(argv[++i]);
        } else {
          flags_[a.substr(2)].push_back("1");  // boolean flag
        }
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }
  /// Last occurrence wins for single-valued flags.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second.back();
  }
  [[nodiscard]] long get_int(const std::string& name, long def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    try {
      return std::stol(it->second.back());
    } catch (const std::exception&) {
      throw UsageError("flag --" + name + " expects an integer, got '" +
                       it->second.back() + "'");
    }
  }
  [[nodiscard]] std::string require(const std::string& name) const {
    const auto it = flags_.find(name);
    if (it == flags_.end())
      throw UsageError("missing required flag --" + name);
    return it->second.back();
  }
  /// Every occurrence of a repeatable flag, in command-line order.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& name) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? std::vector<std::string>{} : it->second;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Reject flags outside `known` (and stray positional arguments) instead of
  /// silently ignoring them.
  void check_known(std::initializer_list<std::string_view> known) const {
    for (const auto& [name, values] : flags_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == name;
      if (!ok) throw UsageError("unknown flag --" + name);
    }
    if (!positional_.empty())
      throw UsageError("unexpected argument '" + positional_.front() + "'");
  }

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

/// --sw-isa: validated here so a typo or a tier this machine can't run is a
/// usage error up front, not a mid-run exception from the first batch.
inline align::SwIsa parse_sw_isa(const std::string& name) {
  const auto isa = align::parse_isa(name);
  if (!isa)
    throw UsageError("--sw-isa expects auto|scalar|sse2|avx2|avx512, got '" +
                     name + "'");
  if (!align::isa_supported(*isa))
    throw UsageError(
        "--sw-isa " + name +
        ": tier not available (not compiled in or not supported by this CPU)");
  return *isa;
}

inline shard::ShardWeight parse_shard_weight(const std::string& name) {
  if (name == "cost") return shard::ShardWeight::kCostModel;
  if (name == "bases") return shard::ShardWeight::kBases;
  throw UsageError("--shard-by expects cost|bases, got '" + name + "'");
}

/// The @PG CL field: the invocation verbatim, space-separated.
inline std::string command_line_of(int argc, char** argv) {
  std::string cl;
  for (int i = 0; i < argc; ++i) {
    if (i) cl += ' ';
    cl += argv[i];
  }
  return cl;
}

/// The engine both tools run: what the index is built over and how batches
/// are aligned against it. One --targets file is a 1-shard reference;
/// --shards K splits it, repeated --targets give one shard per file.
struct EngineOptions {
  std::vector<std::string> targets;  ///< --targets, in command-line order
  core::IndexConfig index;
  core::SessionConfig session;
  int shards = 1;  ///< --shards K >= 2 splitting a single --targets file
  shard::ShardWeight shard_by = shard::ShardWeight::kCostModel;
  int shard_parallel = 0;  ///< --shard-parallel J; 0 = auto
  /// Repeated --targets or --shards K >= 2.
  [[nodiscard]] bool sharded() const { return targets.size() > 1 || shards > 1; }
};

/// Parse and validate --targets, the index/session flags and the sharding
/// flags. Every flag that would be a silent no-op in the given combination is
/// a usage error.
inline EngineOptions parse_engine_options(const Args& args) {
  EngineOptions o;
  o.targets = args.get_all("targets");
  if (o.targets.empty()) throw UsageError("missing required flag --targets");

  core::IndexConfig& icfg = o.index;
  icfg.k = static_cast<int>(args.get_int("k", 51));
  icfg.buffer_S = static_cast<std::size_t>(args.get_int("S", 1000));
  icfg.fragment_len =
      static_cast<std::size_t>(args.get_int("fragment-len", 1024));
  icfg.exact_match = !args.has("no-exact");
  icfg.aggregating_stores = !args.has("no-aggregation");

  core::SessionConfig& scfg = o.session;
  scfg.max_hits_per_seed =
      static_cast<std::size_t>(args.get_int("max-hits", 32));
  scfg.exact_match = icfg.exact_match;
  scfg.seed_cache = !args.has("no-seed-cache");
  scfg.target_cache = !args.has("no-target-cache");
  scfg.permute_queries = !args.has("no-permute");
  // Both tools run the pooled batch engine; kFullDP is the library's oracle.
  scfg.extension.kernel = align::SwKernel::kBatch;
  if (args.has("sw-isa")) scfg.extension.isa = parse_sw_isa(args.get("sw-isa"));
  scfg.cache_admission = args.has("cache-admission");

  const long shards = args.get_int("shards", 0);
  if (args.has("shards") && shards < 1)
    throw UsageError("--shards must be >= 1");
  if (o.targets.size() > 1 && shards != 0 &&
      shards != static_cast<long>(o.targets.size()))
    throw UsageError(
        "--shards conflicts with repeated --targets (one shard per file)");
  if (o.targets.size() == 1 && shards > 1) o.shards = static_cast<int>(shards);
  // --shard-by steers the planner, which only runs when one collection is
  // being split.
  if (args.has("shard-by")) {
    if (o.targets.size() > 1 || shards < 2)
      throw UsageError(
          "--shard-by requires --shards K (K >= 2) with a single --targets "
          "collection");
    o.shard_by = parse_shard_weight(args.get("shard-by"));
  }
  // 0/negative (and non-numeric, via get_int) are errors — "no parallelism"
  // is spelled --shard-parallel 1.
  if (args.has("shard-parallel")) {
    if (!o.sharded())
      throw UsageError(
          "--shard-parallel requires a sharded reference (--shards K or "
          "repeated --targets)");
    const long j = args.get_int("shard-parallel", 0);
    if (j < 1)
      throw UsageError("--shard-parallel must be >= 1, got " +
                       args.get("shard-parallel"));
    o.shard_parallel = static_cast<int>(j);
  }
  return o;
}

/// Collective build of the reference the options describe, with the
/// "index built" lines on stderr.
inline shard::ShardedReference build_reference(pgas::Runtime& rt,
                                               const EngineOptions& o) {
  const auto build = [&] {
    if (o.shards == 1)  // one shard per --targets file
      return shard::ShardedReference::build_from_fastas(rt, o.targets, o.index);
    shard::ShardPlanOptions popt;
    popt.shards = o.shards;
    popt.weight = o.shard_by;
    popt.k = o.index.k;
    const auto targets = seq::read_fasta(o.targets[0]);
    auto ref = shard::ShardedReference::build(
        rt, targets, shard::plan_shards(targets, popt), o.index);
    if (ref.num_shards() != popt.shards)
      obs::Log::warn(
          "warning: --shards %d clamped to %d (one shard per target is the "
          "maximum)",
          popt.shards, ref.num_shards());
    return ref;
  };
  shard::ShardedReference ref = build();
  if (!o.sharded()) {
    obs::Log::info("index built: %zu entries, %.3f simulated s",
                   ref.index_entries(), ref.build_time_serial_s());
    return ref;
  }
  obs::Log::info(
      "sharded index built: %d shards, %u targets, %zu entries; build %.3f "
      "simulated s serial, %.3f s if each shard had its own runtime",
      ref.num_shards(), ref.num_targets(), ref.index_entries(),
      ref.build_time_serial_s(), ref.build_time_parallel_s());
  for (int s = 0; s < ref.num_shards(); ++s)
    obs::Log::info("  shard %d: %u targets, %zu entries, build %.3f simulated s",
                   s, ref.shard(s).targets().num_targets(),
                   ref.shard(s).index_entries(),
                   ref.shard(s).build_report().total_time_s());
  return ref;
}

/// Warm-load failures are invocation errors (exit 2 + usage): the user
/// pointed --load-cache at a snapshot that does not exist or does not match
/// this reference/topology/cost model.
inline void load_caches_or_usage_error(shard::ShardedAlignSession& session,
                                       const pgas::Runtime& rt,
                                       const std::string& dir) {
  try {
    session.load_caches(rt, dir);
  } catch (const cache::CacheSnapshotError& e) {
    throw UsageError("--load-cache " + dir + ": " + e.what());
  }
  obs::Log::info("warm caches loaded from %s", dir.c_str());
}

}  // namespace mera::tools
