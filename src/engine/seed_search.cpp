#include "pdc/engine/seed_search.hpp"

#include <algorithm>
#include <bit>

#include "pdc/engine/analytic.hpp"
#include "pdc/engine/prefix.hpp"
#include "pdc/util/check.hpp"
#include "pdc/util/parallel.hpp"
#include "pdc/util/timer.hpp"

namespace pdc::engine {

const char* to_string(PlaneTag plane) {
  switch (plane) {
    case PlaneTag::kNone: return "";
    case PlaneTag::kEnumerating: return "enumerating";
    case PlaneTag::kAnalytic: return "analytic";
    case PlaneTag::kPrefix: return "prefix";
    case PlaneTag::kMixed: return "mixed";
  }
  return "";
}

const char* to_string(BackendTag backend) {
  switch (backend) {
    case BackendTag::kNone: return "";
    case BackendTag::kSharedMemory: return "shared-memory";
    case BackendTag::kSharded: return "sharded";
    case BackendTag::kMixed: return "mixed";
  }
  return "";
}

std::size_t resolve_max_batch(const SearchOptions& opt,
                              std::size_t item_count) {
  if (opt.max_batch != 0) return opt.max_batch;
  // Adaptive policy: an eighth of the item count, rounded up to a
  // power of two. The 4096-double ceiling keeps the sink within a
  // 32 KiB L1 slice; the floor of 128 keeps small searches in one or
  // two passes.
  constexpr std::size_t kFloor = 128;
  constexpr std::size_t kCeil = 32 * 1024 / sizeof(double);  // 4096
  const std::size_t target =
      std::bit_ceil(std::max<std::size_t>(1, item_count / 8));
  return std::clamp(target, kFloor, kCeil);
}

namespace detail {

Selection select_exhaustive(const std::vector<double>& totals) {
  Selection out;
  out.cost = totals[0];
  double sum = 0.0;
  for (std::uint64_t s = 0; s < totals.size(); ++s) {
    sum += totals[s];
    if (totals[s] < out.cost) {
      out.cost = totals[s];
      out.seed = s;
    }
  }
  out.mean_cost = sum / static_cast<double>(totals.size());
  return out;
}

Selection select_prefix_walk(const std::vector<double>& totals,
                             int seed_bits) {
  const std::uint64_t n = 1ULL << seed_bits;
  PDC_CHECK(totals.size() == n);
  // Mirror of run_prefix_walk_oracle over a totals vector: same branch
  // rule (compare exact sums, ties to 0), same parent-minus-child
  // derivation after the first step, same mean. For integer-valued
  // costs every quantity is an exact integer in doubles, so the two
  // walks cannot diverge.
  return run_prefix_walk_oracle(
      seed_bits,
      [&](std::uint64_t /*child0_prefix*/, int /*bits_fixed*/,
          const MemberSubgrid& sub0, const MemberSubgrid& sub1,
          bool need_both, double* out) {
        out[0] = 0.0;
        for (std::uint64_t s = sub0.first; s < sub0.first + sub0.count; ++s)
          out[0] += totals[s];
        if (!need_both) return;
        out[1] = 0.0;
        for (std::uint64_t s = sub1.first; s < sub1.first + sub1.count; ++s)
          out[1] += totals[s];
      });
}

Selection run_prefix_walk_oracle(int seed_bits,
                                 const PrefixBranchFn& branch_sums) {
  PDC_CHECK(seed_bits >= 1 && seed_bits <= 30);
  const std::uint64_t n = 1ULL << seed_bits;
  Selection out;
  std::uint64_t prefix = 0;
  double parent = 0.0;
  for (int t = 0; t < seed_bits; ++t) {
    const int fixed = t + 1;
    const std::uint64_t child0 = prefix << 1;
    const std::uint64_t width = n >> fixed;
    const MemberSubgrid sub0{child0 * width, width};
    const MemberSubgrid sub1{(child0 | 1) * width, width};
    const bool need_both = (t == 0);
    double s[2] = {0.0, 0.0};
    branch_sums(child0, fixed, sub0, sub1, need_both, s);
    if (t == 0) {
      out.mean_cost = (s[0] + s[1]) / static_cast<double>(n);
    } else {
      // The two children partition the chosen parent subgrid; for
      // integer costs the subtraction is exact, so only one branch sum
      // is ever recomputed (on the sharded backend: one cast word).
      s[1] = parent - s[0];
    }
    const int pick = s[1] < s[0] ? 1 : 0;
    prefix = child0 | static_cast<std::uint64_t>(pick);
    parent = s[pick];
  }
  // All bits fixed: the final subgrid is the singleton {prefix}, so the
  // last chosen branch sum is the seed's total.
  out.seed = prefix;
  out.cost = parent;
  return out;
}

Selection run_prefix_walk_totals(const TotalsFn& totals, int seed_bits) {
  PDC_CHECK(seed_bits >= 1 && seed_bits <= 30);
  Timer timer;
  SearchStats stats;
  Selection out =
      select_prefix_walk(totals(1ULL << seed_bits, stats), seed_bits);
  out.stats = stats;
  out.stats.wall_ms = timer.millis();
  return out;
}

void stamp_prefix_walk(SearchStats& stats, int seed_bits,
                       std::uint64_t junta_evals) {
  stats.prefix.walks = 1;
  stats.prefix.bit_steps = static_cast<std::uint64_t>(seed_bits);
  stats.prefix.junta_evals = junta_evals;
  stats.evaluations = 1ULL << seed_bits;
  stats.route = PlaneTag::kPrefix;
}

Selection run_exhaustive(const TotalsFn& totals, std::uint64_t num_seeds) {
  PDC_CHECK(num_seeds >= 1);
  Timer timer;
  SearchStats stats;
  Selection out = select_exhaustive(totals(num_seeds, stats));
  out.stats = stats;
  out.stats.wall_ms = timer.millis();
  return out;
}

std::vector<double> compute_totals_blocked(CostOracle& oracle,
                                           std::uint64_t num_seeds,
                                           std::size_t max_batch,
                                           bool use_analytic,
                                           SearchStats& stats,
                                           const EnumerateBlockFn& enumerate,
                                           const AnalyticBlockFn& analytic) {
  PDC_CHECK(max_batch >= 1);
  // begin_search invariants are prepared whenever the oracle is
  // analytic — even when routing enumerates (use_analytic == false):
  // AnalyticOracle's default enumerating fallback derives from
  // eval_analytic, which reads those invariants.
  AnalyticOracle* prepared = oracle.as_analytic();
  AnalyticOracle* an = use_analytic ? prepared : nullptr;
  std::vector<double> totals(num_seeds, 0.0);
  if (prepared != nullptr) prepared->begin_search(num_seeds);
  if (an != nullptr) ++stats.analytic.searches;
  stats.route = merge_tag(
      stats.route, an != nullptr ? PlaneTag::kAnalytic : PlaneTag::kEnumerating);
  for (std::uint64_t s0 = 0; s0 < num_seeds; s0 += max_batch) {
    const std::size_t block = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_batch, num_seeds - s0));
    if (an != nullptr) {
      analytic(s0, block, totals.data() + s0);
      ++stats.analytic.blocks;
      stats.analytic.formula_evals +=
          static_cast<std::uint64_t>(oracle.item_count()) * block;
    } else {
      std::vector<std::uint64_t> seeds(block);
      for (std::size_t k = 0; k < block; ++k) seeds[k] = s0 + k;
      enumerate(std::span<const std::uint64_t>(seeds), totals.data() + s0);
      ++stats.sweeps;
    }
    stats.evaluations += block;
    stats.batch = std::max<std::uint64_t>(stats.batch, block);
  }
  if (prepared != nullptr) prepared->end_search();
  return totals;
}

}  // namespace detail

SeedSearch::SeedSearch(CostOracle& oracle, SearchOptions opt)
    : oracle_(&oracle), opt_(opt) {}

std::vector<double> SeedSearch::compute_totals(std::uint64_t num_seeds,
                                               SearchStats& stats) {
  const std::size_t items = oracle_->item_count();
  const std::size_t max_batch = resolve_max_batch(opt_, items);
  return detail::compute_totals_blocked(
      *oracle_, num_seeds, max_batch, opt_.use_analytic, stats,
      [&](std::span<const std::uint64_t> seeds, double* out) {
        oracle_->begin_sweep(seeds);
        if (items == 1) {
          // Opaque objective: the only parallelism available is over
          // seeds (the legacy SeedCostFn contract).
          parallel_for(seeds.size(), [&](std::size_t k) {
            out[k] = oracle_->cost(seeds[k], 0);
          });
        } else {
          // Item-major sweep: one parallel pass over the items scores
          // the whole seed block.
          parallel_accumulate(items, seeds.size(), out,
                              [&](std::size_t item, double* sink) {
                                oracle_->eval_batch(seeds, item, sink);
                              });
        }
        oracle_->end_sweep();
      },
      [&](std::uint64_t first, std::size_t count, double* out) {
        AnalyticOracle* an = oracle_->as_analytic();
        const bool batched = opt_.use_batched_members;
        if (items == 1) {
          parallel_for(count, [&](std::size_t k) {
            an->eval_analytic(first + k, 1, 0, out + k);
          });
        } else {
          // eval_members is the SIMD member-major entry point; its
          // default forwards to eval_analytic, and the exactness
          // contract keeps the totals bit-identical either way.
          parallel_accumulate(items, count, out,
                              [&](std::size_t item, double* sink) {
                                if (batched)
                                  an->eval_members(first, count, item, sink);
                                else
                                  an->eval_analytic(first, count, item, sink);
                              });
        }
      });
}

namespace {

void tag_shared_memory(Selection& sel) {
  sel.stats.backend =
      detail::merge_tag(sel.stats.backend, BackendTag::kSharedMemory);
}

}  // namespace

Selection SeedSearch::exhaustive(std::uint64_t num_seeds) {
  Selection out = detail::run_exhaustive(
      [this](std::uint64_t n, SearchStats& s) { return compute_totals(n, s); },
      num_seeds);
  tag_shared_memory(out);
  return out;
}

Selection SeedSearch::prefix_walk(int seed_bits) {
  PDC_CHECK(seed_bits >= 1 && seed_bits <= 30);
  PrefixOracle* po = opt_.use_prefix ? oracle_->as_prefix() : nullptr;
  Selection out;
  if (po == nullptr) {
    // Reference semantics: the identical walk over a full totals pass
    // (analytic or enumerating per SearchOptions::use_analytic).
    out = detail::run_prefix_walk_totals(
        [this](std::uint64_t n, SearchStats& s) {
          return compute_totals(n, s);
        },
        seed_bits);
  } else {
    Timer timer;
    const std::size_t items = oracle_->item_count();
    po->begin_walk(seed_bits);
    out = detail::run_prefix_walk_oracle(
        seed_bits,
        [&](std::uint64_t child0, int fixed, const MemberSubgrid& sub0,
            const MemberSubgrid& sub1, bool need_both, double* sums) {
          parallel_accumulate(items, need_both ? 2 : 1, sums,
                              [&](std::size_t item, double* sink) {
                                sink[0] += po->eval_prefix(child0, fixed,
                                                           item, sub0);
                                if (need_both)
                                  sink[1] += po->eval_prefix(
                                      child0 | 1, fixed, item, sub1);
                              });
        });
    detail::stamp_prefix_walk(out.stats, seed_bits, po->junta_evals());
    po->end_walk();
    out.stats.wall_ms = timer.millis();
  }
  tag_shared_memory(out);
  return out;
}

double evaluate_seed(CostOracle& oracle, std::uint64_t seed,
                     SearchStats* stats) {
  Timer timer;
  const std::uint64_t seeds[1] = {seed};
  std::span<const std::uint64_t> sp(seeds);
  // Analytic oracles' enumerating fallback reads begin_search
  // invariants; prepare them for this one-seed evaluation too.
  AnalyticOracle* an = oracle.as_analytic();
  if (an != nullptr) an->begin_search(seed + 1);
  oracle.begin_sweep(sp);
  double total = 0.0;
  const std::size_t items = oracle.item_count();
  if (items == 1) {
    total = oracle.cost(seed, 0);
  } else {
    parallel_accumulate(items, 1, &total,
                        [&](std::size_t item, double* sink) {
                          oracle.eval_batch(sp, item, sink);
                        });
  }
  oracle.end_sweep();
  if (an != nullptr) an->end_search();
  if (stats) {
    ++stats->sweeps;
    ++stats->evaluations;
    stats->batch = std::max<std::uint64_t>(stats->batch, 1);
    stats->wall_ms += timer.millis();
  }
  return total;
}

}  // namespace pdc::engine
