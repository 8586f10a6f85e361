#include "pdc/engine/sharded/sharded_search.hpp"

#include <algorithm>
#include <cmath>

#include "pdc/engine/analytic.hpp"
#include "pdc/engine/prefix.hpp"
#include "pdc/engine/sharded/converge_cast.hpp"
#include "pdc/util/check.hpp"
#include "pdc/util/timer.hpp"

namespace pdc::engine::sharded {

namespace {

/// Restores the ledger's phase on scope exit, so a throwing capacity
/// check mid-search cannot leave later rounds misattributed to
/// "seed-search(sharded)".
class PhaseGuard {
 public:
  explicit PhaseGuard(mpc::Ledger& ledger)
      : ledger_(&ledger), saved_(ledger.phase()) {}
  ~PhaseGuard() { ledger_->begin_phase(saved_); }
  PhaseGuard(const PhaseGuard&) = delete;
  PhaseGuard& operator=(const PhaseGuard&) = delete;

 private:
  mpc::Ledger* ledger_;
  std::string saved_;
};

}  // namespace

ShardedOracle::ShardedOracle(CostOracle& oracle, const ShardPlan& plan,
                             int frac_bits, bool use_batched_members)
    : oracle_(&oracle), plan_(&plan), frac_bits_(frac_bits),
      use_batched_members_(use_batched_members) {
  PDC_CHECK(frac_bits >= 0 && frac_bits <= 32);
}

std::int64_t ShardedOracle::encode(double cost) const {
  return static_cast<std::int64_t>(
      std::llround(std::ldexp(cost, frac_bits_)));
}

std::int64_t ShardedOracle::encode_checked(double cost) const {
  const std::int64_t fixed = encode(cost);
  // The bit-identical-Selection guarantee rests on this conversion
  // being lossless. Cannot throw here (parallel machine step); the
  // flag surfaces as a PDC_CHECK after the sweep.
  if (std::ldexp(static_cast<double>(fixed), -frac_bits_) != cost)
    off_grid_.store(true, std::memory_order_relaxed);
  return fixed;
}

double ShardedOracle::decode(std::int64_t fixed) const {
  return std::ldexp(static_cast<double>(fixed), -frac_bits_);
}

void ShardedOracle::eval_shard(mpc::MachineId m,
                               std::span<const std::uint64_t> seeds,
                               std::int64_t* sink) const {
  if (oracle_->item_count() == 1) {
    // Opaque objective: shard the seed block instead of the items.
    const mpc::MachineId p = plan_->num_machines();
    for (std::size_t k = m; k < seeds.size(); k += p)
      sink[k] += encode_checked(oracle_->cost(seeds[k], 0));
    return;
  }
  std::vector<double> buf(seeds.size());
  for (std::uint32_t item : plan_->items_of(m)) {
    // Per-item encode keeps the shard sum an exact integer sum: the
    // order machines and items fold in can never change the total.
    std::fill(buf.begin(), buf.end(), 0.0);
    oracle_->eval_batch(seeds, item, buf.data());
    for (std::size_t k = 0; k < seeds.size(); ++k)
      sink[k] += encode_checked(buf[k]);
  }
}

void ShardedOracle::eval_shard_analytic(mpc::MachineId m, std::uint64_t first,
                                        std::size_t count,
                                        std::int64_t* sink) const {
  const AnalyticOracle* an = oracle_->as_analytic();
  PDC_CHECK_MSG(an != nullptr,
                "eval_shard_analytic on a non-analytic oracle");
  if (oracle_->item_count() == 1) {
    // Opaque objective: shard the member block instead of the items.
    const mpc::MachineId p = plan_->num_machines();
    for (std::size_t k = m; k < count; k += p) {
      double c = 0.0;
      an->eval_analytic(first + k, 1, 0, &c);
      sink[k] += encode_checked(c);
    }
    return;
  }
  std::vector<double> buf(count);
  for (std::uint32_t item : plan_->items_of(m)) {
    // Per-item encode keeps the shard sum an exact integer sum, exactly
    // as in the enumerating eval_shard. eval_members is the SIMD
    // member-major entry point; its exactness contract keeps the
    // fixed-point partials bit-identical to the scalar path.
    std::fill(buf.begin(), buf.end(), 0.0);
    if (use_batched_members_)
      an->eval_members(first, count, item, buf.data());
    else
      an->eval_analytic(first, count, item, buf.data());
    for (std::size_t k = 0; k < count; ++k)
      sink[k] += encode_checked(buf[k]);
  }
}

void ShardedOracle::eval_shard_prefix(mpc::MachineId m, std::uint64_t prefix,
                                      int bits_fixed,
                                      const MemberSubgrid& subgrid,
                                      std::int64_t* sink) const {
  const PrefixOracle* po = oracle_->as_prefix();
  PDC_CHECK_MSG(po != nullptr, "eval_shard_prefix on a non-prefix oracle");
  // Per-item encode keeps the shard sum an exact integer sum, exactly
  // as in the enumerating and analytic shard paths. (Opaque one-item
  // oracles need no special case here: item 0 homes on machine 0.)
  for (std::uint32_t item : plan_->items_of(m))
    sink[0] += encode_checked(po->eval_prefix(prefix, bits_fixed,
                                              item, subgrid));
}

std::uint64_t ShardedOracle::max_machine_load(std::size_t block) const {
  if (oracle_->item_count() == 1) {
    const mpc::MachineId p = plan_->num_machines();
    return (block + p - 1) / p;
  }
  return plan_->max_load();
}

ShardedSeedSearch::ShardedSeedSearch(CostOracle& oracle,
                                     mpc::Cluster& cluster,
                                     ShardedOptions opt)
    : oracle_(&oracle), cluster_(&cluster), opt_(opt),
      plan_(ShardPlan::make(oracle.item_count(), cluster.config())),
      adapter_(oracle, plan_, opt.frac_bits,
               opt.search.use_batched_members) {}

std::vector<double> ShardedSeedSearch::compute_totals(std::uint64_t num_seeds,
                                                      SearchStats& stats) {
  const mpc::Config& cfg = cluster_->config();
  // A fold-round parent holds its own partial plus at least one
  // child's (fan-in 2 minimum), so one block's fixed-point totals may
  // occupy at most half a machine's local space.
  std::size_t max_batch = resolve_max_batch(opt_.search,
                                            oracle_->item_count());
  max_batch = std::min<std::size_t>(
      max_batch, static_cast<std::size_t>(cfg.local_space_words / 2));
  PDC_CHECK(max_batch >= 1);

  mpc::Ledger& ledger = cluster_->ledger();
  PhaseGuard restore_phase(ledger);
  ledger.begin_phase("seed-search(sharded)");

  // Shared converge-cast step for both block paths: run `score` on
  // every machine, fold the fixed-point partials up the tree, decode
  // into `out`, and account the substrate work.
  auto cast_block =
      [&](std::size_t block, double* out,
          const std::function<void(mpc::MachineId, std::int64_t*)>& score) {
        const std::uint32_t fan_in =
            opt_.fan_in ? opt_.fan_in : pick_fan_in(cfg, block);
        ConvergeCastStats cc;
        std::vector<std::int64_t> fixed =
            converge_cast_sum(*cluster_, block, fan_in, score, &cc);
        for (std::size_t k = 0; k < block; ++k)
          out[k] = adapter_.decode(fixed[k]);
        stats.sharded.rounds += cc.rounds;
        stats.sharded.words += cc.payload_words;
        stats.sharded.max_machine_load =
            std::max(stats.sharded.max_machine_load,
                     adapter_.max_machine_load(block));
      };
  // The bit-identical-Selection guarantee rests on the fixed-point
  // encode being lossless; the adapter records violations during the
  // parallel machine steps and this raises them host-side per block.
  auto check_on_grid = [&] {
    PDC_CHECK_MSG(!adapter_.saw_off_grid_cost(),
                  "oracle produced a cost not representable on the 2^-"
                  << opt_.frac_bits << " fixed-point grid; raise "
                  "ShardedOptions::frac_bits or keep costs integral");
  };

  return detail::compute_totals_blocked(
      *oracle_, num_seeds, max_batch, opt_.search.use_analytic, stats,
      [&](std::span<const std::uint64_t> seeds, double* out) {
        adapter_.begin_sweep(seeds);
        cast_block(seeds.size(), out,
                   [&](mpc::MachineId m, std::int64_t* sink) {
                     adapter_.eval_shard(m, seeds, sink);
                   });
        adapter_.end_sweep();
        check_on_grid();
      },
      [&](std::uint64_t first, std::size_t count, double* out) {
        cast_block(count, out, [&](mpc::MachineId m, std::int64_t* sink) {
          adapter_.eval_shard_analytic(m, first, count, sink);
        });
        check_on_grid();
      });
}

Selection ShardedSeedSearch::exhaustive(std::uint64_t num_seeds) {
  Selection out = detail::run_exhaustive(
      [this](std::uint64_t n, SearchStats& s) { return compute_totals(n, s); },
      num_seeds);
  out.stats.backend = detail::merge_tag(out.stats.backend,
                                        BackendTag::kSharded);
  return out;
}

Selection ShardedSeedSearch::prefix_walk(int seed_bits) {
  PDC_CHECK(seed_bits >= 1 && seed_bits <= 30);
  PrefixOracle* po =
      opt_.search.use_prefix ? oracle_->as_prefix() : nullptr;
  if (po == nullptr) {
    // Reference semantics: the identical walk over a full sharded
    // totals pass (analytic or enumerating per use_analytic).
    Selection out = detail::run_prefix_walk_totals(
        [this](std::uint64_t n, SearchStats& s) {
          return compute_totals(n, s);
        },
        seed_bits);
    out.stats.backend = detail::merge_tag(out.stats.backend,
                                          BackendTag::kSharded);
    return out;
  }

  Timer timer;
  SearchStats stats;
  const mpc::Config& cfg = cluster_->config();
  mpc::Ledger& ledger = cluster_->ledger();
  PhaseGuard restore_phase(ledger);
  ledger.begin_phase("seed-search(prefix)");

  po->begin_walk(seed_bits);
  Selection out = detail::run_prefix_walk_oracle(
      seed_bits,
      [&](std::uint64_t child0, int fixed, const MemberSubgrid& sub0,
          const MemberSubgrid& sub1, bool need_both, double* sums) {
        // One cast of a single branch-sum word per step (two on the
        // first step) — O(bits) cast volume per walk, the junta-fooling
        // analogue of the totals routes' O(members)-word casts.
        const std::size_t width = need_both ? 2 : 1;
        const std::uint32_t fan_in =
            opt_.fan_in ? opt_.fan_in : pick_fan_in(cfg, width);
        ConvergeCastStats cc;
        std::vector<std::int64_t> fixed_sums = converge_cast_sum(
            *cluster_, width, fan_in,
            [&](mpc::MachineId m, std::int64_t* sink) {
              adapter_.eval_shard_prefix(m, child0, fixed, sub0, sink);
              if (need_both)
                adapter_.eval_shard_prefix(m, child0 | 1, fixed, sub1,
                                           sink + 1);
            },
            &cc);
        for (std::size_t k = 0; k < width; ++k)
          sums[k] = adapter_.decode(fixed_sums[k]);
        stats.sharded.rounds += cc.rounds;
        stats.sharded.words += cc.payload_words;
        stats.sharded.max_machine_load =
            std::max(stats.sharded.max_machine_load, plan_.max_load());
        PDC_CHECK_MSG(!adapter_.saw_off_grid_cost(),
                      "prefix walk produced a cost not representable on "
                      "the 2^-" << opt_.frac_bits << " fixed-point grid");
      });
  detail::stamp_prefix_walk(stats, seed_bits, po->junta_evals());
  stats.backend = BackendTag::kSharded;
  po->end_walk();
  out.stats = stats;
  out.stats.wall_ms = timer.millis();
  return out;
}

}  // namespace pdc::engine::sharded
