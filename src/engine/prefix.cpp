#include "pdc/engine/prefix.hpp"

#include <algorithm>

#include "pdc/util/check.hpp"

namespace pdc::engine {

void PrefixOracle::begin_walk(int bits) {
  PDC_CHECK(bits >= 1 && bits <= bit_count());
  walk_bits_ = bits;
  walk_members_ = 1ULL << bits;
  junta_evals_.store(0, std::memory_order_relaxed);
  begin_search(walk_members_);

  const std::size_t items = item_count();
  is_const_.assign(items, 0);
  const_cost_.assign(items, 0.0);
  cum_.assign(items, {});
  constant_items_ = 0;
  max_junta_ = 0;
  for (std::size_t i = 0; i < items; ++i) {
    max_junta_ = std::max(max_junta_, junta_size(i));
    if (std::optional<double> c = constant_cost(i)) {
      is_const_[i] = 1;
      const_cost_[i] = *c;
      ++constant_items_;
    }
  }

  // The default eval_prefix materializes one (members + 1)-entry
  // cumulative array per NON-constant item — O(active x members)
  // doubles, unlike the totals routes' single members-wide vector.
  // Refuse footprints past ~2 GiB instead of silently exhausting
  // memory; larger walks need an eval_prefix override or
  // SearchOptions::use_prefix = false. Counted after classification so
  // seed-constant items — which never allocate — don't disqualify an
  // otherwise affordable walk.
  constexpr std::uint64_t kMaxCacheEntries = 1ULL << 28;
  const std::uint64_t active = items - constant_items_;
  PDC_CHECK_MSG(active * walk_members_ <= kMaxCacheEntries,
                "prefix walk: default per-item completion caches would need "
                    << active << " x " << walk_members_
                    << " doubles; override eval_prefix or set "
                       "SearchOptions::use_prefix = false");
}

void PrefixOracle::end_walk() {
  is_const_.clear();
  const_cost_.clear();
  cum_.clear();
  walk_bits_ = 0;
  walk_members_ = 0;
  end_search();
}

double PrefixOracle::eval_prefix([[maybe_unused]] std::uint64_t prefix,
                                 [[maybe_unused]] int bits_fixed,
                                 std::size_t item,
                                 const MemberSubgrid& subgrid) const {
  PDC_ASSERT(bits_fixed >= 1 && bits_fixed <= walk_bits_);
  PDC_ASSERT(subgrid.first ==
             prefix << static_cast<unsigned>(walk_bits_ - bits_fixed));
  PDC_ASSERT(subgrid.count == walk_members_ >> bits_fixed);
  if (is_const_[item])
    return const_cost_[item] * static_cast<double>(subgrid.count);
  std::vector<double>& cum = cum_[item];
  if (cum.empty()) {
    // First touch: materialize the item's completion sums — one junta
    // evaluation per member, the only formula work this item ever pays.
    // Filled through eval_members (the SIMD member-major entry point);
    // its exactness contract keeps the cumulative sums bit-identical
    // to a scalar eval_analytic fill.
    const std::size_t m = static_cast<std::size_t>(walk_members_);
    std::vector<double> costs(m, 0.0);
    eval_members(0, m, item, costs.data());
    junta_evals_.fetch_add(m, std::memory_order_relaxed);
    cum.resize(m + 1);
    cum[0] = 0.0;
    for (std::size_t j = 0; j < m; ++j) cum[j + 1] = cum[j] + costs[j];
  }
  return cum[subgrid.first + subgrid.count] - cum[subgrid.first];
}

}  // namespace pdc::engine
