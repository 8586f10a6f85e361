#include "pdc/hknt/procedures.hpp"

#include <algorithm>

#include "pdc/util/aligned.hpp"
#include "pdc/util/parallel.hpp"
#include "pdc/util/simd.hpp"

namespace pdc::hknt {

namespace post {

std::uint32_t degree(const ColoringState& s, const ProcedureRun& r,
                     NodeId v) {
  std::uint32_t d = 0;
  for (NodeId u : s.graph().neighbors(v)) {
    if (s.is_colored(u) || s.is_deferred(u)) continue;
    if (s.participates(u) && r.proposed[u] != kNoColor) continue;  // colors now
    ++d;
  }
  return d;
}

std::uint32_t available(const ColoringState& s, const ProcedureRun& r,
                        NodeId v) {
  auto pal = s.palettes().palette(v);
  std::vector<Color> blocked;
  for (NodeId u : s.graph().neighbors(v)) {
    if (s.is_colored(u)) {
      blocked.push_back(s.color(u));
    } else if (s.participates(u) && r.proposed[u] != kNoColor) {
      blocked.push_back(r.proposed[u]);
    }
  }
  std::sort(blocked.begin(), blocked.end());
  blocked.erase(std::unique(blocked.begin(), blocked.end()), blocked.end());
  std::uint32_t cnt = 0;
  for (Color c : pal)
    if (!std::binary_search(blocked.begin(), blocked.end(), c)) ++cnt;
  return cnt;
}

}  // namespace post

namespace {

bool degree_exempt(const HkntConfig& cfg, const ColoringState& s, NodeId v) {
  return s.graph().degree(v) < cfg.low_degree(s.num_nodes());
}

// ---------------------------------------------------- estimators (Lemma 10)
//
// Shared shape of the trial/slack estimators: a counted node (one whose
// SSP failure the Lemma-10 objective can register) fails only if it
// stays uncolored, and it stays uncolored only when its local draw is
// empty or every drawn color collides with a participating neighbor's
// draw — so the pairwise-collision count over the node's closed
// neighborhood dominates the failure indicator pointwise. prepare()
// caches the seed-independent invariants (participation, availability
// lists, counted classification) and replays each node's local draws
// once per family member into flat tables (machine-local work after
// the Lemma-10 ball gather — no conflict resolution, no ProcedureRun);
// term() is then pure table arithmetic, and every term is an integer,
// which keeps the sharded fixed-point encode exact.

class LocalDrawEstimator : public derand::PessimisticEstimator {
 public:
  void prepare(const derand::EstimatorContext& ctx) override {
    derand::PessimisticEstimator::prepare(ctx);
    const ColoringState& s = *ctx.state;
    const NodeId n = s.num_nodes();
    part_.assign(n, 0);
    counted_.assign(n, 0);
    has_active_nbr_.assign(n, 0);
    avail_.assign(n, {});
    parallel_for(n, [&](std::size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      if (!s.participates(v)) return;
      part_[v] = 1;
      avail_[v] = s.available_colors(v);
      counted_[v] = counts(s, v) ? 1 : 0;
    });
    parallel_for(n, [&](std::size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      for (NodeId u : s.graph().neighbors(v)) {
        if (part_[u]) {
          has_active_nbr_[v] = 1;
          break;
        }
      }
    });
    build_tables(s);
  }

  void release() override {
    part_.clear();
    counted_.clear();
    has_active_nbr_.clear();
    avail_.clear();
    clear_tables();
    derand::PessimisticEstimator::release();
  }

  std::optional<double> constant_term(NodeId v) const override {
    if (!counted_[v]) return 0.0;
    // Empty availability: the draw is always empty, the node always
    // stays uncolored — the term is identically 1.
    if (avail_[v].empty()) return 1.0;
    // No participating neighbor: nothing to collide with; procedures
    // whose draw alone decides (Try / MultiTrial) always color the
    // node. GenerateSlack still flips its sampling coin, so its term
    // varies with the seed.
    if (!has_active_nbr_[v] && colored_when_unopposed()) return 0.0;
    return std::nullopt;
  }

  std::size_t junta_size(NodeId v) const override {
    if (!counted_[v]) return 0;
    return derand::PessimisticEstimator::junta_size(v);
  }

 protected:
  /// Does the Lemma-10 objective count this node's SSP failure at all?
  virtual bool counts(const ColoringState& s, NodeId v) const = 0;
  /// True when a counted node with a non-empty draw and no
  /// participating neighbor is guaranteed to color itself.
  virtual bool colored_when_unopposed() const { return true; }
  /// Fill the per-member draw tables (ctx() is valid).
  virtual void build_tables(const ColoringState& s) = 0;
  virtual void clear_tables() = 0;

  /// Member m's chunk-routed stream for node v — exactly the stream
  /// simulate() reads through the ChunkedSource.
  BitStream node_stream(std::uint64_t member, NodeId v) const {
    prg::PrgFamily::Source src = ctx().family->source(member);
    return src.stream(v, (*ctx().chunk_of)[v]);
  }

  /// Guard against absurd table footprints (estimator searches are
  /// meant for the enumerable Lemma-10 seed spaces). Shares
  /// derand::kMaxEstimatorTableEntries with the SoaTable builder, which
  /// re-checks the padded footprint at reset time.
  void check_table_budget(std::uint64_t entries_per_member) const {
    PDC_CHECK_MSG(ctx().num_members * entries_per_member <=
                      derand::kMaxEstimatorTableEntries,
                  "estimator draw tables would need "
                      << ctx().num_members << " x " << entries_per_member
                      << " entries; use fewer seed bits or "
                         "EstimatorMode::kOff");
  }

  std::vector<std::uint8_t> part_;
  std::vector<std::uint8_t> counted_;
  std::vector<std::uint8_t> has_active_nbr_;
  std::vector<std::vector<Color>> avail_;
};

/// TryRandomColor: term = [draw empty] + #{participating neighbors
/// drawing v's color}. Failure => v uncolored => empty draw or >= 1
/// collision => term >= 1. Ssp::kNone counts nothing (all-zero
/// objective, the search is vacuously free).
class TryRandomColorEstimator final : public LocalDrawEstimator {
 public:
  TryRandomColorEstimator(const HkntConfig& cfg, TryRandomColorProc::Ssp ssp)
      : cfg_(cfg), ssp_(ssp) {}

  double term(std::uint64_t member, NodeId v) const override {
    if (!counted_[v]) return 0.0;
    const Color pv = pick_.row(v)[member];
    if (pv == kNoColor) return 1.0;
    double t = 0.0;
    for (NodeId u : ctx().state->graph().neighbors(v))
      if (pick_.row(u)[member] == pv) t += 1.0;
    return t;
  }

  void term_batch(std::uint64_t first, std::size_t count, NodeId v,
                  double* sink) const override {
    if (!counted_[v]) return;
    const Color* pv = pick_.row(v) + first;
    static thread_local util::aligned_vector<std::uint32_t> acc;
    acc.assign(count, 0);
    for (NodeId u : ctx().state->graph().neighbors(v)) {
      const Color* pu = pick_.row(u) + first;
      PDC_PRAGMA_SIMD
      for (std::size_t j = 0; j < count; ++j) acc[j] += (pu[j] == pv[j]);
    }
    // acc counts kNoColor == kNoColor matches too, but those lanes take
    // the empty-draw branch — exactly term()'s ordering.
    for (std::size_t j = 0; j < count; ++j)
      sink[j] += (pv[j] == kNoColor) ? 1.0 : static_cast<double>(acc[j]);
  }

  double term_from_source(const ColoringState& s,
                          const prg::BitSourceFactory& bits,
                          NodeId v) const override {
    if (ssp_ == TryRandomColorProc::Ssp::kNone) return 0.0;
    if (!s.participates(v) || degree_exempt(cfg_, s, v)) return 0.0;
    BitStream bv = bits.stream(v, 0);
    const Color pv = s.sample_available(v, bv);
    if (pv == kNoColor) return 1.0;
    double t = 0.0;
    for (NodeId u : s.graph().neighbors(v)) {
      if (!s.participates(u)) continue;
      BitStream bu = bits.stream(u, 0);
      if (s.sample_available(u, bu) == pv) t += 1.0;
    }
    return t;
  }

 protected:
  bool counts(const ColoringState& s, NodeId v) const override {
    return ssp_ != TryRandomColorProc::Ssp::kNone &&
           !degree_exempt(cfg_, s, v);
  }

  void build_tables(const ColoringState&) override {
    const NodeId n = static_cast<NodeId>(part_.size());
    check_table_budget(n);
    // Node-major structure of arrays: row v holds v's pick under every
    // member, so term_batch streams contiguous per-member runs.
    pick_.reset(n, ctx().num_members, kNoColor,
                derand::kMaxEstimatorTableEntries, "TryRandomColor picks");
    parallel_for(n, [&](std::size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      if (!part_[v] || avail_[v].empty()) return;
      Color* row = pick_.row(v);
      for (std::uint64_t m = 0; m < ctx().num_members; ++m) {
        BitStream bs = node_stream(m, v);
        row[m] = avail_[v][bs.below(avail_[v].size())];
      }
    });
  }
  void clear_tables() override { pick_.clear(); }

 private:
  HkntConfig cfg_;
  TryRandomColorProc::Ssp ssp_;
  util::SoaTable<Color> pick_;  // row v = member-major picks; kNoColor = none
};

/// GenerateSlack: term = [not sampled] + [sampled, draw empty] +
/// #{sampled participating neighbors drawing v's color}. Failure =>
/// v proposed nothing => one of the three events => term >= 1.
class GenerateSlackEstimator final : public LocalDrawEstimator {
 public:
  explicit GenerateSlackEstimator(const HkntConfig& cfg) : cfg_(cfg) {}

  double term(std::uint64_t member, NodeId v) const override {
    if (!counted_[v]) return 0.0;
    if (!sampled_.row(v)[member]) return 1.0;
    const Color pv = pick_.row(v)[member];
    if (pv == kNoColor) return 1.0;
    double t = 0.0;
    for (NodeId u : ctx().state->graph().neighbors(v))
      if (pick_.row(u)[member] == pv) t += 1.0;
    return t;
  }

  void term_batch(std::uint64_t first, std::size_t count, NodeId v,
                  double* sink) const override {
    if (!counted_[v]) return;
    const std::uint8_t* sv = sampled_.row(v) + first;
    const Color* pv = pick_.row(v) + first;
    static thread_local util::aligned_vector<std::uint32_t> acc;
    acc.assign(count, 0);
    for (NodeId u : ctx().state->graph().neighbors(v)) {
      const Color* pu = pick_.row(u) + first;
      PDC_PRAGMA_SIMD
      for (std::size_t j = 0; j < count; ++j) acc[j] += (pu[j] == pv[j]);
    }
    // Unsampled neighbors hold kNoColor, which never matches a real
    // pick; lanes where v itself is unsampled or drew nothing take the
    // constant-1 branch — term()'s ordering exactly.
    for (std::size_t j = 0; j < count; ++j)
      sink[j] += (!sv[j] || pv[j] == kNoColor) ? 1.0
                                               : static_cast<double>(acc[j]);
  }

  double term_from_source(const ColoringState& s,
                          const prg::BitSourceFactory& bits,
                          NodeId v) const override {
    if (!s.participates(v) || degree_exempt(cfg_, s, v)) return 0.0;
    BitStream bv = bits.stream(v, 0);
    if (!bv.coin(cfg_.sample_num, cfg_.sample_den)) return 1.0;
    const Color pv = s.sample_available(v, bv);
    if (pv == kNoColor) return 1.0;
    double t = 0.0;
    for (NodeId u : s.graph().neighbors(v)) {
      if (!s.participates(u)) continue;
      BitStream bu = bits.stream(u, 0);
      if (!bu.coin(cfg_.sample_num, cfg_.sample_den)) continue;
      if (s.sample_available(u, bu) == pv) t += 1.0;
    }
    return t;
  }

 protected:
  bool counts(const ColoringState& s, NodeId v) const override {
    return !degree_exempt(cfg_, s, v);
  }
  bool colored_when_unopposed() const override { return false; }

  void build_tables(const ColoringState&) override {
    const NodeId n = static_cast<NodeId>(part_.size());
    check_table_budget(n);
    sampled_.reset(n, ctx().num_members, 0, derand::kMaxEstimatorTableEntries,
                   "GenerateSlack sampling");
    pick_.reset(n, ctx().num_members, kNoColor,
                derand::kMaxEstimatorTableEntries, "GenerateSlack picks");
    parallel_for(n, [&](std::size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      if (!part_[v]) return;
      std::uint8_t* srow = sampled_.row(v);
      Color* prow = pick_.row(v);
      for (std::uint64_t m = 0; m < ctx().num_members; ++m) {
        BitStream bs = node_stream(m, v);
        if (!bs.coin(cfg_.sample_num, cfg_.sample_den)) continue;
        srow[m] = 1;
        if (!avail_[v].empty())
          prow[m] = avail_[v][bs.below(avail_[v].size())];
      }
    });
  }
  void clear_tables() override {
    sampled_.clear();
    pick_.clear();
  }

 private:
  HkntConfig cfg_;
  util::SoaTable<std::uint8_t> sampled_;  // row v = member-major coin flips
  util::SoaTable<Color> pick_;  // row v = member-major picks; kNoColor if none
};

/// MultiTrial(x): term = [no draws] + ceil(#{(c, u) collisions} / k_v)
/// with k_v = |v's draws| (seed-independent: min(x, |avail|)). Failure
/// => v uncolored => every draw clashes with some participating
/// neighbor => the collision count reaches k_v => term >= 1. The
/// ceil-division keeps the term integer (sharded-grid exact) while
/// staying k_v times tighter than the raw pair count.
class MultiTrialEstimator final : public LocalDrawEstimator {
 public:
  MultiTrialEstimator(const HkntConfig& cfg, std::uint32_t x)
      : cfg_(cfg), x_(x) {}

  double term(std::uint64_t member, NodeId v) const override {
    if (!counted_[v]) return 0.0;
    const std::uint32_t kv = k_[v];
    if (kv == 0) return 1.0;
    std::uint64_t s = 0;
    for (std::uint32_t i = 0; i < kv; ++i) {
      const Color c = picks_.row(off_[v] + i)[member];
      for (NodeId u : ctx().state->graph().neighbors(v)) {
        const std::uint32_t ku = k_[u];
        if (ku == 0) continue;  // non-participant or empty draw
        // Draws are distinct, so the membership scan counts at most one
        // hit per (i, u) — same as the binary search it replaces.
        for (std::uint32_t t = 0; t < ku; ++t) {
          if (picks_.row(off_[u] + t)[member] == c) {
            ++s;
            break;
          }
        }
      }
    }
    return static_cast<double>((s + kv - 1) / kv);
  }

  void term_batch(std::uint64_t first, std::size_t count, NodeId v,
                  double* sink) const override {
    if (!counted_[v]) return;
    const std::uint32_t kv = k_[v];
    if (kv == 0) {
      for (std::size_t j = 0; j < count; ++j) sink[j] += 1.0;
      return;
    }
    static thread_local util::aligned_vector<std::uint32_t> s;
    static thread_local util::aligned_vector<std::uint8_t> eq;
    s.assign(count, 0);
    for (std::uint32_t i = 0; i < kv; ++i) {
      const Color* pv = picks_.row(off_[v] + i) + first;
      for (NodeId u : ctx().state->graph().neighbors(v)) {
        const std::uint32_t ku = k_[u];
        if (ku == 0) continue;
        eq.assign(count, 0);
        for (std::uint32_t t = 0; t < ku; ++t) {
          const Color* pu = picks_.row(off_[u] + t) + first;
          PDC_PRAGMA_SIMD
          for (std::size_t j = 0; j < count; ++j) eq[j] |= (pu[j] == pv[j]);
        }
        PDC_PRAGMA_SIMD
        for (std::size_t j = 0; j < count; ++j) s[j] += eq[j];
      }
    }
    for (std::size_t j = 0; j < count; ++j)
      sink[j] += static_cast<double>((s[j] + kv - 1) / kv);
  }

  double term_from_source(const ColoringState& st,
                          const prg::BitSourceFactory& bits,
                          NodeId v) const override {
    if (!st.participates(v) || degree_exempt(cfg_, st, v)) return 0.0;
    BitStream bv = bits.stream(v, 0);
    const std::vector<Color> pv = st.sample_available_distinct(v, x_, bv);
    if (pv.empty()) return 1.0;
    std::uint64_t s = 0;
    for (NodeId u : st.graph().neighbors(v)) {
      if (!st.participates(u)) continue;
      BitStream bu = bits.stream(u, 0);
      const std::vector<Color> pu = st.sample_available_distinct(u, x_, bu);
      for (Color c : pv)
        if (std::binary_search(pu.begin(), pu.end(), c)) ++s;
    }
    const std::uint64_t kv = pv.size();
    return static_cast<double>((s + kv - 1) / kv);
  }

 protected:
  bool counts(const ColoringState& s, NodeId v) const override {
    return !degree_exempt(cfg_, s, v);
  }

  void build_tables(const ColoringState& /*s*/) override {
    const NodeId n = static_cast<NodeId>(part_.size());
    off_.assign(n, 0);
    k_.assign(n, 0);
    total_k_ = 0;
    for (NodeId v = 0; v < n; ++v) {
      off_[v] = static_cast<std::uint32_t>(total_k_);
      if (part_[v]) {
        k_[v] = static_cast<std::uint32_t>(
            std::min<std::size_t>(x_, avail_[v].size()));
        total_k_ += k_[v];
      }
    }
    check_table_budget(total_k_);
    // Node-major structure of arrays: row off_[v] + i holds v's i-th
    // (sorted) draw under every member.
    picks_.reset(static_cast<std::size_t>(total_k_), ctx().num_members,
                 kNoColor, derand::kMaxEstimatorTableEntries,
                 "MultiTrial picks");
    parallel_for(n, [&](std::size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      const std::uint32_t kv = k_[v];
      if (kv == 0) return;
      std::vector<Color> scratch;
      for (std::uint64_t m = 0; m < ctx().num_members; ++m) {
        BitStream bs = node_stream(m, v);
        // Replay sample_available_distinct exactly: no bits consumed
        // when the whole list is taken, partial Fisher-Yates + sort
        // otherwise.
        if (avail_[v].size() <= x_) {
          for (std::uint32_t i = 0; i < kv; ++i)
            picks_.row(off_[v] + i)[m] = avail_[v][i];
          continue;
        }
        scratch = avail_[v];
        for (std::uint32_t i = 0; i < x_; ++i) {
          std::uint64_t j = i + bs.below(scratch.size() - i);
          std::swap(scratch[i], scratch[j]);
        }
        std::sort(scratch.begin(), scratch.begin() + kv);
        for (std::uint32_t i = 0; i < kv; ++i)
          picks_.row(off_[v] + i)[m] = scratch[i];
      }
    });
  }
  void clear_tables() override {
    off_.clear();
    k_.clear();
    picks_.clear();
    total_k_ = 0;
  }

 private:
  HkntConfig cfg_;
  std::uint32_t x_;
  std::vector<std::uint32_t> off_;  // node -> first row of its draw block
  std::vector<std::uint32_t> k_;    // node -> draws per member (fixed)
  std::uint64_t total_k_ = 0;
  util::SoaTable<Color> picks_;  // row off_[v]+i = member-major i-th draws
};

}  // namespace

std::unique_ptr<derand::PessimisticEstimator> TryRandomColorProc::estimator()
    const {
  return std::make_unique<TryRandomColorEstimator>(cfg_, ssp_);
}

std::unique_ptr<derand::PessimisticEstimator> GenerateSlackProc::estimator()
    const {
  return std::make_unique<GenerateSlackEstimator>(cfg_);
}

std::unique_ptr<derand::PessimisticEstimator> MultiTrialProc::estimator()
    const {
  return std::make_unique<MultiTrialEstimator>(cfg_, x_);
}

// ---------------------------------------------------------------- TryRandom

ProcedureRun TryRandomColorProc::simulate(
    const ColoringState& state, const prg::BitSourceFactory& bits) const {
  const NodeId n = state.num_nodes();
  ProcedureRun run(n);
  std::vector<Color> pick(n, kNoColor);
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v)) return;
    BitStream bs = bits.stream(v, 0);
    pick[v] = state.sample_available(v, bs);
  });
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v) || pick[v] == kNoColor) return;
    for (NodeId u : state.graph().neighbors(v)) {
      if (state.participates(u) && pick[u] == pick[v]) return;  // conflict
    }
    run.proposed[v] = pick[v];
  });
  return run;
}

bool TryRandomColorProc::ssp(const ColoringState& state,
                             const ProcedureRun& run, NodeId v) const {
  if (ssp_ == Ssp::kNone) return true;
  if (degree_exempt(cfg_, state, v)) return true;
  if (run.proposed[v] != kNoColor) return true;
  std::int64_t s = post::slack(state, run, v);
  std::int64_t d = post::degree(state, run, v);
  return s >= 2 * d;
}

// ------------------------------------------------------------ GenerateSlack

ProcedureRun GenerateSlackProc::simulate(
    const ColoringState& state, const prg::BitSourceFactory& bits) const {
  const NodeId n = state.num_nodes();
  ProcedureRun run(n);
  std::vector<Color> pick(n, kNoColor);
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v)) return;
    BitStream bs = bits.stream(v, 0);
    bool sampled = bs.coin(cfg_.sample_num, cfg_.sample_den);
    if (!sampled) return;
    run.aux[v] = 1;
    pick[v] = state.sample_available(v, bs);
  });
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (run.aux[v] != 1 || pick[v] == kNoColor) return;
    for (NodeId u : state.graph().neighbors(v)) {
      if (run.aux[u] == 1 && pick[u] == pick[v]) return;
    }
    run.proposed[v] = pick[v];
  });
  return run;
}

bool GenerateSlackProc::ssp(const ColoringState& state,
                            const ProcedureRun& run, NodeId v) const {
  if (degree_exempt(cfg_, state, v)) return true;
  if (run.proposed[v] != kNoColor) return true;
  double target =
      std::max(1.0, cfg_.slack_gen_fraction * params_->sparsity[v]);
  return static_cast<double>(post::slack(state, run, v)) >= target;
}

// --------------------------------------------------------------- MultiTrial

ProcedureRun MultiTrialProc::simulate(
    const ColoringState& state, const prg::BitSourceFactory& bits) const {
  const NodeId n = state.num_nodes();
  ProcedureRun run(n);
  std::vector<std::vector<Color>> picks(n);
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v)) return;
    BitStream bs = bits.stream(v, 0);
    picks[v] = state.sample_available_distinct(v, x_, bs);
  });
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v) || picks[v].empty()) return;
    for (Color c : picks[v]) {
      bool clash = false;
      for (NodeId u : state.graph().neighbors(v)) {
        if (state.participates(u) &&
            std::binary_search(picks[u].begin(), picks[u].end(), c)) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        run.proposed[v] = c;
        break;
      }
    }
  });
  return run;
}

bool MultiTrialProc::ssp(const ColoringState& state, const ProcedureRun& run,
                         NodeId v) const {
  if (degree_exempt(cfg_, state, v)) return true;
  if (run.proposed[v] != kNoColor) return true;
  if (final_) return false;  // last MultiTrial: success means colored
  double d = static_cast<double>(post::degree(state, run, v));
  double a = static_cast<double>(post::available(state, run, v));
  return d <= a / divisor_;
}

// ---------------------------------------------------------- SynchColorTrial

ProcedureRun SynchColorTrialProc::simulate(
    const ColoringState& state, const prg::BitSourceFactory& bits) const {
  const NodeId n = state.num_nodes();
  ProcedureRun run(n);
  std::vector<Color> candidate(n, kNoColor);

  parallel_for(acd_->num_cliques, [&](std::size_t ci) {
    const NodeId x = ds_->leader[ci];
    // The leader permutes its available palette with its own randomness
    // and hands out distinct colors; if the leader is already colored or
    // deferred, the clique sits this trial out (its inliers retry via
    // SlackColor / recursion).
    if (!state.participates(x)) return;
    auto avail = state.available_colors(x);
    if (avail.empty()) return;
    BitStream bs = bits.stream(x, 0);
    for (std::size_t i = 0; i + 1 < avail.size(); ++i) {
      std::uint64_t j = i + bs.below(avail.size() - i);
      std::swap(avail[i], avail[j]);
    }
    std::size_t next = 0;
    // Leader takes the first color, inliers the rest in member order.
    candidate[x] = avail[next++];
    for (NodeId v : acd_->cliques[ci]) {
      if (next >= avail.size()) break;
      if (v == x || !ds_->inlier[v] || ds_->put_aside[v]) continue;
      if (!state.participates(v)) continue;
      candidate[v] = avail[next++];
    }
  });

  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (candidate[v] == kNoColor) return;
    // Candidate must sit in v's own available palette (leader palettes
    // only resemble inlier palettes).
    auto mine = state.available_colors(v);
    if (!std::binary_search(mine.begin(), mine.end(), candidate[v])) return;
    // Cross-clique conflicts (within a clique candidates are distinct).
    for (NodeId u : state.graph().neighbors(v)) {
      if (candidate[u] == candidate[v] && u != v) return;
    }
    run.proposed[v] = candidate[v];
  });
  return run;
}

bool SynchColorTrialProc::ssp(const ColoringState& state,
                              const ProcedureRun& run, NodeId v) const {
  if (degree_exempt(cfg_, state, v)) return true;
  const std::uint32_t ci = acd_->clique_of[v];
  if (ci == static_cast<std::uint32_t>(-1)) return true;
  std::uint64_t failed = 0;
  for (NodeId u : acd_->cliques[ci]) {
    if (!ds_->inlier[u] || ds_->put_aside[u]) continue;
    if (!state.participates(u)) continue;
    if (run.proposed[u] == kNoColor) ++failed;
  }
  double bar = std::max(4.0, cfg_.sct_fail_factor * ds_->ell);
  return static_cast<double>(failed) <= bar;
}

// ------------------------------------------------------------------ PutAside

double PutAsideProc::sample_prob(const ColoringState& state,
                                 std::uint32_t clique) const {
  std::uint32_t delta_c = 1;
  for (NodeId v : acd_->cliques[clique])
    delta_c = std::max(delta_c, state.graph().degree(v));
  double p = ds_->ell * ds_->ell /
             (cfg_.put_aside_den * static_cast<double>(delta_c));
  return std::clamp(p, 0.0, 0.5);
}

ProcedureRun PutAsideProc::simulate(const ColoringState& state,
                                    const prg::BitSourceFactory& bits) const {
  const NodeId n = state.num_nodes();
  ProcedureRun run(n);
  std::vector<double> prob(acd_->num_cliques, 0.0);
  for (std::uint32_t c = 0; c < acd_->num_cliques; ++c) {
    if (ds_->low_slackability[c]) prob[c] = sample_prob(state, c);
  }
  // Sample S.
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (!state.participates(v)) return;
    const std::uint32_t ci = acd_->clique_of[v];
    if (ci == static_cast<std::uint32_t>(-1) || !ds_->low_slackability[ci])
      return;
    if (!ds_->inlier[v]) return;
    BitStream bs = bits.stream(v, 0);
    const std::uint64_t den = 1u << 20;
    if (bs.below(den) <
        static_cast<std::uint64_t>(prob[ci] * static_cast<double>(den))) {
      run.aux[v] = kSampled;
    }
  });
  // P_C = sampled nodes with no sampled neighbor outside their clique.
  parallel_for(n, [&](std::size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    if (run.aux[v] != kSampled) return;
    const std::uint32_t ci = acd_->clique_of[v];
    for (NodeId u : state.graph().neighbors(v)) {
      if (run.aux[u] >= kSampled && acd_->clique_of[u] != ci) return;
    }
    run.aux[v] = kInP;
  });
  return run;
}

bool PutAsideProc::ssp(const ColoringState& state, const ProcedureRun& run,
                       NodeId v) const {
  if (degree_exempt(cfg_, state, v)) return true;
  const std::uint32_t ci = acd_->clique_of[v];
  if (ci == static_cast<std::uint32_t>(-1) || !ds_->low_slackability[ci])
    return true;
  std::uint64_t in_p = 0, inliers = 0;
  for (NodeId u : acd_->cliques[ci]) {
    if (!ds_->inlier[u]) continue;
    ++inliers;
    if (run.aux[u] == kInP) ++in_p;
  }
  double bar = std::max(
      1.0, std::min(cfg_.put_aside_min_factor * ds_->ell * ds_->ell,
                    static_cast<double>(inliers) / 8.0));
  return static_cast<double>(in_p) >= bar;
}

void PutAsideProc::commit(ColoringState& state, const ProcedureRun& run,
                          const std::vector<std::uint8_t>& defer) const {
  (void)state;
  for (NodeId v = 0; v < static_cast<NodeId>(run.aux.size()); ++v) {
    if (defer[v]) continue;
    if (run.aux[v] == kInP) ds_->put_aside[v] = 1;
  }
}

}  // namespace pdc::hknt
