#pragma once
// Round and space accounting for MPC executions.
//
// The theorems this library reproduces bound three observables: rounds,
// per-machine (local) space, and global space. Every simulated operation
// charges this ledger; experiment harnesses read it back. Phases let the
// E1/E2 experiments attribute rounds to pipeline stages (partition /
// chunk-coloring / procedure derandomization / low-degree finish).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pdc/obs/obs.hpp"
#include "pdc/util/check.hpp"

namespace pdc::mpc {

class Ledger {
 public:
  void begin_phase(std::string name) { phase_ = std::move(name); }
  const std::string& phase() const { return phase_; }

  /// Charge `k` synchronous MPC rounds to the current phase.
  void add_rounds(std::uint64_t k) {
    rounds_ += k;
    by_phase_[phase_] += k;
  }

  /// Record a per-machine space observation (peak words used).
  void observe_local_space(std::uint64_t words) {
    peak_local_ = std::max(peak_local_, words);
  }

  /// Record total words resident across machines at some instant.
  void observe_global_space(std::uint64_t words) {
    peak_global_ = std::max(peak_global_, words);
  }

  void record_violation(const std::string& what) { violations_.push_back(what); }

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t peak_local_space() const { return peak_local_; }
  std::uint64_t peak_global_space() const { return peak_global_; }
  const std::map<std::string, std::uint64_t>& rounds_by_phase() const {
    return by_phase_;
  }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Merge a sub-execution (e.g. a recursive LowSpaceColorReduce call,
  /// whose parallel siblings share rounds — the caller decides whether to
  /// add rounds serially or take a max; this helper adds serially).
  void absorb(const Ledger& sub) {
    rounds_ += sub.rounds_;
    for (auto& [k, v] : sub.by_phase_) by_phase_[k] += v;
    peak_local_ = std::max(peak_local_, sub.peak_local_);
    peak_global_ = std::max(peak_global_, sub.peak_global_);
    violations_.insert(violations_.end(), sub.violations_.begin(),
                       sub.violations_.end());
  }

  /// Publish this ledger's accounting into a metrics registry:
  /// `mpc.rounds` as one counter per ledger phase (the phase *is* the
  /// label — round charges carry no route/plane/backend dimension),
  /// the space peaks as gauges, and the violation count. Publishing
  /// the same final ledger twice double-counts the round counters;
  /// call once per execution, on the fully-absorbed ledger (the
  /// pattern the tools' --metrics flag uses).
  void publish(obs::Metrics& metrics) const {
    for (const auto& [phase, rounds] : by_phase_) {
      if (rounds != 0)
        metrics.add("mpc.rounds",
                    {.phase = phase, .route = {}, .plane = {}, .backend = {}},
                    rounds);
    }
    metrics.gauge_max("mpc.peak_local_space", {},
                      static_cast<double>(peak_local_));
    metrics.gauge_max("mpc.peak_global_space", {},
                      static_cast<double>(peak_global_));
    if (!violations_.empty())
      metrics.add("mpc.violations", {}, violations_.size());
  }

  /// For parallel sub-executions: rounds advance to the max of the
  /// siblings (they run concurrently on disjoint machines).
  void absorb_parallel(const std::vector<Ledger>& subs) {
    std::uint64_t max_rounds = 0;
    for (const auto& s : subs) {
      max_rounds = std::max(max_rounds, s.rounds_);
      peak_local_ = std::max(peak_local_, s.peak_local_);
      peak_global_ = std::max(peak_global_, s.peak_global_);
      violations_.insert(violations_.end(), s.violations_.begin(),
                         s.violations_.end());
    }
    rounds_ += max_rounds;
    by_phase_[phase_ + "(parallel)"] += max_rounds;
  }

 private:
  std::string phase_ = "init";
  std::uint64_t rounds_ = 0;
  std::uint64_t peak_local_ = 0;
  std::uint64_t peak_global_ = 0;
  std::map<std::string, std::uint64_t> by_phase_;
  std::vector<std::string> violations_;
};

}  // namespace pdc::mpc
