// Fine-grained heuristic sensitivity functions F (paper §6, Appendix C).
//
// These retrofit the *concept* of fine-grained robustness onto the classic
// Desensitization TE without any learning: pairs are ordered by historical
// traffic variance and the sensitivity bound F(s,d) decreases (gets stricter)
// with the variance rank, either linearly (Fig 9, Table 7) or piecewise with
// a stable/bursty breakpoint (Fig 11, Table 8).
#pragma once

#include "lp/revised_simplex.h"
#include "te/scheme.h"

namespace figret::te {

/// Shape of the rank -> bound mapping.
enum class FShape { kLinear, kPiecewise };

struct HeuristicFOptions {
  FShape shape = FShape::kLinear;
  /// Bound assigned to the most stable pair (lenient) ...
  double max_bound = 2.0 / 3.0;
  /// ... and to the most bursty pair (strict).
  double min_bound = 1.0 / 3.0;
  /// For kPiecewise: fraction of pairs (by ascending variance) treated as
  /// stable and given max_bound; the rest get min_bound.
  double breakpoint = 0.8;
  /// Peak window for the anticipated matrix (as in Desensitization TE).
  std::size_t peak_window = 12;
  /// LP solver knobs for the per-advise solve (warm-started across
  /// snapshots).
  lp::SolverOptions solver;
};

/// Desensitization TE with a variance-rank-dependent sensitivity bound.
class HeuristicFTe final : public TeScheme {
 public:
  HeuristicFTe(const PathSet& ps, const HeuristicFOptions& opt = {},
               std::string name = "HeurF");
  std::string name() const override { return name_; }
  /// Computes variance ranks on the training trace and freezes F.
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  std::size_t history_window() const override { return opt_.peak_window; }

  /// The frozen per-pair bounds (for tests and the Appendix C benches).
  const std::vector<double>& pair_bounds() const noexcept { return f_; }

 private:
  const PathSet* ps_;
  HeuristicFOptions opt_;
  std::string name_;
  std::vector<double> f_;
  std::vector<double> caps_;
  lp::WarmStart warm_;
};

}  // namespace figret::te
