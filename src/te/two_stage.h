// The two-stage TE method (paper §4.2.1): first explicitly predict
// D^expect_t from history with a classical predictor, then solve the
// sensitivity-capped LP of Eq. 5 for that prediction.
//
// The paper lists three reasons this is "far from ideal" — bursty pairs make
// prediction hard, the MSE objective is misaligned with MLU, and LP solving
// does not scale — and chooses the end-to-end DNN instead. This scheme
// exists to reproduce that comparison (bench_ablation_endtoend): same F
// construction as the heuristic fine-grained Des TE, but driven by an
// explicit point prediction instead of the peak-of-window matrix.
#pragma once

#include <memory>

#include "lp/revised_simplex.h"
#include "te/scheme.h"
#include "traffic/predictor.h"

namespace figret::te {

struct TwoStageOptions {
  /// Per-pair sensitivity bounds: linear in the variance rank between
  /// max_bound (stable) and min_bound (bursty), as in Appendix C.
  double max_bound = 2.0 / 3.0;
  double min_bound = 1.0 / 3.0;
  std::size_t window = 12;
  /// LP solver knobs for the per-advise solve (warm-started across
  /// snapshots).
  lp::SolverOptions solver;
};

class TwoStageTe final : public TeScheme {
 public:
  /// Takes ownership of the predictor (first stage).
  TwoStageTe(const PathSet& ps, std::unique_ptr<traffic::Predictor> predictor,
             const TwoStageOptions& opt);
  TwoStageTe(const PathSet& ps, std::unique_ptr<traffic::Predictor> predictor);

  std::string name() const override;
  /// Freezes the variance-rank-based F on the training trace.
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  std::size_t history_window() const override { return opt_.window; }

  /// MSE of the last prediction made by advise() (diagnostics for the
  /// objective-mismatch study; call after evaluating against the realized
  /// demand via record_actual()).
  const traffic::DemandMatrix& last_prediction() const {
    return last_prediction_;
  }

 private:
  const PathSet* ps_;
  std::unique_ptr<traffic::Predictor> predictor_;
  TwoStageOptions opt_;
  std::vector<double> caps_;
  traffic::DemandMatrix last_prediction_;
  lp::WarmStart warm_;  // consecutive advise() solves share structure
};

}  // namespace figret::te
