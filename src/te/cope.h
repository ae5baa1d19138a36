// COPE (Wang et al. [49]): prediction-aware robust TE.
//
// COPE optimizes MLU over a set of demands predicted from history while
// retaining a worst-case guarantee over the full demand space. We realize it
// with the same cutting-plane machinery as oblivious TE:
//
//   min U   s.t.  MLU(R, D)  <= U                 for D in the predicted set
//                 MLU(R, D') <= beta * r_obl      for D' in the hose polytope
//
// where r_obl is the oblivious optimum (computed first) and beta >= 1 is the
// penalty-envelope ratio: how much worst-case slack COPE trades for better
// expected-case performance. The hose-side constraint is enforced lazily by
// adversarial cuts, exactly as in oblivious.cpp.
#pragma once

#include "te/oblivious.h"
#include "te/scheme.h"

namespace figret::te {

struct CopeOptions {
  /// Worst-case envelope: hose worst-case MLU <= penalty_ratio * oblivious.
  double penalty_ratio = 1.5;
  /// Number of most recent training snapshots forming the predicted set
  /// (their element-wise peak is added as an extra member).
  std::size_t predicted_set_size = 12;
  ObliviousOptions oblivious;
  /// LP solver knobs for COPE's own master solves (the stage-1 oblivious
  /// solve uses `oblivious.solver`). kIterationLimit from any master is an
  /// error.
  lp::SolverOptions solver;
};

struct CopeResult {
  TeConfig config;
  double predicted_mlu = 0.0;   // master objective over the predicted set
  double worst_mlu = 0.0;       // hose worst case of the final config
  double oblivious_mlu = 0.0;   // r_obl used in the envelope
  bool converged = false;
  std::size_t rounds = 0;
};

CopeResult solve_cope(const PathSet& ps, const traffic::TrafficTrace& train,
                      const CopeOptions& options = {});

class CopeTe final : public TeScheme {
 public:
  CopeTe(const PathSet& ps, const CopeOptions& opt = {});
  std::string name() const override { return "COPE"; }
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix>) override;

  const CopeResult& result() const noexcept { return result_; }

 private:
  const PathSet* ps_;
  CopeOptions opt_;
  CopeResult result_;
};

}  // namespace figret::te
