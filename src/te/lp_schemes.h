// Linear-programming TE: the optimization core (paper Appendix B) and the
// LP-based baselines of §5.1 —
//   * Omniscient TE         (LP on the true upcoming demand; the normalizer)
//   * Demand-prediction TE  (LP on the previous snapshot)
//   * Desensitization TE    (Google Jupiter's "Hedging": LP on the
//     peak-of-window anticipated matrix with uniform sensitivity caps)
//
// Every solve goes through lp::solve_with (the sparse revised simplex), with
// knobs from lp::SolverOptions, and may chain consecutive solves through an
// lp::WarmStart handle — successive snapshots share the constraint
// structure, so the previous optimal basis usually re-primes the next solve
// down to a handful of pivots.
#pragma once

#include <optional>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/scheme.h"

namespace figret::te {

struct MluLpResult {
  TeConfig config;
  double mlu = 0.0;
  /// Solver verdict — callers must propagate non-optimal statuses (most
  /// importantly kIterationLimit) as errors, never use a partial solution.
  lp::Status status = lp::Status::kIterationLimit;
  /// Simplex pivots spent on this solve (Table 2 observability).
  std::size_t pivots = 0;
  /// The subset of `pivots` spent in the dual simplex (warm RHS resolves).
  std::size_t dual_pivots = 0;
  /// The solve finished from a re-primed warm basis (primal or dual path).
  bool warm_start_used = false;
  /// Why a warm-start attempt fell back cold (kNone: it did not).
  lp::WarmFallback warm_fallback = lp::WarmFallback::kNone;

  bool optimal() const noexcept { return status == lp::Status::kOptimal; }
};

/// Builds the MLU LP (Appendix B):  min U  over split ratios on the candidate
/// paths. `var_of_path` (optional out) maps path id -> LP variable index,
/// with SIZE_MAX for paths excluded by `alive`. The problem carries a
/// primal-feasible start-basis hint (one live path per pair at ratio 1, U
/// basic on the most utilized edge), so cold revised solves skip phase 1.
/// Exposed separately from solve_mlu_lp so tests can verify duality
/// certificates on the real TE LPs.
lp::LpProblem build_mlu_lp(const PathSet& ps,
                           const traffic::DemandMatrix& demand,
                           const std::vector<double>* ratio_cap = nullptr,
                           const std::vector<bool>* alive = nullptr,
                           std::vector<std::size_t>* var_of_path = nullptr);

/// Solves  min_R MLU(R, demand)  over the candidate paths (Appendix B).
///
/// `ratio_cap`  — optional per-path upper bound on split ratios (the
///                sensitivity constraint r_p <= F(s,d) * C_p of Eq. 4);
///                entries >= 1 are vacuous and dropped.
/// `alive`      — optional path mask for fault-aware variants; dead paths
///                are excluded entirely (pairs with no live path are skipped).
/// `solver`     — solver knobs; nullptr uses SolverOptions{}.
/// `warm`       — optional warm-start handle chaining consecutive solves.
MluLpResult solve_mlu_lp(const PathSet& ps,
                         const traffic::DemandMatrix& demand,
                         const std::vector<double>* ratio_cap = nullptr,
                         const std::vector<bool>* alive = nullptr,
                         const lp::SolverOptions* solver = nullptr,
                         lp::WarmStart* warm = nullptr);

/// Per-path ratio caps realizing a sensitivity bound: cap_p = F_sd * C_p.
/// Guarantees per-pair feasibility (sum of caps >= 1) by proportionally
/// relaxing any pair whose caps are collectively too tight — the paper's
/// Appendix C feasibility caveat ("Min should not be less than 1/n").
std::vector<double> sensitivity_caps(const PathSet& ps,
                                     const std::vector<double>& f_per_pair);

/// Demand-prediction-based TE [2,23,24]: LP on the previous snapshot.
class PredictionTe final : public TeScheme {
 public:
  explicit PredictionTe(const PathSet& ps) : ps_(&ps) {}
  PredictionTe(const PathSet& ps, const lp::SolverOptions& solver)
      : ps_(&ps), solver_(solver) {}
  std::string name() const override { return "PredTE"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;

 private:
  const PathSet* ps_;
  lp::SolverOptions solver_;
  lp::WarmStart warm_;  // advise() calls chain across snapshots
};

/// Desensitization-based TE (Google Jupiter [37], COUDER [44]): anticipated
/// matrix = per-pair peak over a window, uniform sensitivity cap F.
class DesensitizationTe final : public TeScheme {
 public:
  struct Options {
    /// Uniform path-sensitivity bound (Appendix C "Original" uses 2/3 with
    /// capacities normalized to min 1).
    double sensitivity_bound = 2.0 / 3.0;
    /// Peak window length for the anticipated matrix.
    std::size_t peak_window = 12;
    /// LP solver knobs.
    lp::SolverOptions solver;
  };

  explicit DesensitizationTe(const PathSet& ps);
  DesensitizationTe(const PathSet& ps, const Options& opt);
  std::string name() const override { return "DesTE"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  std::size_t history_window() const override { return opt_.peak_window; }

 private:
  const PathSet* ps_;
  Options opt_;
  std::vector<double> caps_;
  lp::WarmStart warm_;
};

/// Fault-aware Desensitization TE (§5.3 "FA Des TE"): identical to
/// DesensitizationTe but told *in advance* which paths will survive, so it
/// optimizes only over live paths instead of rerouting after the fact.
class FaultAwareDesTe final : public TeScheme {
 public:
  FaultAwareDesTe(const PathSet& ps, std::vector<bool> alive);
  FaultAwareDesTe(const PathSet& ps, std::vector<bool> alive,
                  const DesensitizationTe::Options& opt);
  std::string name() const override { return "FA-DesTE"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  std::size_t history_window() const override { return opt_.peak_window; }

 private:
  const PathSet* ps_;
  DesensitizationTe::Options opt_;
  std::vector<bool> alive_;
  std::vector<double> caps_;
  lp::WarmStart warm_;
};

}  // namespace figret::te
