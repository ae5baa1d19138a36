// Regression tests for classic cycling/degenerate LPs: Beale's example and a
// Kuhn-style degenerate instance must terminate at the optimum in both
// engines — with Bland's rule forced from the first pivot and with the
// default Dantzig-then-Bland policy — plus warm-start-after-bound-tightening
// coverage for the revised engine.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/certificates.h"
#include "lp/revised_simplex.h"
#include "support/dense_simplex.h"

namespace figret::lp {
namespace {

LpResult solve_revised(const LpProblem& p, const SolveOptions& simplex) {
  SolverOptions opt;
  opt.simplex = simplex;
  return solve_with(p, opt);
}

// Every case runs on both engines: the dense oracle and the library's
// revised simplex.
struct EngineCase {
  const char* name;
  LpResult (*solve)(const LpProblem&, const SolveOptions&);
};
constexpr EngineCase kEngines[] = {{"dense", solve_dense},
                                   {"revised", solve_revised}};

// Beale (1955): min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4. Dantzig pricing with
// naive tie-breaking cycles forever on this instance; the optimum is -1/20
// at x = (1/25, 0, 1, 0).
LpProblem beale() {
  LpProblem p;
  const auto x1 = p.add_variable(-0.75);
  const auto x2 = p.add_variable(150.0);
  const auto x3 = p.add_variable(-0.02);
  const auto x4 = p.add_variable(6.0);
  p.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x3, 1.0}}, Relation::kLessEq, 1.0);
  return p;
}

// Kuhn-style degenerate LP. The third row bounds the negated objective
// directly (obj = -(2x1 + 3x2 - x3 - 12x4) >= -2), so the optimum is -2,
// attained at x = (2, 0, 2, 0) where the origin vertex is fully degenerate.
LpProblem kuhn() {
  LpProblem p;
  const auto x1 = p.add_variable(-2.0);
  const auto x2 = p.add_variable(-3.0);
  const auto x3 = p.add_variable(1.0);
  const auto x4 = p.add_variable(12.0);
  p.add_constraint({{x1, -2.0}, {x2, -9.0}, {x3, 1.0}, {x4, 9.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 1.0 / 3.0}, {x2, 1.0}, {x3, -1.0 / 3.0}, {x4, -2.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 2.0}, {x2, 3.0}, {x3, -1.0}, {x4, -12.0}},
                   Relation::kLessEq, 2.0);
  return p;
}

void expect_optimal_both(const LpProblem& p, double expected,
                         std::size_t bland_after, const char* label) {
  SolveOptions simplex;
  simplex.bland_after = bland_after;
  // Tight enough that a cycle would trip the limit instead of "terminating"
  // by exhausting the default budget.
  simplex.max_iterations = 5000;
  for (const EngineCase& engine : kEngines) {
    const LpResult r = engine.solve(p, simplex);
    ASSERT_EQ(r.status, Status::kOptimal)
        << label << " engine " << engine.name << " bland_after "
        << bland_after;
    EXPECT_NEAR(r.objective, expected, 1e-8)
        << label << " engine " << engine.name;
    EXPECT_TRUE(check_certificate(p, r).ok(1e-6))
        << label << " engine " << engine.name;
  }
}

TEST(LpDegeneracy, BealeTerminatesUnderBland) {
  expect_optimal_both(beale(), -0.05, /*bland_after=*/0, "Beale/Bland");
}

TEST(LpDegeneracy, BealeTerminatesUnderDefaultPolicy) {
  // Dantzig first; if it cycles the automatic Bland switch must rescue it
  // well within the 5000-pivot budget.
  expect_optimal_both(beale(), -0.05, /*bland_after=*/100, "Beale/Default");
}

TEST(LpDegeneracy, KuhnTerminatesUnderBland) {
  expect_optimal_both(kuhn(), -2.0, /*bland_after=*/0, "Kuhn/Bland");
}

TEST(LpDegeneracy, KuhnTerminatesUnderDefaultPolicy) {
  expect_optimal_both(kuhn(), -2.0, /*bland_after=*/100, "Kuhn/Default");
}

TEST(LpDegeneracy, WarmStartAfterBoundTighteningNonBinding) {
  // Tightening a bound that stays above the optimal value must keep the
  // captured basis feasible: the warm solve re-primes and needs no pivots.
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  SolveStats stats;
  const LpResult first = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, -36.0, 1e-8);  // x = 2, y = 6

  p.set_upper_bound(x, 8.0);  // optimum has x = 2: basis stays feasible
  p.set_upper_bound(y, 7.0);  // and y = 6 < 7
  const LpResult second = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, -36.0, 1e-8);
  EXPECT_TRUE(stats.warm_start_used);
  EXPECT_EQ(stats.pivots, 0u);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));
}

TEST(LpDegeneracy, WarmStartAfterBoundTighteningBinding) {
  // Tightening below the incumbent value invalidates the basis: the solve
  // must still return the new optimum (re-priming or falling back cold).
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  const LpResult first = solve_with(p, opt, &warm);
  ASSERT_TRUE(first.optimal());

  p.set_upper_bound(y, 4.0);  // previous optimum had y = 6: now infeasible
  const LpResult second = solve_with(p, opt, &warm);
  ASSERT_TRUE(second.optimal());
  // With y <= 4: x <= 4 and 3x + 2y <= 18 give x = 10/3, y = 4, obj -30.
  EXPECT_NEAR(second.objective, -30.0, 1e-8);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));
  // Fresh dense solve agrees — the oracle for the warm path.
  const LpResult oracle = solve_dense(p);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(second.objective, oracle.objective, 1e-8);
}

TEST(LpDegeneracy, RhsOnlyTighteningUsesDualNotCold) {
  // The headline fix of this change: an RHS-only tightening that makes the
  // previous optimal basis primal-infeasible must be re-optimized by the
  // dual simplex from the warm basis — not discarded for a cold two-phase
  // restart.
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  ASSERT_TRUE(solve_with(p, opt, &warm).optimal());  // x = 2, y = 6

  // Tighten the joint capacity below the incumbent activity (3*2 + 2*6 = 18
  // -> cap 10). Re-pricing the stored basis against the new RHS drives its
  // x-component negative: primal infeasible, still dual feasible.
  p.set_rhs(2, 10.0);
  SolveStats stats;
  const LpResult second = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(stats.warm_start_used);
  EXPECT_TRUE(stats.dual_simplex_used);
  EXPECT_EQ(stats.fallback, WarmFallback::kNone)
      << "fell back: " << to_string(stats.fallback);
  EXPECT_EQ(warm.misses(), 0u);
  const LpResult oracle = solve_dense(p);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(second.objective, oracle.objective, 1e-8);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));

  // A second RHS-only resolve, from a fresh chain whose incumbent breaks a
  // different row, takes the dual path as well.
  WarmStart warm2;
  ASSERT_TRUE(solve_with(p, opt, &warm2).optimal());  // x = 0, y = 5
  p.set_rhs(1, 4.0);  // 2y <= 4: the incumbent y = 5 is infeasible
  SolveStats stats2;
  const LpResult third = solve_with(p, opt, &warm2, &stats2);
  ASSERT_TRUE(third.optimal());
  EXPECT_TRUE(stats2.warm_start_used);
  EXPECT_TRUE(stats2.dual_simplex_used);
  EXPECT_EQ(stats2.fallback, WarmFallback::kNone)
      << "fell back: " << to_string(stats2.fallback);
  EXPECT_EQ(warm2.misses(), 0u);
  const LpResult oracle2 = solve_dense(p);
  ASSERT_TRUE(oracle2.optimal());
  EXPECT_NEAR(third.objective, oracle2.objective, 1e-8);
  EXPECT_TRUE(check_certificate(p, third).ok(1e-6));
}

TEST(LpDegeneracy, BetaClampTracksFeasibilityTolerance) {
  // The clamp that snaps tiny negative basic values to zero is derived from
  // the feasibility tolerance, not a hard-coded -1e-11: four decades below
  // the tolerance, floored at 1e-13.
  static_assert(beta_clamp(1e-7) == 1e-11);
  static_assert(beta_clamp(1e-4) == 1e-8);
  static_assert(beta_clamp(1e-10) == 1e-13);  // floor engages
  static_assert(beta_clamp(0.0) == 1e-13);

  // A near-degenerate instance must reach the same optimum under a tight and
  // a loose feasibility tolerance in both engines: the clamp scales with the
  // tolerance rather than fighting it.
  for (const double feas : {1e-9, 1e-7, 1e-5}) {
    SolveOptions simplex;
    simplex.feasibility_tolerance = feas;
    simplex.max_iterations = 5000;
    simplex.bland_after = 0;  // Beale cycles under pure Dantzig
    for (const EngineCase& engine : kEngines) {
      const LpResult r = engine.solve(beale(), simplex);
      ASSERT_EQ(r.status, Status::kOptimal)
          << "feas " << feas << " engine " << engine.name;
      EXPECT_NEAR(r.objective, -0.05, 1e-7)
          << "feas " << feas << " engine " << engine.name;
    }
  }
}

TEST(LpDegeneracy, FallbackReasonsRecorded) {
  LpProblem p;
  const auto x = p.add_variable(-1.0, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 3.0);

  // Structural change (extra row) -> signature mismatch.
  WarmStart warm;
  SolverOptions opt;
  ASSERT_TRUE(solve_with(p, opt, &warm).optimal());
  LpProblem q = p;
  q.add_constraint({{x, 2.0}}, Relation::kLessEq, 10.0);
  SolveStats stats;
  ASSERT_TRUE(solve_with(q, opt, &warm, &stats).optimal());
  EXPECT_EQ(stats.fallback, WarmFallback::kSignatureMismatch);
  EXPECT_EQ(warm.misses_by(WarmFallback::kSignatureMismatch), 1u);

  // Every miss is attributed to exactly one reason.
  std::size_t total = 0;
  for (const std::size_t n : warm.miss_reasons()) total += n;
  EXPECT_EQ(total, warm.misses());
}

TEST(LpDegeneracy, IterationLimitStillReported) {
  // The anti-cycling machinery must not mask a genuine pivot-budget hit.
  for (const EngineCase& engine : kEngines) {
    SolveOptions simplex;
    simplex.max_iterations = 1;
    const LpResult r = engine.solve(beale(), simplex);
    EXPECT_EQ(r.status, Status::kIterationLimit) << "engine " << engine.name;
  }
}

}  // namespace
}  // namespace figret::lp
