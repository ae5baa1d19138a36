// Strong-duality certificates (lp/certificates.h) for every kOptimal result
// of both LP engines, on hand-written LPs covering all row relations and
// finite upper bounds, and on the real TE LPs built by te/lp_schemes.
#include "lp/certificates.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "net/topology.h"
#include "net/yen.h"
#include "support/dense_simplex.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "traffic/generators.h"

namespace figret::lp {
namespace {

constexpr double kTol = 1e-6;

void expect_certified(const LpProblem& p, const char* label) {
  const std::pair<const char*, LpResult> results[] = {
      {"dense", solve_dense(p)}, {"revised", solve_with(p)}};
  for (const auto& [engine, r] : results) {
    ASSERT_EQ(r.status, Status::kOptimal) << label << " engine " << engine;
    const CertificateReport rep = check_certificate(p, r);
    EXPECT_TRUE(rep.ok(kTol))
        << label << " engine " << engine << ": primal "
        << rep.primal_violation << " dual " << rep.dual_violation
        << " slack " << rep.slackness_violation << " gap "
        << rep.duality_gap;
  }
}

TEST(LpCertificates, LessEqRows) {
  // Dantzig's classic max 3x + 5y (as min of the negation).
  LpProblem p;
  const auto x = p.add_variable(-3.0);
  const auto y = p.add_variable(-5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  expect_certified(p, "LessEq");
}

TEST(LpCertificates, EqualityAndUpperBound) {
  LpProblem p;
  const auto x = p.add_variable(1.0, 4.0);
  const auto y = p.add_variable(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  expect_certified(p, "EqUb");
}

TEST(LpCertificates, GreaterEqRows) {
  LpProblem p;
  const auto x = p.add_variable(2.0);
  const auto y = p.add_variable(3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 4.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kGreaterEq, -2.0);
  expect_certified(p, "GreaterEq");
}

TEST(LpCertificates, MixedRelationsWithBindingBounds) {
  // All three relations plus a binding upper bound in one instance.
  LpProblem p;
  const auto x = p.add_variable(-1.0, 0.6);
  const auto y = p.add_variable(-1.0, 0.7);
  const auto z = p.add_variable(0.5);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  p.add_constraint({{x, 1.0}, {z, 1.0}}, Relation::kGreaterEq, 0.2);
  p.add_constraint({{y, 2.0}, {z, -1.0}}, Relation::kEq, 0.4);
  expect_certified(p, "Mixed");
}

TEST(LpCertificates, NegativeRhsNormalization) {
  LpProblem p;
  const auto x = p.add_variable(1.0);
  p.add_constraint({{x, -1.0}}, Relation::kLessEq, -3.0);
  expect_certified(p, "NegRhs");
}

TEST(LpCertificates, CheckerRejectsTamperedSolutions) {
  // The checker itself must be falsifiable, or the suite proves nothing.
  LpProblem p;
  const auto x = p.add_variable(-1.0, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 5.0);
  LpResult r = solve_dense(p);
  ASSERT_TRUE(r.optimal());
  ASSERT_TRUE(check_certificate(p, r).ok(kTol));
  LpResult bad_x = r;
  bad_x.x[x] = 0.5;  // interior point: complementary slackness must fail
  EXPECT_FALSE(check_certificate(p, bad_x).ok(kTol));
  LpResult bad_y = r;
  bad_y.y[0] = 1.0;  // wrong sign for a <= row in a min problem
  EXPECT_FALSE(check_certificate(p, bad_y).ok(kTol));
}

TEST(LpCertificates, NotCheckedWhenNotOptimal) {
  LpProblem p;
  const auto x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEq, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 2.0);
  const LpResult r = solve_dense(p);
  ASSERT_EQ(r.status, Status::kInfeasible);
  EXPECT_FALSE(check_certificate(p, r).checked);
}

// --- the real TE LPs -------------------------------------------------------

te::PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

TEST(LpCertificates, OmniscientTeLpsCertified) {
  const te::PathSet ps = mesh_pathset(5);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(5, 12, 7);
  for (std::size_t t = 0; t < trace.size(); t += 3) {
    const LpProblem p = te::build_mlu_lp(ps, trace[t]);
    expect_certified(p, "OmniscientTE");
  }
}

TEST(LpCertificates, SensitivityCappedTeLpsCertified) {
  // Des-TE-shaped LPs: the caps become finite variable upper bounds, the
  // case where bounded-variable duality is easiest to get wrong.
  const te::PathSet ps = mesh_pathset(5);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(5, 12, 11);
  const std::vector<double> caps = te::sensitivity_caps(
      ps, std::vector<double>(ps.num_pairs(), 0.5));
  for (std::size_t t = 0; t < trace.size(); t += 4) {
    const LpProblem p = te::build_mlu_lp(ps, trace[t], &caps);
    expect_certified(p, "DesTE");
  }
}

TEST(LpCertificates, FaultMaskedTeLpsCertified) {
  const te::PathSet ps = mesh_pathset(5);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(5, 8, 13);
  std::vector<bool> alive(ps.num_paths(), true);
  // Kill one path per pair (keeping at least one alive).
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    if (ps.pair_end(pr) - ps.pair_begin(pr) > 1) alive[ps.pair_begin(pr)] = false;
  const LpProblem p = te::build_mlu_lp(ps, trace[0], nullptr, &alive);
  expect_certified(p, "FaultMaskedTE");
}

TEST(LpCertificates, WarmStartedSolvesStayCertified) {
  // Certificates must hold for warm-started results too — the warm path
  // skips phase 1, which is exactly where a latent bug would hide.
  const te::PathSet ps = mesh_pathset(5);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(5, 10, 17);
  WarmStart warm;
  SolverOptions opt;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const LpProblem p = te::build_mlu_lp(ps, trace[t]);
    SolveStats stats;
    const LpResult r = solve_with(p, opt, &warm, &stats);
    ASSERT_EQ(r.status, Status::kOptimal) << "snapshot " << t;
    const CertificateReport rep = check_certificate(p, r);
    EXPECT_TRUE(rep.ok(kTol))
        << "snapshot " << t << " warm_used " << stats.warm_start_used
        << ": primal " << rep.primal_violation << " dual "
        << rep.dual_violation << " slack " << rep.slackness_violation
        << " gap " << rep.duality_gap;
  }
  EXPECT_GT(warm.hits(), 0u);  // consecutive snapshots must actually re-prime
}

}  // namespace
}  // namespace figret::lp
