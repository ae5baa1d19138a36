// Crash start of the MLU LP: te::build_mlu_lp attaches a primal-feasible
// start basis (one live path per pair at ratio 1, U basic on the most
// utilized edge), and the revised engine installs it on cold solves. These
// tests pin that the hint only changes how fast the optimum is reached:
// against the all-logical two-phase start and the dense tableau it gives the
// same status and objective on real TE instances under failures, cut-off
// pairs, zero demand and ratio caps, and every malformed hint falls back to
// exactly the two-phase solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lp/certificates.h"
#include "lp/revised_simplex.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

struct Instance {
  std::string name;
  PathSet ps;
  traffic::DemandMatrix demand;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  {
    const net::Graph g = net::geant();
    out.push_back({"GEANT", PathSet::build(g, net::all_pairs_k_shortest(g, 3)),
                   traffic::wan_trace(23, 4, 101)[3]});
  }
  {
    const net::Graph g = net::random_regular(32, 10, 139);
    out.push_back({"ToR-WEB",
                   PathSet::build(g, net::all_pairs_k_shortest(g, 3)),
                   traffic::dc_tor_trace(32, 4, 149)[3]});
  }
  {
    const net::FatTree ft = net::fat_tree(4);
    traffic::FabricOptions fo;
    fo.active_fraction = 0.1;
    const std::size_t n = ft.graph.num_nodes();
    out.push_back({"fat-tree k=4",
                   PathSet::build(ft.graph, net::fat_tree_paths(ft, 4)),
                   traffic::fabric_trace(n, 4, 7, fo)[3]});
  }
  return out;
}

// Two failed links that leave every pair with demand a live path. (The
// fat tree has pairs with a single up-down route, so "no pair cut off at
// all", as te::sample_safe_failures requires, is not available there.)
std::vector<bool> two_safe_failures(const PathSet& ps,
                                    const traffic::DemandMatrix& demand) {
  std::vector<net::EdgeId> failed;
  for (net::EdgeId e = 0; e < ps.num_edges() && failed.size() < 2; e += 3) {
    failed.push_back(e);
    const std::vector<bool> alive = surviving_paths(ps, failed);
    bool safe = true;
    for (std::size_t pr = 0; pr < ps.num_pairs() && safe; ++pr) {
      if (demand[pr] == 0.0) continue;
      safe = false;
      for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
        safe = safe || alive[p];
    }
    if (!safe) failed.pop_back();
  }
  EXPECT_EQ(failed.size(), 2u);
  return surviving_paths(ps, failed);
}

// Failing the first link of every candidate path of one pair cuts that pair
// off (the LP then has no conservation row for it).
std::vector<bool> cut_off_first_pair(const PathSet& ps) {
  std::size_t pair = 0;
  while (ps.pair_begin(pair) == ps.pair_end(pair)) ++pair;
  std::vector<net::EdgeId> failed;
  for (std::size_t p = ps.pair_begin(pair); p < ps.pair_end(pair); ++p)
    failed.push_back(ps.path_edges(p).front());
  const std::vector<bool> alive = surviving_paths(ps, failed);
  for (std::size_t p = ps.pair_begin(pair); p < ps.pair_end(pair); ++p)
    EXPECT_FALSE(alive[p]);
  return alive;
}

struct Solved {
  lp::LpResult result;
  lp::SolveStats stats;
};

Solved revised(const lp::LpProblem& prob) {
  Solved s;
  s.result = lp::solve_with(prob, lp::SolverOptions{}, nullptr, &s.stats);
  return s;
}

lp::LpProblem without_hint(lp::LpProblem prob) {
  prob.set_start_basis({});
  return prob;
}

void expect_same_optimum(const lp::LpResult& got, const lp::LpResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.status, want.status) << what;
  if (!want.optimal()) return;
  const double tol = 1e-9 * std::max(1.0, std::abs(want.objective));
  EXPECT_NEAR(got.objective, want.objective, tol) << what;
}

// Crash start vs two-phase vs dense tableau on one LP; `all_paths` says the
// hint names a path for every pair (then phase 1 has nothing to do).
Solved check_case(const lp::LpProblem& prob, bool all_paths,
                  const std::string& what) {
  EXPECT_EQ(prob.start_basis().size(), prob.num_constraints()) << what;
  const Solved crash = revised(prob);
  const Solved two_phase = revised(without_hint(prob));
  lp::SolverOptions dense_opt;
  dense_opt.engine = lp::Engine::kDenseTableau;
  const lp::LpResult dense = lp::solve_with(prob, dense_opt);

  EXPECT_EQ(crash.result.status, lp::Status::kOptimal) << what;
  expect_same_optimum(crash.result, two_phase.result, what + " vs two-phase");
  expect_same_optimum(crash.result, dense, what + " vs dense");
  EXPECT_TRUE(lp::check_certificate(prob, crash.result).ok(1e-6)) << what;

  // The hint is feasible by construction, so it must have been installed.
  EXPECT_TRUE(crash.stats.crash_start) << what;
  EXPECT_FALSE(two_phase.stats.crash_start) << what;
  EXPECT_FALSE(crash.stats.warm_start_attempted) << what;
  EXPECT_LE(crash.stats.phase1_pivots, crash.stats.pivots) << what;
  if (all_paths) {
    EXPECT_EQ(crash.stats.phase1_pivots, 0u) << what;
  } else {
    EXPECT_GT(crash.stats.phase1_pivots, 0u) << what;
  }
  EXPECT_LT(crash.stats.pivots, two_phase.stats.pivots) << what;
  return crash;
}

bool hint_names_every_pair(const lp::LpProblem& prob) {
  for (std::size_t r = 0; r < prob.num_constraints(); ++r)
    if (prob.rows()[r].rel == lp::Relation::kEq &&
        prob.start_basis()[r] == lp::LpProblem::kLogical)
      return false;
  return true;
}

TEST(LpCrashStart, MatchesTwoPhaseAndDenseOnMluLps) {
  for (const Instance& in : instances()) {
    const PathSet& ps = in.ps;
    const std::vector<bool> safe = two_safe_failures(ps, in.demand);
    const std::vector<bool> cut = cut_off_first_pair(ps);
    const traffic::DemandMatrix zero(ps.num_nodes(), 0.0);
    const std::vector<double> caps =
        sensitivity_caps(ps, std::vector<double>(ps.num_pairs(), 0.3));
    ASSERT_TRUE(std::any_of(caps.begin(), caps.end(),
                            [](double c) { return c < 1.0; }));

    check_case(build_mlu_lp(ps, in.demand), true, in.name + " plain");
    check_case(build_mlu_lp(ps, in.demand, nullptr, &safe), true,
               in.name + " 2 safe failures");
    check_case(build_mlu_lp(ps, in.demand, nullptr, &cut), true,
               in.name + " cut-off pair");

    // All-zero demand: a degenerate optimum of 0; the crash basis is
    // already optimal, so it needs no pivot at all.
    const Solved idle =
        check_case(build_mlu_lp(ps, zero), true, in.name + " zero demand");
    EXPECT_EQ(idle.result.objective, 0.0) << in.name;
    EXPECT_EQ(idle.stats.pivots, 0u) << in.name;

    // Ratio caps below 1: pairs whose caps admit no single path keep their
    // artificial, and phase 1 runs from the crash basis.
    const lp::LpProblem capped = build_mlu_lp(ps, in.demand, &caps);
    check_case(capped, hint_names_every_pair(capped),
               in.name + " ratio caps");
  }
}

TEST(LpCrashStart, CompatibleWarmBasisWinsAndCountersIgnoreCrash) {
  const Instance in = instances().front();
  const lp::LpProblem prob = build_mlu_lp(in.ps, in.demand);
  lp::WarmStart warm;
  lp::SolveStats first, second;
  const lp::LpResult a =
      lp::solve_with(prob, lp::SolverOptions{}, &warm, &first);
  EXPECT_TRUE(first.crash_start);
  EXPECT_FALSE(first.warm_start_attempted);
  EXPECT_EQ(warm.hits() + warm.misses(), 0u);  // a crash is neither

  const lp::LpResult b =
      lp::solve_with(prob, lp::SolverOptions{}, &warm, &second);
  EXPECT_TRUE(second.warm_start_used);
  EXPECT_FALSE(second.crash_start);
  EXPECT_EQ(warm.hits(), 1u);
  EXPECT_EQ(warm.misses(), 0u);
  expect_same_optimum(b, a, "warm resolve");
}

// Every malformed hint must reproduce the all-logical solve exactly: same
// status, same optimum, same pivot sequence.
void expect_fallback(const lp::LpProblem& hinted, const std::string& what) {
  const Solved got = revised(hinted);
  const Solved want = revised(without_hint(hinted));
  EXPECT_FALSE(got.stats.crash_start) << what;
  ASSERT_EQ(got.result.status, want.result.status) << what;
  EXPECT_EQ(got.result.objective, want.result.objective) << what;
  EXPECT_EQ(got.stats.pivots, want.stats.pivots) << what;
  EXPECT_EQ(got.stats.phase1_pivots, want.stats.phase1_pivots) << what;
  EXPECT_GT(got.stats.phase1_pivots, 0u) << what;
}

TEST(LpCrashStart, MalformedHintsFallBackToAllLogical) {
  const Instance in = instances().front();
  const lp::LpProblem base = build_mlu_lp(in.ps, in.demand);
  const std::vector<std::size_t> hint = base.start_basis();
  const std::size_t u_var = base.num_variables() - 1;

  {  // Singular: two conservation rows name the same path column.
    std::vector<std::size_t> h = hint;
    h[1] = h[0];
    lp::LpProblem p = base;
    p.set_start_basis(h);
    expect_fallback(p, "singular");
  }
  {  // Primal infeasible: U basic on the least utilized edge instead of the
     // most, so every busier edge's slack goes negative.
    std::vector<bool> in_hint(base.num_variables(), false);
    for (const std::size_t c : hint)
      if (c != lp::LpProblem::kLogical) in_hint[c] = true;
    std::size_t low = hint.size(), u_row = hint.size();
    double low_util = 0.0;
    for (std::size_t r = 0; r < base.num_constraints(); ++r) {
      const auto& row = base.rows()[r];
      if (row.rel != lp::Relation::kLessEq) continue;
      double l = 0.0, cap = 0.0;
      for (const lp::Term& t : row.terms) {
        if (t.var == u_var) cap = -t.coeff;
        else if (in_hint[t.var]) l += t.coeff;
      }
      if (hint[r] == u_var) u_row = r;
      if (low == hint.size() || l / cap < low_util) {
        low = r;
        low_util = l / cap;
      }
    }
    ASSERT_NE(u_row, hint.size());
    ASSERT_NE(low, u_row);
    std::vector<std::size_t> h = hint;
    h[u_row] = lp::LpProblem::kLogical;
    h[low] = u_var;
    lp::LpProblem p = base;
    p.set_start_basis(h);
    expect_fallback(p, "primal infeasible");
  }
  {  // Wrong length, both ways.
    std::vector<std::size_t> h = hint;
    h.pop_back();
    lp::LpProblem p = base;
    p.set_start_basis(h);
    expect_fallback(p, "short");
    h = hint;
    h.push_back(lp::LpProblem::kLogical);
    p.set_start_basis(h);
    expect_fallback(p, "long");
  }
  {  // A column index past the structurals.
    std::vector<std::size_t> h = hint;
    h[0] = base.num_variables();
    lp::LpProblem p = base;
    p.set_start_basis(h);
    expect_fallback(p, "out of range");
  }
}

}  // namespace
}  // namespace figret::te
