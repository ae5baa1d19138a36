#include "optimum.h"

#include <cmath>

#include "lp/revised_simplex.h"
#include "te/lp_schemes.h"

namespace perfbench {
namespace {

namespace lp = figret::lp;

// min U  s.t. each active pair's live ratios sum to 1 and every edge's load
// is at most U times its capacity (the Appendix B LP restricted to pairs
// with demand). Pairs with no live path are dropped, as when serving.
lp::LpProblem active_pair_lp(const te::PathSet& ps,
                             const traffic::DemandMatrix& demand,
                             const std::vector<bool>* alive) {
  lp::LpProblem prob;
  const std::size_t u = prob.add_variable(1.0);
  std::vector<std::vector<lp::Term>> load(ps.num_edges());
  demand.for_each_active([&](std::size_t pair, double d) {
    if (d <= 0.0) return;
    std::vector<lp::Term> split;
    for (std::size_t p = ps.pair_begin(pair); p < ps.pair_end(pair); ++p) {
      if (alive && !(*alive)[p]) continue;
      const std::size_t v = prob.add_variable(0.0, 1.0);
      split.push_back({v, 1.0});
      for (const net::EdgeId e : ps.path_edges(p)) load[e].push_back({v, d});
    }
    if (!split.empty())
      prob.add_constraint(std::move(split), lp::Relation::kEq, 1.0);
  });
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    if (load[e].empty()) continue;
    load[e].push_back({u, -ps.edge_capacity(e)});
    prob.add_constraint(std::move(load[e]), lp::Relation::kLessEq, 0.0);
  }
  return prob;
}

}  // namespace

void LpLedger::add(const te::MluLpResult& r, double solve_seconds) {
  seconds.push_back(solve_seconds);
  pivots += r.pivots;
  dual_pivots += r.dual_pivots;
  warm_used += r.warm_start_used ? 1 : 0;
  cold_fallbacks += r.warm_fallback != lp::WarmFallback::kNone ? 1 : 0;
  non_optimal += r.optimal() ? 0 : 1;
}

void report_lp(const LpLedger& led, Report& report) {
  const double solves = static_cast<double>(led.seconds.size());
  const double pivots = static_cast<double>(led.pivots);
  double total = 0.0;
  for (const double s : led.seconds) total += s;
  report.metric("lp.solve_p50_ms", 1e3 * percentile(led.seconds, 50), "ms");
  report.metric("lp.solve_p99_ms", 1e3 * percentile(led.seconds, 99), "ms");
  report.metric("lp.pivots_per_solve", solves > 0 ? pivots / solves : 0.0, "count");
  report.metric("lp.us_per_pivot", pivots > 0 ? 1e6 * total / pivots : 0.0, "us");
  report.metric("lp.warm_hit_frac",
                solves > 0 ? static_cast<double>(led.warm_used) / solves : 0.0, "ratio");
  report.metric("lp.dual_pivot_frac",
                pivots > 0 ? static_cast<double>(led.dual_pivots) / pivots : 0.0, "ratio");
  report.metric("lp.cold_fallbacks", static_cast<double>(led.cold_fallbacks), "count");
}

std::vector<double> stream_optimum(
    const Instance& in, const std::vector<std::vector<bool>>& domain_alive,
    Tracer& tracer, LpLedger& led) {
  std::vector<double> opt(in.trace.size(), std::nan(""));
  lp::WarmStart warm;
  for (const std::uint32_t idx : in.stream_indices) {
    const traffic::DemandMatrix& demand = in.trace[idx];
    const int dom = in.domain_of[idx];
    const std::vector<bool>* mask =
        dom >= 0 ? &domain_alive[static_cast<std::size_t>(dom)] : nullptr;
    const double a = now_s();
    if (demand.density() < 0.5) {
      lp::SolveStats st;
      const lp::LpResult r = lp::solve_with(active_pair_lp(in.ps, demand, mask),
                                            lp::SolverOptions{}, nullptr, &st);
      led.seconds.push_back(now_s() - a);
      led.pivots += st.pivots;
      led.dual_pivots += st.dual_pivots;
      if (r.optimal()) opt[idx] = r.objective;
      else ++led.non_optimal;
    } else {
      // Consecutive snapshots share the LP's structure, so one warm chain
      // re-primes each solve from the last optimal basis.
      const te::MluLpResult r =
          te::solve_mlu_lp(in.ps, demand, nullptr, mask, nullptr, &warm);
      led.add(r, now_s() - a);
      if (r.optimal()) opt[idx] = r.mlu;
    }
    tracer.add("lp.solve", a, now_s(), -1, idx);
  }
  return opt;
}

}  // namespace perfbench
