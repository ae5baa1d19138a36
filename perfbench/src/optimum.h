// Omniscient optimum MLU of the stream's snapshots (the reference the
// served_norm_mlu_mean quality guard divides by), and the LP ledger every
// benchmark-side LP solve is recorded in for the lp.* per-layer metrics.
#pragma once

#include <cstddef>
#include <vector>

#include "te/lp_schemes.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LpLedger {
  std::vector<double> seconds;  // one entry per solve
  std::size_t pivots = 0;
  std::size_t dual_pivots = 0;
  std::size_t warm_used = 0;
  std::size_t cold_fallbacks = 0;
  std::size_t non_optimal = 0;

  /// Records one te::solve_mlu_lp solve that took `solve_seconds`.
  void add(const te::MluLpResult& r, double solve_seconds);
};

/// Adds lp.solve_p50_ms/_p99_ms, lp.pivots_per_solve, lp.us_per_pivot,
/// lp.warm_hit_frac, lp.dual_pivot_frac and lp.cold_fallbacks.
void report_lp(const LpLedger& led, Report& report);

/// Optimum MLU of every stream index under its failure domain (NaN at other
/// indices). Dense snapshots are solved with te::solve_mlu_lp on one warm
/// chain; sparse fabric snapshots with an LP over their active pairs only,
/// which has the same optimum because zero-demand pairs load no edge.
/// `domain_alive[d]` is the path-liveness mask of failure domain d.
std::vector<double> stream_optimum(
    const Instance& in, const std::vector<std::vector<bool>>& domain_alive,
    Tracer& tracer, LpLedger& led);

}  // namespace perfbench
