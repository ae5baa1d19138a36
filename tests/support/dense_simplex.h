// Dense-tableau LP oracle for differential tests and benches.
//
// A two-phase bounded-variable primal simplex on a dense tableau: Dantzig
// pricing with a switch to Bland's rule after SolveOptions::bland_after
// pivots, infeasibility detected by the phase-1 residual, unboundedness by
// the ratio test. It shares nothing with the library's engine
// (lp/revised_simplex.h) beyond the LpProblem/LpResult types, which is what
// makes it an independent reference: the LP batteries solve every case with
// both and compare verdicts, objectives, and certificates. It ignores the
// problem's start-basis hint and has no warm starts. O(rows * cols) memory
// and work per pivot — fine for test and bench sizes, not for production.
#pragma once

#include "lp/problem.h"

namespace figret::lp {

/// Solves the LP on the dense tableau. `x` and `y` are populated only when
/// optimal; `iterations` counts pivots.
LpResult solve_dense(const LpProblem& problem, const SolveOptions& options = {});

}  // namespace figret::lp
