// Sparse revised simplex (primal + dual) over a Forrest–Tomlin LU basis:
// the library's one LP engine, behind the LpProblem/Status/LpResult API of
// lp/problem.h. The dense tableau that the LP test battery compares it
// against lives with the tests (tests/support/dense_simplex.h). Design:
//  * the constraint matrix is stored once in CSC (lp/sparse.h) and never
//    modified — pricing is O(nnz), not O(rows * cols);
//  * the basis inverse is a Markowitz-ordered sparse LU factorization with
//    Forrest–Tomlin column-replacement updates (lp/lu.h). Each pivot is
//    absorbed by one cheap update; the factorization is rebuilt every
//    `refactor_interval` updates (or immediately when an update is
//    numerically unsafe) to bound drift and update-eta length;
//  * variable upper bounds are handled natively: nonbasic variables rest at
//    either bound, the ratio test caps steps at both bounds, and bound flips
//    cost no basis change;
//  * pricing is devex (Forrest & Goldfarb reference weights), which keeps
//    pivot counts near steepest-edge at Dantzig cost; Bland's rule still
//    takes over after `SolveOptions::bland_after` pivots as the anti-cycling
//    backstop;
//  * an optimal basis can be captured in a WarmStart handle and re-primed
//    into the next solve. When the re-primed basis is primal feasible the
//    solve continues with the primal simplex; when an RHS-only change left
//    it primal-infeasible (but still dual feasible — the typical
//    failure-masked-capacity resolve) the **dual simplex** re-optimizes it
//    in a handful of pivots instead of falling back to a cold two-phase
//    start. Cold fallbacks that do happen are recorded per reason in
//    SolveStats::fallback and the WarmStart handle;
//  * without a usable warm basis, a start-basis hint attached to the
//    problem (LpProblem::set_start_basis) crash-starts the solve: a primal
//    feasible hint goes straight to phase 2, one that leaves artificials
//    basic runs phase 1 from it, and anything else starts all-logical.
//
// The dual path and the crash start are accelerators, never authorities:
// after the dual path reaches primal feasibility the primal phase 2
// certifies optimality, and any breakdown (stall, numerical collapse,
// apparent infeasibility) reruns the solve all-logical two-phase, so neither
// warm starts nor hints can change which answer is returned.
#pragma once

#include "lp/problem.h"
#include "lp/warm_start.h"

namespace figret::lp {

/// Solver knobs, shared by all LP call sites.
struct SolverOptions {
  /// Pivot caps, tolerances and the wall-clock budget.
  SolveOptions simplex;
  /// Forrest–Tomlin updates between LU rebuilds.
  std::size_t refactor_interval = 96;
};

/// Per-solve observability (pivot counts and per-phase timers for
/// Table-2-style benches). Counters and timers cover the cold retry too.
struct SolveStats {
  /// All basis changes and bound flips, primal and dual phases combined.
  std::size_t pivots = 0;
  /// The subset of `pivots` performed by the dual simplex.
  std::size_t dual_pivots = 0;
  /// The subset of `pivots` spent in phase 1 (driving artificials out).
  std::size_t phase1_pivots = 0;
  std::size_t refactorizations = 0;
  /// Forrest–Tomlin updates absorbed without a rebuild.
  std::size_t ft_updates = 0;
  /// Wall time building the engine's standard form (problem -> CSC matrix,
  /// right-hand sides, bounds), once per attempt.
  double setup_seconds = 0.0;
  /// Wall time in LU factorizations, summed over every refactorization.
  double factorize_seconds = 0.0;
  bool warm_start_attempted = false;
  /// The warm basis was accepted and the solve finished from it (via the
  /// primal path or the dual path — see `dual_simplex_used`).
  bool warm_start_used = false;
  /// The warm basis was primal-infeasible and the dual simplex re-optimized
  /// it (implies warm_start_used when the solve finished warm).
  bool dual_simplex_used = false;
  /// The cold start installed the problem's start-basis hint
  /// (LpProblem::set_start_basis) instead of the all-logical basis. Not a
  /// warm start: it never counts as a WarmStart hit or miss.
  bool crash_start = false;
  /// The wall-clock budget (SolveOptions::time_limit_seconds) expired and
  /// the solve returned Status::kDeadline. Never triggers a cold retry —
  /// the budget is a hard ceiling on this attempt, and retry policy belongs
  /// to the caller (te::ServingLoop backs off and retries with a fresh
  /// budget).
  bool deadline_hit = false;
  /// A refactorization found the basis numerically singular mid-solve. The
  /// solve then reports kIterationLimit (the conservative verdict — there is
  /// no dedicated Status for numerical failure yet); this flag tells the
  /// caller that raising the pivot budget will not help.
  bool singular_basis = false;
  /// Why this solve abandoned its warm basis (kNone: it kept it, or no warm
  /// start was attempted). Mirrors the per-reason counters on WarmStart.
  WarmFallback fallback = WarmFallback::kNone;
};

/// Solves the LP. `warm` (optional, in/out) re-primes this solve and
/// captures the optimal basis for the next one; `stats` (optional, out)
/// reports pivot/refactorization counts.
LpResult solve_with(const LpProblem& problem, const SolverOptions& options = {},
                    WarmStart* warm = nullptr, SolveStats* stats = nullptr);

}  // namespace figret::lp
