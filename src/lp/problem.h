// Linear-program description and solve verdicts, shared by the LP engine
// (lp/revised_simplex.h) and everything that builds or checks LPs.
//
// The paper's baselines (Omniscient TE, Demand-prediction TE, Google's
// Desensitization/"Hedging" TE, Oblivious TE, COPE) all reduce to LPs that
// the authors solved with Gurobi; this repository solves them with its own
// engine. The model (documented, asserted by tests):
//  * minimization only (callers negate for max);
//  * all variables have lower bound 0 and an optional finite upper bound —
//    a sensitivity cap `r_p <= F(s,d) * C_p` is a variable bound, not an
//    extra row;
//  * rows are <=, =, or >= with any sign of right-hand side.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace figret::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLessEq, kEq, kGreaterEq };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The wall-clock budget (SolveOptions::time_limit_seconds) expired. A
  /// typed partial verdict, not an exception: the basis reached so far is
  /// discarded and `x` stays empty, but callers can distinguish "ran out of
  /// time" from "the LP is bad" and retry with a fresh budget.
  kDeadline,
};

/// Number of Status values, for per-reason counter arrays.
inline constexpr std::size_t kStatusCount = 5;

/// Human-readable status name, for error messages surfaced by callers.
const char* to_string(Status status) noexcept;

/// Basic values driven into (-clamp, 0) by cancellation in pivot updates are
/// numerical noise, not infeasibility: the engine snaps them to zero. The
/// clamp is keyed to the feasibility tolerance (four decades below it, so
/// values it absorbs could never count as violations), with a floor near
/// machine precision so a very tight tolerance cannot disable the cleanup.
constexpr double beta_clamp(double feasibility_tolerance) noexcept {
  const double scaled = 1e-4 * feasibility_tolerance;
  return scaled > 1e-13 ? scaled : 1e-13;
}

/// One nonzero coefficient of a constraint row.
struct Term {
  std::size_t var = 0;
  double coeff = 0.0;
};

/// LP in the form: minimize c'x subject to rows, 0 <= x <= ub.
class LpProblem {
 public:
  /// Adds a variable with objective coefficient `obj` and upper bound `upper`
  /// (kInfinity for unbounded above). Returns the variable index.
  std::size_t add_variable(double obj = 0.0, double upper = kInfinity);

  /// Adds a constraint `sum(terms) rel rhs`. Duplicate vars in `terms` are
  /// accumulated.
  void add_constraint(std::vector<Term> terms, Relation rel, double rhs);

  void set_objective(std::size_t var, double coeff);
  void set_upper_bound(std::size_t var, double upper);
  /// Replaces the right-hand side of constraint `row`, keeping its terms and
  /// relation. This is the RHS-only perturbation entry point (failure-masked
  /// capacities, tightened budgets) that warm-started resolves are built for.
  void set_rhs(std::size_t row, double rhs);

  /// Start-basis entry meaning "this row's own logical column": its slack
  /// for an inequality row, its artificial for an equality row.
  static constexpr std::size_t kLogical = static_cast<std::size_t>(-1);
  /// Attaches a crash start-basis hint: one basic column per row, either a
  /// structural variable index or kLogical. The engine installs it
  /// on a cold solve (no compatible warm basis): a primal feasible hint goes
  /// straight to phase 2, one that leaves artificials above zero runs phase
  /// 1 from it, and a singular, infeasible, or wrong-length hint falls back
  /// to the all-logical two-phase start. An empty vector clears the hint.
  void set_start_basis(std::vector<std::size_t> basis) {
    start_basis_ = std::move(basis);
  }
  const std::vector<std::size_t>& start_basis() const noexcept {
    return start_basis_;
  }

  std::size_t num_variables() const noexcept { return obj_.size(); }
  std::size_t num_constraints() const noexcept { return rows_.size(); }

  const std::vector<double>& objective() const noexcept { return obj_; }
  const std::vector<double>& upper_bounds() const noexcept { return ub_; }

  struct Row {
    std::vector<Term> terms;
    Relation rel = Relation::kLessEq;
    double rhs = 0.0;
  };
  const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<double> obj_;
  std::vector<double> ub_;
  std::vector<Row> rows_;
  std::vector<std::size_t> start_basis_;
};

struct SolveOptions {
  /// Hard pivot cap; kIterationLimit is returned when exhausted.
  std::size_t max_iterations = 200000;
  /// Pivots before switching from Dantzig to Bland's rule.
  std::size_t bland_after = 20000;
  double pivot_tolerance = 1e-9;
  double feasibility_tolerance = 1e-7;
  /// Wall-clock budget per solve attempt. 0 disables the deadline. The clock
  /// is sampled every few dozen pivots, so overshoot is bounded by a handful
  /// of pivot times. A *negative* budget means "already expired": the solve
  /// returns kDeadline before its first pivot — the deterministic
  /// fault-injection hook used by te/chaos.h to simulate solver overruns.
  double time_limit_seconds = 0.0;
};

struct LpResult {
  Status status = Status::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  /// Dual value per constraint row, populated only when optimal. Sign
  /// convention for the min problem: kLessEq rows have y <= 0, kGreaterEq
  /// rows y >= 0, kEq rows free; the reduced cost c_j - y'a_j is >= 0 for
  /// variables at their lower bound and <= 0 at their upper bound. Together
  /// with `x` this forms the strong-duality certificate that
  /// lp/certificates.h verifies.
  std::vector<double> y;
  std::size_t iterations = 0;

  bool optimal() const noexcept { return status == Status::kOptimal; }
};

}  // namespace figret::lp
