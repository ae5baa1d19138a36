#include "lp/problem.h"

#include <stdexcept>

namespace figret::lp {

std::size_t LpProblem::add_variable(double obj, double upper) {
  if (upper < 0.0)
    throw std::invalid_argument("LpProblem: upper bound must be >= 0");
  obj_.push_back(obj);
  ub_.push_back(upper);
  return obj_.size() - 1;
}

void LpProblem::add_constraint(std::vector<Term> terms, Relation rel,
                               double rhs) {
  for (const Term& t : terms)
    if (t.var >= obj_.size())
      throw std::out_of_range("LpProblem: constraint references unknown var");
  rows_.push_back(Row{std::move(terms), rel, rhs});
}

void LpProblem::set_objective(std::size_t var, double coeff) {
  obj_.at(var) = coeff;
}

void LpProblem::set_upper_bound(std::size_t var, double upper) {
  if (upper < 0.0)
    throw std::invalid_argument("LpProblem: upper bound must be >= 0");
  ub_.at(var) = upper;
}

void LpProblem::set_rhs(std::size_t row, double rhs) {
  rows_.at(row).rhs = rhs;
}

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterationLimit:
      return "iteration limit";
    case Status::kDeadline:
      return "deadline";
  }
  return "unknown";
}

}  // namespace figret::lp
