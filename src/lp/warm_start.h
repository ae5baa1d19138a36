// Warm-start handle for the revised simplex.
//
// Consecutive TE snapshots produce LPs with the same rows and variables and
// only different numbers (demand coefficients, RHS, bounds, objective). The
// optimal basis of snapshot t is almost always primal feasible — and nearly
// optimal — for snapshot t+1, so re-priming the next solve from it skips
// phase 1 entirely and usually needs a handful of pivots instead of hundreds.
// When the re-primed basis is *not* primal feasible (the signature workload:
// RHS-only perturbations from failure-masked capacities, tightened bounds,
// cutting planes) it is still dual feasible, and the engine re-optimizes it
// with the dual simplex instead of discarding it — see lp/revised_simplex.h.
//
// The handle stores the column-status vector and the basis (row -> column)
// of the last optimal solve, plus a structural signature (variable count,
// row count, normalized relation pattern). A solve offered a handle with a
// matching signature refactorizes the stored basis against the *new* matrix;
// a mismatch, singular basis, or dual-infeasible re-prime falls back to a
// cold two-phase start — recorded per reason, so callers can tell *why* a
// chain went cold — and warm starts can never change which LP is solved,
// only how fast.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace figret::lp {

/// Why a warm-start attempt fell back to a cold solve (kNone: it did not).
/// Recorded in SolveStats per solve and counted per reason by WarmStart, so
/// "the fast path silently went cold" is observable instead of invisible.
enum class WarmFallback : std::uint8_t {
  kNone = 0,
  /// The stored basis belongs to an LP with a different shape/row pattern.
  kSignatureMismatch,
  /// The stored state/basis vectors are malformed for this LP.
  kBasisShapeMismatch,
  /// The stored basis is numerically singular against the new matrix.
  kSingularBasis,
  /// Re-primed basis is primal infeasible and could not be made dual
  /// feasible (objective changed against an unbounded-above column).
  kDualInfeasible,
  /// The dual simplex accepted the basis but could not finish from it
  /// (numerical collapse or iteration stall); the solve reran cold.
  kDualAborted,
};
inline constexpr std::size_t kWarmFallbackCount = 6;

/// Short stable name for logs/benches ("none", "signature", ...).
const char* to_string(WarmFallback fallback) noexcept;

class WarmStart {
 public:
  /// Per-column simplex status, stored for structural + logical columns.
  enum class VarState : std::uint8_t {
    kNonbasicLower = 0,
    kNonbasicUpper = 1,
    kBasic = 2,
  };

  bool has_basis() const noexcept { return !basis_.empty(); }

  /// Solves warm-started from this handle. Both the primal path (basis
  /// still feasible) and the dual-simplex path count.
  std::size_t hits() const noexcept { return hits_; }
  /// Solves that fell back to a cold start.
  std::size_t misses() const noexcept { return misses_; }
  /// Cold fallbacks attributed to one reason.
  std::size_t misses_by(WarmFallback reason) const noexcept {
    return miss_reasons_[static_cast<std::size_t>(reason)];
  }
  const std::array<std::size_t, kWarmFallbackCount>& miss_reasons()
      const noexcept {
    return miss_reasons_;
  }

  /// Deterministic attempt throttle. Probing a warm basis costs one
  /// refactorization while a hit saves an order of magnitude more pivot
  /// work, so probing stays on as long as the handle earns any hits; only a
  /// persistent near-zero hit rate (bursty DC traces whose bases never
  /// transfer) triggers a back-off, with a re-probe every eighth solve in
  /// case the trace calms down. Mutates the skip counter: call once per
  /// solve.
  bool should_attempt() noexcept;

  // --- engine interface (used by solve_with) --------------------------------

  /// True when the stored basis belongs to an LP with this shape.
  bool compatible(std::size_t num_vars, std::size_t num_cols,
                  std::uint64_t row_signature) const noexcept;

  void store(std::size_t num_vars, std::size_t num_cols,
             std::uint64_t row_signature, std::vector<VarState> state,
             std::vector<std::uint32_t> basis);

  const std::vector<VarState>& state() const noexcept { return state_; }
  const std::vector<std::uint32_t>& basis() const noexcept { return basis_; }

  void record_hit() noexcept {
    ++hits_;
    ++recent_hits_;
    decay_window();
  }
  void record_miss(WarmFallback reason) noexcept {
    ++misses_;
    ++miss_reasons_[static_cast<std::size_t>(reason)];
    ++recent_misses_;
    decay_window();
  }
  /// A warm start that was accepted but collapsed mid-solve (singular basis,
  /// dual-simplex stall) ultimately ran cold: reclassify it so hits()
  /// reports only solves that genuinely finished from the warm basis.
  void demote_hit_to_miss(WarmFallback reason) noexcept {
    if (hits_ > 0) --hits_;
    if (recent_hits_ > 0) --recent_hits_;
    record_miss(reason);
  }

 private:
  /// Exponentially ages the throttle window so a regime change (calm trace
  /// turning bursty or vice versa) re-decides within ~64 solves instead of
  /// being outvoted by the handle's whole lifetime. The public hits()/
  /// misses() totals are never decayed — they stay exact for reporting.
  void decay_window() noexcept {
    if (recent_hits_ + recent_misses_ >= 64) {
      recent_hits_ /= 2;
      recent_misses_ /= 2;
    }
  }
  std::size_t num_vars_ = 0;
  std::size_t num_cols_ = 0;
  std::uint64_t row_signature_ = 0;
  std::vector<VarState> state_;
  std::vector<std::uint32_t> basis_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::array<std::size_t, kWarmFallbackCount> miss_reasons_{};
  std::size_t recent_hits_ = 0;
  std::size_t recent_misses_ = 0;
  std::size_t skips_since_attempt_ = 0;
};

}  // namespace figret::lp
