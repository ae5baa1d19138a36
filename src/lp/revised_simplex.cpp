#include "lp/revised_simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/lu.h"
#include "lp/sparse.h"

namespace figret::lp {
namespace {

// Devex reference weights are reset to 1 when the largest weight outgrows
// this bound (Forrest & Goldfarb's safeguard against weight blow-up).
constexpr double kDevexReset = 1e8;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class RevisedSimplex {
 public:
  using VarState = WarmStart::VarState;

  RevisedSimplex(const LpProblem& p, const SolverOptions& opt)
      : opt_(opt),
        beta_clamp_(beta_clamp(opt.simplex.feasibility_tolerance)),
        hint_(&p.start_basis()) {
    const std::size_t n = p.num_variables();
    const std::size_t m = p.num_constraints();
    n_struct_ = n;
    m_ = m;

    // Normalize rows to rhs >= 0 (negation flips the relation), mirroring
    // the dense test oracle so both see the same standard form.
    std::vector<Relation> rels(m);
    b_.assign(m, 0.0);
    negated_.assign(m, false);
    {
      std::size_t i = 0;
      for (const auto& row : p.rows()) {
        Relation rel = row.rel;
        double rhs = row.rhs;
        if (rhs < 0.0) {
          rhs = -rhs;
          negated_[i] = true;
          if (rel == Relation::kLessEq)
            rel = Relation::kGreaterEq;
          else if (rel == Relation::kGreaterEq)
            rel = Relation::kLessEq;
        }
        rels[i] = rel;
        b_[i] = rhs;
        ++i;
      }
    }

    // Column layout (identical to the dense oracle): [0, n) structural, then
    // one slack/surplus per inequality, then one artificial per >=/= row.
    std::size_t n_slack = 0, n_art = 0;
    for (Relation r : rels) {
      if (r != Relation::kEq) ++n_slack;
      if (r != Relation::kLessEq) ++n_art;
    }
    art_begin_ = n + n_slack;
    n_total_ = n + n_slack + n_art;

    std::vector<Triplet> trip;
    {
      std::size_t nnz = 0;
      for (const auto& row : p.rows()) nnz += row.terms.size();
      trip.reserve(nnz + n_slack + n_art);
    }
    {
      std::size_t i = 0;
      for (const auto& row : p.rows()) {
        const double sign = negated_[i] ? -1.0 : 1.0;
        for (const Term& t : row.terms)
          trip.push_back({static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(t.var), sign * t.coeff});
        ++i;
      }
    }
    std::size_t slack = n;
    std::size_t art = art_begin_;
    init_basis_.assign(m, 0);
    logical_.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto r32 = static_cast<std::uint32_t>(i);
      switch (rels[i]) {
        case Relation::kLessEq:
          trip.push_back({r32, static_cast<std::uint32_t>(slack), 1.0});
          logical_[i] = static_cast<std::uint32_t>(slack);
          init_basis_[i] = static_cast<std::uint32_t>(slack++);
          break;
        case Relation::kGreaterEq:
          trip.push_back({r32, static_cast<std::uint32_t>(slack), -1.0});
          trip.push_back({r32, static_cast<std::uint32_t>(art), 1.0});
          logical_[i] = static_cast<std::uint32_t>(slack++);
          init_basis_[i] = static_cast<std::uint32_t>(art++);
          break;
        case Relation::kEq:
          trip.push_back({r32, static_cast<std::uint32_t>(art), 1.0});
          logical_[i] = static_cast<std::uint32_t>(art);
          init_basis_[i] = static_cast<std::uint32_t>(art++);
          break;
      }
    }
    A_ = SparseMatrix::from_triplets(m, n_total_, trip);

    ub_.assign(n_total_, kInfinity);
    for (std::size_t j = 0; j < n; ++j) ub_[j] = p.upper_bounds()[j];
    obj_.assign(n_total_, 0.0);
    for (std::size_t j = 0; j < n; ++j) obj_[j] = p.objective()[j];

    // Structural signature for warm-start compatibility: shape plus the
    // normalized relation pattern (it determines the logical-column layout).
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t x) {
      h ^= x;
      h *= 1099511628211ULL;
    };
    mix(n);
    mix(m);
    for (Relation r : rels) mix(static_cast<std::uint64_t>(r) + 1);
    row_signature_ = h;
  }

  /// `all_logical` (the cold retry): ignore both the warm basis and the
  /// problem's start-basis hint and run the all-logical two-phase start.
  LpResult run(WarmStart* warm, SolveStats* stats, bool all_logical = false) {
    LpResult result;
    start_ = std::chrono::steady_clock::now();
    if (opt_.simplex.time_limit_seconds < 0.0) {
      // Pre-expired budget: the deterministic overrun-injection hook. Bail
      // before warm-start priming so the retry attempt sees an untouched
      // handle (no phantom hit/miss accounting).
      result.status = Status::kDeadline;
      return finish(result, warm, stats);
    }
    const WarmPrime prime =
        all_logical ? WarmPrime::kCold : try_warm_start(warm);

    if (prime == WarmPrime::kCold) {
      // A crash basis that leaves no artificial above zero is already
      // feasible for the real problem: phase 1 has nothing to do.
      bool need_phase1 = true;
      if (!all_logical && crash_init())
        need_phase1 = artificial_positive();
      else
        cold_init();
      // Phase 1: minimize the sum of artificial variables.
      if (need_phase1 && art_begin_ < n_total_) {
        cost_.assign(n_total_, 0.0);
        for (std::size_t j = art_begin_; j < n_total_; ++j) cost_[j] = 1.0;
        const std::size_t before = stats_.pivots;
        Status st = iterate(/*phase1=*/true);
        stats_.phase1_pivots += stats_.pivots - before;
        if (st != Status::kOptimal) {
          result.status = st == Status::kUnbounded ? Status::kInfeasible : st;
          return finish(result, warm, stats);
        }
        double z1 = 0.0;
        for (std::size_t i = 0; i < m_; ++i)
          if (basis_[i] >= art_begin_) z1 += std::max(beta_[i], 0.0);
        if (z1 > 1e-6) {
          result.status = Status::kInfeasible;
          return finish(result, warm, stats);
        }
      }
      // Fix artificials at zero for phase 2 (cheaper than expelling them:
      // a basic artificial pinned at value ~0 can leave but never grow).
      for (std::size_t j = art_begin_; j < n_total_; ++j) {
        ub_[j] = 0.0;
        if (state_[j] == VarState::kNonbasicUpper)
          state_[j] = VarState::kNonbasicLower;
      }
    } else if (prime == WarmPrime::kDual) {
      // The warm basis is dual feasible but primal infeasible (the RHS-only
      // resolve): the dual simplex restores primal feasibility in a handful
      // of pivots. It is an accelerator, not an authority — any breakdown
      // (stall, singular basis, apparent infeasibility under drifted
      // tolerances) abandons the warm basis and the outer solve reruns cold.
      stats_.dual_simplex_used = true;
      cost_ = obj_;
      const Status dst = dual_iterate();
      if (dst == Status::kDeadline) {
        // Out of budget, not out of luck: the warm basis stayed healthy, so
        // a cold retry would just spend the same time again. Surface the
        // typed verdict and let the caller decide on a fresh budget.
        result.status = dst;
        return finish(result, warm, stats);
      }
      if (dst != Status::kOptimal) {
        dual_collapsed_ = true;
        if (stats_.fallback == WarmFallback::kNone)
          stats_.fallback = singular_ ? WarmFallback::kSingularBasis
                                      : WarmFallback::kDualAborted;
        result.status = Status::kIterationLimit;
        return finish(result, warm, stats);
      }
    }

    // Phase 2: minimize the real objective. After a dual-simplex warm path
    // this certifies optimality of the (now primal-feasible) basis.
    cost_ = obj_;
    const Status st = iterate(/*phase1=*/false);
    result.status = st;
    if (st != Status::kOptimal) return finish(result, warm, stats);

    extract(result);
    if (warm)
      warm->store(n_struct_, n_total_, row_signature_, state_, basis_);
    return finish(result, warm, stats);
  }

  /// The warm or crash basis was accepted but could not carry the solve
  /// home; the caller must rerun all-logical two-phase (correctness never
  /// depends on the warm path or the hint).
  bool needs_cold_retry() const noexcept {
    return (stats_.warm_start_used && (singular_ || dual_collapsed_)) ||
           (stats_.crash_start && singular_);
  }

 private:
  enum class WarmPrime {
    kCold,    // no usable warm basis: two-phase start
    kPrimal,  // warm basis is primal feasible: straight to primal phase 2
    kDual,    // warm basis is dual feasible only: dual simplex first
  };

  // --- basis representation -------------------------------------------------

  void ftran(std::vector<double>& v, bool save_spike = false) {
    lu_.ftran(v, save_spike);
  }
  void btran(std::vector<double>& v) { lu_.btran(v); }

  /// Rebuilds the LU factorization for the current basis (basis order is
  /// preserved — slots keep their meaning). False: numerically singular.
  bool refactorize() {
    ++stats_.refactorizations;
    const auto t0 = Clock::now();
    const bool ok = lu_.factorize(A_, basis_);
    stats_.factorize_seconds += seconds_since(t0);
    return ok;
  }

  /// Absorbs the pivot at `slot` (entering column FTRAN'd with
  /// save_spike=true, whose value there was `alpha`) into the factorization:
  /// a Forrest–Tomlin update when safe, a rebuild otherwise, plus the
  /// periodic rebuild that bounds update-eta growth. False: the basis went
  /// numerically singular.
  bool apply_update(std::uint32_t slot, double alpha) {
    if (lu_.update(slot, alpha)) {
      ++stats_.ft_updates;
#ifndef NDEBUG
      // Debug builds validate every update against the basis it claims to
      // represent: B^{-1} a_enter must be e_slot. A violation beyond noise
      // means a (relative) drop lost an entry that mattered — rebuild
      // instead of iterating on a wrong inverse.
      if (!update_is_consistent(slot)) {
        if (!refactorize()) return false;
        compute_beta();
        return true;
      }
#endif
      if (lu_.updates_since_factorize() >= opt_.refactor_interval) {
        if (!refactorize()) return false;
        compute_beta();
      }
      return true;
    }
    // Unsafe replacement pivot: the update refused and invalidated the
    // factorization. Rebuild from the (already updated) basis.
    if (!refactorize()) return false;
    compute_beta();
    return true;
  }

#ifndef NDEBUG
  bool update_is_consistent(std::uint32_t slot) {
    std::vector<double> v(m_, 0.0);
    A_.scatter_col(basis_[slot], v);
    lu_.ftran(v);
    double err = 0.0, scale = 1.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double want = i == slot ? 1.0 : 0.0;
      err = std::max(err, std::abs(v[i] - want));
      scale = std::max(scale, std::abs(v[i]));
    }
    return err <= 1e-6 * scale;
  }
#endif

  /// beta = B^{-1} (b - sum of at-upper nonbasic columns at their bound).
  void compute_beta() {
    std::vector<double> v = b_;
    for (std::size_t j = 0; j < n_total_; ++j)
      if (state_[j] == VarState::kNonbasicUpper && ub_[j] > 0.0)
        A_.add_col_times(j, -ub_[j], v);
    ftran(v);
    beta_ = std::move(v);
  }

  // --- start bases ----------------------------------------------------------

  void cold_init() {
    stats_.warm_start_used = false;
    stats_.dual_simplex_used = false;
    for (std::size_t j = art_begin_; j < n_total_; ++j) ub_[j] = kInfinity;
    state_.assign(n_total_, VarState::kNonbasicLower);
    basis_ = init_basis_;
    for (const std::uint32_t c : basis_) state_[c] = VarState::kBasic;
    refactorize();  // all-logical start basis: identity, cannot fail
    beta_ = b_;     // all nonbasics at zero
  }

  /// Installs the problem's start-basis hint. False (the caller then starts
  /// all-logical): no hint, wrong length, a column out of range or named
  /// twice, a singular basis, or basic values outside their bounds.
  bool crash_init() {
    const std::vector<std::size_t>& hint = *hint_;
    if (hint.empty() || hint.size() != m_) return false;
    for (std::size_t j = art_begin_; j < n_total_; ++j) ub_[j] = kInfinity;
    state_.assign(n_total_, VarState::kNonbasicLower);
    basis_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t h = hint[i];
      if (h != LpProblem::kLogical && h >= n_struct_) return false;
      const std::size_t c = h == LpProblem::kLogical ? logical_[i] : h;
      if (state_[c] == VarState::kBasic) return false;
      state_[c] = VarState::kBasic;
      basis_[i] = static_cast<std::uint32_t>(c);
    }
    if (!refactorize()) return false;
    compute_beta();
    if (!primal_feasible(opt_.simplex.feasibility_tolerance)) return false;
    stats_.crash_start = true;
    return true;
  }

  /// Some basic artificial sits above the feasibility tolerance.
  bool artificial_positive() const noexcept {
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] >= art_begin_ &&
          beta_[i] > opt_.simplex.feasibility_tolerance)
        return true;
    return false;
  }

  WarmPrime try_warm_start(WarmStart* warm) {
    if (!warm || !warm->has_basis())
      return WarmPrime::kCold;
    // Probing costs a refactorization; back off when the handle keeps
    // missing (bursty traces whose bases never transfer).
    if (!warm->should_attempt()) return WarmPrime::kCold;
    stats_.warm_start_attempted = true;
    auto reject = [&](WarmFallback why) {
      stats_.fallback = why;
      warm->record_miss(why);
      return WarmPrime::kCold;
    };
    if (!warm->compatible(n_struct_, n_total_, row_signature_))
      return reject(WarmFallback::kSignatureMismatch);
    if (warm->basis().size() != m_ || warm->state().size() != n_total_)
      return reject(WarmFallback::kBasisShapeMismatch);

    state_ = warm->state();
    basis_ = warm->basis();
    std::size_t basics = 0;
    for (std::size_t j = 0; j < n_total_; ++j)
      if (state_[j] == VarState::kBasic) ++basics;
    if (basics != m_) return reject(WarmFallback::kBasisShapeMismatch);
    for (const std::uint32_t c : basis_)
      if (c >= n_total_ || state_[c] != VarState::kBasic)
        return reject(WarmFallback::kBasisShapeMismatch);

    // Warm starts jump straight to phase 2: artificials stay fixed at zero.
    for (std::size_t j = art_begin_; j < n_total_; ++j) ub_[j] = 0.0;
    // Repair statuses invalidated by bound changes (at-upper needs finite ub).
    for (std::size_t j = 0; j < n_total_; ++j)
      if (state_[j] == VarState::kNonbasicUpper && !(ub_[j] < kInfinity))
        state_[j] = VarState::kNonbasicLower;

    if (!refactorize()) return reject(WarmFallback::kSingularBasis);
    compute_beta();
    const double feas = opt_.simplex.feasibility_tolerance;
    if (primal_feasible(feas)) {
      warm->record_hit();
      stats_.warm_start_used = true;
      return WarmPrime::kPrimal;
    }
    // Primal infeasible (the RHS-only change). The basis of the previous
    // optimum is dual feasible for the previous objective; if the objective
    // moved too, repair dual feasibility by bound-flipping nonbasic columns
    // whose reduced-cost sign no longer matches their bound. Flips change no
    // basis column, only the implied nonbasic values.
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) y[i] = obj_[basis_[i]];
    btran(y);
    bool flipped = false;
    for (std::size_t j = 0; j < n_total_; ++j) {
      if (state_[j] == VarState::kBasic || ub_[j] == 0.0) continue;
      const double d = obj_[j] - A_.dot_col(j, y);
      if (state_[j] == VarState::kNonbasicLower && d < -feas) {
        if (!(ub_[j] < kInfinity))
          return reject(WarmFallback::kDualInfeasible);
        state_[j] = VarState::kNonbasicUpper;
        flipped = true;
      } else if (state_[j] == VarState::kNonbasicUpper && d > feas) {
        state_[j] = VarState::kNonbasicLower;
        flipped = true;
      }
    }
    if (flipped) {
      compute_beta();
      if (primal_feasible(feas)) {
        warm->record_hit();
        stats_.warm_start_used = true;
        return WarmPrime::kPrimal;
      }
    }
    warm->record_hit();
    stats_.warm_start_used = true;
    return WarmPrime::kDual;
  }

  bool primal_feasible(double feas) const noexcept {
    for (std::size_t i = 0; i < m_; ++i)
      if (beta_[i] < -feas || beta_[i] > ub_[basis_[i]] + feas) return false;
    return true;
  }

  // --- the primal simplex loop ----------------------------------------------

  Status iterate(bool phase1) {
    const double piv_tol = opt_.simplex.pivot_tolerance;
    devex_.assign(n_total_, 1.0);
    std::vector<double> y(m_, 0.0);
    std::vector<double> w(m_, 0.0);
    std::vector<double> rho(m_, 0.0);
    int undo_streak = 0;
    for (;;) {
      if (iterations_ >= opt_.simplex.max_iterations)
        return Status::kIterationLimit;
      if (deadline_exceeded()) return Status::kDeadline;
      const bool bland = iterations_ >= opt_.simplex.bland_after;

      // Pricing: y = c_B' B^{-1} (BTRAN), then reduced costs column by
      // column against the untouched CSC matrix — O(nnz) per pass. Devex
      // divides the squared violation by a reference weight approximating
      // the steepest-edge norm; Bland takes the first violating index.
      for (std::size_t i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
      btran(y);
      const std::size_t limit = phase1 ? n_total_ : art_begin_;
      std::size_t enter = n_total_;
      double best_score = 0.0;
      for (std::size_t j = 0; j < limit; ++j) {
        if (state_[j] == VarState::kBasic) continue;
        if (ub_[j] == 0.0) continue;  // fixed variable can never move
        const double d = cost_[j] - A_.dot_col(j, y);
        const double viol = state_[j] == VarState::kNonbasicLower ? -d : d;
        if (!(viol > piv_tol)) continue;
        if (bland) {
          enter = j;  // first violating index (columns scanned in order)
          break;
        }
        const double score = viol * viol / devex_[j];
        if (score > best_score) {
          best_score = score;
          enter = j;
        }
      }
      if (enter == n_total_) {
        // Verify apparent optimality against a freshly rebuilt inverse:
        // update drift can both hide and fabricate violating columns.
        if (lu_.updates_since_factorize() > 0) {
          if (!refactorize()) {
            singular_ = true;
            stats_.singular_basis = true;
            return Status::kIterationLimit;
          }
          compute_beta();
          continue;
        }
        return Status::kOptimal;
      }

      // FTRAN the entering column (saving the spike for the FT update);
      // dir = +1 leaving its lower bound, -1 descending from its upper.
      A_.scatter_col(enter, w);
      ftran(w, /*save_spike=*/true);
      const bool from_lower = state_[enter] == VarState::kNonbasicLower;
      const double dir = from_lower ? 1.0 : -1.0;

      // Ratio test over both bounds of every basic variable plus the
      // entering variable's own opposite bound (a bound flip, no pivot).
      double t_best = ub_[enter];  // may be infinite
      std::size_t leave = m_;
      bool leave_upper = false;
      double leave_abs = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double delta = dir * w[i];
        if (delta > piv_tol) {
          // beta_i decreases: blocks at zero.
          const double t = std::max(beta_[i], 0.0) / delta;
          if (t < t_best - 1e-12 ||
              (t < t_best + 1e-12 && leave != m_ &&
               (bland ? basis_[i] < basis_[leave]
                      : std::abs(w[i]) > leave_abs))) {
            t_best = t;
            leave = i;
            leave_upper = false;
            leave_abs = std::abs(w[i]);
          }
        } else if (delta < -piv_tol) {
          // beta_i increases: blocks at its upper bound, if finite.
          const double u = ub_[basis_[i]];
          if (u < kInfinity) {
            const double t =
                std::max(u - std::min(beta_[i], u), 0.0) / (-delta);
            if (t < t_best - 1e-12 ||
                (t < t_best + 1e-12 && leave != m_ &&
                 (bland ? basis_[i] < basis_[leave]
                        : std::abs(w[i]) > leave_abs))) {
              t_best = t;
              leave = i;
              leave_upper = true;
              leave_abs = std::abs(w[i]);
            }
          }
        }
      }

      if (leave == m_) {
        if (!(t_best < kInfinity)) return Status::kUnbounded;
        // Bound flip: the entering variable crosses to its other bound.
        for (std::size_t i = 0; i < m_; ++i) beta_[i] -= dir * t_best * w[i];
        state_[enter] = from_lower ? VarState::kNonbasicUpper
                                   : VarState::kNonbasicLower;
        ++iterations_;
        ++stats_.pivots;
        continue;
      }

      // Devex reference-weight update, against the *pre-pivot* basis: the
      // pivot row alpha_j = rho' a_j with rho = B^{-T} e_leave. Candidate
      // weights grow as their alignment with the pivot row does; the leaving
      // variable re-enters the candidate pool with the transferred weight.
      if (!bland) {
        rho.assign(m_, 0.0);
        rho[leave] = 1.0;
        btran(rho);
        const double aq = w[leave];
        const double wq = devex_[enter];
        double maxw = 1.0;
        for (std::size_t j = 0; j < limit; ++j) {
          if (j == enter || state_[j] == VarState::kBasic) continue;
          if (ub_[j] == 0.0) continue;
          const double aj = A_.dot_col(j, rho);
          if (aj != 0.0) {
            const double cand = (aj / aq) * (aj / aq) * wq;
            if (cand > devex_[j]) devex_[j] = cand;
          }
          if (devex_[j] > maxw) maxw = devex_[j];
        }
        devex_[basis_[leave]] = std::max(wq / (aq * aq), 1.0);
        if (maxw > kDevexReset) devex_.assign(n_total_, 1.0);
      }

      // Pivot: update basic values, swap statuses, absorb one FT update.
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == leave) continue;
        beta_[i] -= dir * t_best * w[i];
        if (beta_[i] < 0.0 && beta_[i] > -beta_clamp_) beta_[i] = 0.0;
      }
      const std::uint32_t out = basis_[leave];
      state_[out] = leave_upper ? VarState::kNonbasicUpper
                                : VarState::kNonbasicLower;
      beta_[leave] = from_lower ? t_best : ub_[enter] - t_best;
      if (beta_[leave] < 0.0 && beta_[leave] > -beta_clamp_)
        beta_[leave] = 0.0;
      state_[enter] = VarState::kBasic;
      basis_[leave] = static_cast<std::uint32_t>(enter);
      ++iterations_;
      ++stats_.pivots;
      if (!apply_update(static_cast<std::uint32_t>(leave), w[leave])) {
        // The replacement basis would not factorize: through the drifted
        // update etas the entering column's pivot entry looked safe, but its
        // true value is (near-)zero and the pivot made B singular. Undo the
        // pivot, rebuild from the restored basis, and re-price with exact
        // numerics — the offending entry then fails the pivot tolerance and
        // a different pivot is chosen. Only a repeat failure straight off a
        // fresh factorization means the basis is beyond recovery.
        basis_[leave] = out;
        state_[out] = VarState::kBasic;
        state_[enter] = from_lower ? VarState::kNonbasicLower
                                   : VarState::kNonbasicUpper;
        if (++undo_streak > 3 || !refactorize()) {
          singular_ = true;
          stats_.singular_basis = true;
          return Status::kIterationLimit;
        }
        compute_beta();
        continue;
      }
      undo_streak = 0;
    }
  }

  // --- the dual simplex loop ------------------------------------------------

  /// Re-optimizes a dual-feasible, primal-infeasible basis: pick the most
  /// violated basic variable, drive it to its violated bound, and let the
  /// dual ratio test pick the entering column that keeps reduced-cost signs
  /// valid. Returns kOptimal when primal feasibility is restored (phase 2
  /// then certifies optimality); anything else tells run() to abandon the
  /// warm basis.
  Status dual_iterate() {
    const double piv_tol = opt_.simplex.pivot_tolerance;
    const double feas = opt_.simplex.feasibility_tolerance;
    std::vector<double> y(m_, 0.0);
    std::vector<double> w(m_, 0.0);
    std::vector<double> rho(m_, 0.0);
    int undo_streak = 0;
    for (;;) {
      if (iterations_ >= opt_.simplex.max_iterations)
        return Status::kIterationLimit;
      if (deadline_exceeded()) return Status::kDeadline;
      const bool bland = iterations_ >= opt_.simplex.bland_after;

      // Leaving row: the largest bound violation among basic variables.
      std::size_t leave = m_;
      double worst = feas;
      double sigma = 0.0;  // +1: above upper bound, -1: below lower (zero)
      for (std::size_t i = 0; i < m_; ++i) {
        if (-beta_[i] > worst) {
          worst = -beta_[i];
          leave = i;
          sigma = -1.0;
        }
        const double u = ub_[basis_[i]];
        if (u < kInfinity && beta_[i] - u > worst) {
          worst = beta_[i] - u;
          leave = i;
          sigma = 1.0;
        }
      }
      if (leave == m_) {
        // Primal feasible — but verify against a fresh factorization first:
        // update drift can understate a violation just as it can invent one.
        if (lu_.updates_since_factorize() > 0) {
          if (!refactorize()) {
            singular_ = true;
            stats_.singular_basis = true;
            return Status::kIterationLimit;
          }
          compute_beta();
          continue;
        }
        return Status::kOptimal;
      }

      // Dual ratio test along the pivot row alpha = B^{-1}-row of `leave`:
      // among columns that would move the leaving variable toward its bound
      // without breaking a reduced-cost sign, the smallest |d_j / alpha_j|
      // enters (ties to the largest pivot for stability, smallest index
      // under Bland).
      rho.assign(m_, 0.0);
      rho[leave] = 1.0;
      btran(rho);
      for (std::size_t i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
      btran(y);
      std::size_t enter = n_total_;
      double best_ratio = kInfinity;
      double best_alpha = 0.0;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (state_[j] == VarState::kBasic || ub_[j] == 0.0) continue;
        const double alpha = A_.dot_col(j, rho);
        const double salpha = sigma * alpha;
        double ratio;
        if (state_[j] == VarState::kNonbasicLower) {
          if (!(salpha > piv_tol)) continue;
          const double d = cost_[j] - A_.dot_col(j, y);
          ratio = std::max(d, 0.0) / salpha;
        } else {
          if (!(salpha < -piv_tol)) continue;
          const double d = cost_[j] - A_.dot_col(j, y);
          ratio = std::min(d, 0.0) / salpha;
        }
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && enter != n_total_ &&
             (bland ? j < enter : std::abs(alpha) > std::abs(best_alpha)))) {
          best_ratio = ratio;
          enter = j;
          best_alpha = alpha;
        }
      }
      if (enter == n_total_) {
        // No column can absorb the violation: the dual is unbounded, i.e.
        // the primal looks infeasible. Under warm-start tolerance drift this
        // verdict is not trusted — report failure and let the caller's cold
        // two-phase solve decide feasibility.
        return Status::kInfeasible;
      }

      // FTRAN the entering column and pivot on the leaving row.
      A_.scatter_col(enter, w);
      ftran(w, /*save_spike=*/true);
      const double alpha_r = w[leave];
      if (!(std::abs(alpha_r) > piv_tol)) {
        // The BTRAN-priced row disagrees with the FTRAN'd column: the
        // factorization has drifted. Rebuild and re-price.
        if (lu_.updates_since_factorize() > 0) {
          if (!refactorize()) {
            singular_ = true;
            stats_.singular_basis = true;
            return Status::kIterationLimit;
          }
          compute_beta();
          continue;
        }
        return Status::kIterationLimit;
      }

      // Step: drive the leaving variable exactly to its violated bound. The
      // entering variable moves off its bound by t; every other basic moves
      // against the FTRAN'd column.
      const double target = sigma > 0.0 ? ub_[basis_[leave]] : 0.0;
      const double t = (beta_[leave] - target) / alpha_r;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == leave) continue;
        beta_[i] -= t * w[i];
        if (beta_[i] < 0.0 && beta_[i] > -beta_clamp_) beta_[i] = 0.0;
      }
      const std::uint32_t out = basis_[leave];
      state_[out] = sigma > 0.0 ? VarState::kNonbasicUpper
                                : VarState::kNonbasicLower;
      const VarState enter_prev = state_[enter];
      const double enter_base =
          enter_prev == VarState::kNonbasicUpper ? ub_[enter] : 0.0;
      beta_[leave] = enter_base + t;
      if (beta_[leave] < 0.0 && beta_[leave] > -beta_clamp_)
        beta_[leave] = 0.0;
      state_[enter] = VarState::kBasic;
      basis_[leave] = static_cast<std::uint32_t>(enter);
      ++iterations_;
      ++stats_.pivots;
      ++stats_.dual_pivots;
      if (!apply_update(static_cast<std::uint32_t>(leave), alpha_r)) {
        // Same recovery as the primal loop: undo the pivot that made B
        // singular and re-price from a fresh factorization.
        basis_[leave] = out;
        state_[out] = VarState::kBasic;
        state_[enter] = enter_prev;
        if (++undo_streak > 3 || !refactorize()) {
          singular_ = true;
          stats_.singular_basis = true;
          return Status::kIterationLimit;
        }
        compute_beta();
        continue;
      }
      undo_streak = 0;
    }
  }

  // --- results --------------------------------------------------------------

  void extract(LpResult& result) {
    result.x.assign(n_struct_, 0.0);
    std::vector<std::size_t> row_of(n_total_, m_);
    for (std::size_t i = 0; i < m_; ++i) row_of[basis_[i]] = i;
    for (std::size_t j = 0; j < n_struct_; ++j) {
      double v = 0.0;
      switch (state_[j]) {
        case VarState::kBasic:
          v = beta_[row_of[j]];
          break;
        case VarState::kNonbasicUpper:
          v = ub_[j];
          break;
        case VarState::kNonbasicLower:
          break;
      }
      v = std::max(v, 0.0);
      if (ub_[j] < kInfinity) v = std::min(v, ub_[j]);
      result.x[j] = v;
    }
    double z = 0.0;
    for (std::size_t j = 0; j < n_struct_; ++j) z += obj_[j] * result.x[j];
    result.objective = z;

    // Duals: y' = c_B' B^{-1} in the normalized row space, then undo the
    // rhs-sign normalization per row.
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) y[i] = obj_[basis_[i]];
    btran(y);
    result.y.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i)
      result.y[i] = negated_[i] ? -y[i] : y[i];
  }

  LpResult finish(LpResult& result, WarmStart*, SolveStats* stats) {
    result.iterations = iterations_;
    if (result.status == Status::kDeadline) stats_.deadline_hit = true;
    if (stats) *stats = stats_;
    return std::move(result);
  }

  // Samples the wall clock every 64 pivots; overshoot past the budget is
  // bounded by one sampling stride.
  bool deadline_exceeded() {
    if (opt_.simplex.time_limit_seconds <= 0.0) return false;
    if ((++deadline_probe_ & 63u) != 0) return false;
    const std::chrono::duration<double> spent =
        std::chrono::steady_clock::now() - start_;
    return spent.count() > opt_.simplex.time_limit_seconds;
  }

  SolverOptions opt_;
  double beta_clamp_ = 0.0;
  const std::vector<std::size_t>* hint_;
  std::size_t n_struct_ = 0;
  std::size_t n_total_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t m_ = 0;
  SparseMatrix A_;
  std::vector<double> b_;
  std::vector<bool> negated_;
  std::vector<double> ub_;
  std::vector<double> obj_;
  std::vector<double> cost_;
  std::vector<std::uint32_t> init_basis_;
  // Each row's own logical for start-basis hints: its slack (surplus for
  // >= rows), or its artificial for = rows.
  std::vector<std::uint32_t> logical_;
  std::uint64_t row_signature_ = 0;

  std::vector<WarmStart::VarState> state_;
  std::vector<std::uint32_t> basis_;
  std::vector<double> beta_;
  std::vector<double> devex_;
  LuFactorization lu_;
  std::size_t iterations_ = 0;
  bool singular_ = false;
  bool dual_collapsed_ = false;
  std::chrono::steady_clock::time_point start_{};
  std::uint32_t deadline_probe_ = 0;
  SolveStats stats_;
};

}  // namespace

LpResult solve_with(const LpProblem& problem, const SolverOptions& options,
                    WarmStart* warm, SolveStats* stats) {
  auto t0 = Clock::now();
  RevisedSimplex simplex(problem, options);
  const double setup = seconds_since(t0);
  SolveStats first;
  LpResult result = simplex.run(warm, &first);
  first.setup_seconds = setup;
  if (simplex.needs_cold_retry()) {
    // A warm or crash basis that was accepted but collapsed mid-solve
    // (singular refactorization, dual-simplex breakdown): retry all-logical
    // two-phase once — correctness must never depend on either.
    t0 = Clock::now();
    RevisedSimplex cold_simplex(problem, options);
    const double retry_setup = seconds_since(t0);
    SolveStats retry;
    result = cold_simplex.run(warm, &retry, /*all_logical=*/true);
    retry.setup_seconds = retry_setup;
    // The abandoned run's work still happened: report the totals.
    retry.pivots += first.pivots;
    retry.dual_pivots += first.dual_pivots;
    retry.phase1_pivots += first.phase1_pivots;
    retry.refactorizations += first.refactorizations;
    retry.ft_updates += first.ft_updates;
    retry.setup_seconds += first.setup_seconds;
    retry.factorize_seconds += first.factorize_seconds;
    if (first.warm_start_used) {
      // Reclassify the already-recorded hit — the solve finished cold.
      const WarmFallback why = first.fallback != WarmFallback::kNone
                                   ? first.fallback
                                   : WarmFallback::kSingularBasis;
      retry.warm_start_attempted = true;
      retry.fallback = why;
      if (warm) warm->demote_hit_to_miss(why);
    }
    first = retry;
  }
  if (stats) *stats = first;
  return result;
}

}  // namespace figret::lp
