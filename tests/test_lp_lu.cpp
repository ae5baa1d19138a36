// Unit battery for the sparse Markowitz LU with Forrest–Tomlin updates that
// backs the revised simplex: factorize/ftran/btran correctness on seeded
// random bases, column-replacement updates validated against the basis they
// claim to represent, the determinant-lemma accuracy test (|newdiag| =
// |pivot| * |old diag|), and the relative — never absolute — drop tolerance
// on ill-scaled instances. A differential battery checks factorize() bit for
// bit against FullScanLu, the same Markowitz rule found by rescanning every
// active column per step, on random pools and on real MLU LP bases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "lp/lu.h"
#include "lp/revised_simplex.h"
#include "lp/sparse.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "traffic/generators.h"
#include "util/rng.h"

namespace figret::lp {
namespace {

// Random column pool with a guaranteed-nonsingular leading m-column basis
// (diagonal dominance on the first m columns, random sparse fill elsewhere).
SparseMatrix random_pool(util::Rng& rng, std::size_t m, std::size_t ncols,
                         double scale = 1.0) {
  std::vector<Triplet> trip;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (j < m)
      trip.push_back({static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(j),
                      rng.uniform(0.5, 2.0) * scale});
    for (std::size_t r = 0; r < m; ++r) {
      if (j < m && r == j) continue;
      if (rng.bernoulli(0.2))
        trip.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(j),
                        rng.uniform(-1.5, 1.5) * scale});
    }
  }
  return SparseMatrix::from_triplets(m, ncols, trip);
}

// max_i |ftran(basis column i) - e_i|: zero iff the factorization represents
// exactly the claimed basis.
double basis_residual(LuFactorization& lu, const SparseMatrix& A,
                      const std::vector<std::uint32_t>& basis) {
  const std::size_t m = basis.size();
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> v(m, 0.0);
    A.scatter_col(basis[i], v);
    lu.ftran(v);
    for (std::size_t r = 0; r < m; ++r)
      err = std::max(err, std::abs(v[r] - (r == i ? 1.0 : 0.0)));
  }
  return err;
}

TEST(LpLu, FactorizeSolvesRandomBases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(30);
    SparseMatrix A = random_pool(rng, m, m + 10);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis)) << "seed " << seed;
    EXPECT_LT(basis_residual(lu, A, basis), 1e-9) << "seed " << seed;
  }
}

TEST(LpLu, BtranIsTheTransposedSolve) {
  // y = btran(c) must satisfy y' * (basis column i) == c[i] for every slot:
  // that is B' y = c, the dual pricing solve.
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(25);
    SparseMatrix A = random_pool(rng, m, m + 6);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis));
    std::vector<double> c(m);
    for (double& v : c) v = rng.uniform(-2.0, 2.0);
    std::vector<double> y = c;
    lu.btran(y);
    for (std::size_t i = 0; i < m; ++i) {
      const double got = A.dot_col(basis[i], y);
      EXPECT_NEAR(got, c[i], 1e-8) << "seed " << seed << " slot " << i;
    }
  }
}

TEST(LpLu, UpdateTracksColumnReplacements) {
  // A simplex-shaped workload: chains of column replacements through
  // update(), each validated against a from-scratch definition of the basis.
  int accepted = 0;
  for (std::uint64_t seed = 200; seed <= 230; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 4 + rng.uniform_index(25);
    const std::size_t ncols = m + 15;
    SparseMatrix A = random_pool(rng, m, ncols);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis));

    for (int step = 0; step < 30; ++step) {
      const auto j = static_cast<std::uint32_t>(rng.uniform_index(ncols));
      bool in_basis = false;
      for (const std::uint32_t c : basis) in_basis |= (c == j);
      if (in_basis) continue;
      const auto slot = static_cast<std::uint32_t>(rng.uniform_index(m));
      std::vector<double> v(m, 0.0);
      A.scatter_col(j, v);
      lu.ftran(v, /*save_spike=*/true);
      if (std::abs(v[slot]) < 1e-6) continue;  // simplex would not pivot here
      const double old_diag = lu.diag_of(slot);
      if (!lu.update(slot, v[slot])) {
        // A refusal must leave the factorization flagged for rebuild.
        EXPECT_FALSE(lu.valid());
        basis[slot] = j;
        ASSERT_TRUE(lu.factorize(A, basis));
        continue;
      }
      ++accepted;
      basis[slot] = j;
      EXPECT_LT(basis_residual(lu, A, basis), 1e-7)
          << "seed " << seed << " step " << step;
      // Determinant lemma: |newdiag| == |pivot| * |old diag|.
      const double expect = std::abs(v[slot]) * std::abs(old_diag);
      EXPECT_NEAR(std::abs(lu.diag_of(slot)), expect,
                  1e-6 * std::max(1.0, expect));
    }
  }
  EXPECT_GT(accepted, 100);  // the battery must actually exercise update()
}

TEST(LpLu, UpdateRefusesInconsistentPivotEstimate) {
  // Feeding the accuracy test a pivot estimate that contradicts the
  // re-eliminated diagonal must refuse the update and invalidate the
  // factorization — this is the drift detector that keeps a dependent
  // column from silently replacing a basis column.
  util::Rng rng(7);
  const std::size_t m = 12;
  SparseMatrix A = random_pool(rng, m, m + 8);
  std::vector<std::uint32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::uint32_t>(i);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(A, basis));
  std::vector<double> v(m, 0.0);
  A.scatter_col(m + 3, v);
  lu.ftran(v, /*save_spike=*/true);
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (std::abs(v[i]) > std::abs(v[slot])) slot = static_cast<std::uint32_t>(i);
  ASSERT_GT(std::abs(v[slot]), 1e-6);
  EXPECT_FALSE(lu.update(slot, 10.0 * v[slot] + 1.0));
  EXPECT_FALSE(lu.valid());
}

TEST(LpLu, RelativeDropKeepsIllScaledEntries) {
  // Columns scaled by 1e9: an absolute drop tolerance (the old eta file's
  // documented bug) would truncate the small-but-relatively-large entries of
  // down-scaled columns; the relative drop must keep solves accurate.
  for (const double scale : {1e-9, 1.0, 1e9}) {
    util::Rng rng(42);
    const std::size_t m = 20;
    SparseMatrix A = random_pool(rng, m, m + 10, scale);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis)) << "scale " << scale;
    EXPECT_LT(basis_residual(lu, A, basis), 1e-8) << "scale " << scale;
  }
}


// --- differential battery against a full-scan Markowitz search -------------

// Oracle: the same Markowitz rule as LuFactorization::factorize() — the
// usable active column of minimum length, lowest slot on ties, then the
// shortest row passing threshold partial pivoting — found by rescanning every
// active column at every step, with the same elimination arithmetic, plus
// the L/U solves of a fresh factorization. `revived` counts columns skipped
// as unusable at some step and pivoted at a later one. Its tolerances are a
// copy of the constants in lp/lu.cpp.
class FullScanLu {
  static constexpr double kAbsPivotTol = 1e-10;
  static constexpr double kRelPivotTol = 0.01;
  static constexpr double kDropTol = 1e-14;

 public:
  bool factorize(const SparseMatrix& A,
                 const std::vector<std::uint32_t>& basis) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    m_ = basis.size();
    lcols_.clear();
    urows_.assign(m_, URow{});
    order_.clear();
    revived = 0;
    std::vector<std::vector<std::pair<std::uint32_t, double>>> cols(m_);
    std::vector<std::vector<std::uint32_t>> row_slots(m_);
    std::vector<std::uint32_t> rowcount(m_, 0);
    for (std::size_t j = 0; j < m_; ++j) {
      const auto rows = A.col_rows(basis[j]);
      const auto vals = A.col_values(basis[j]);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        cols[j].emplace_back(rows[k], vals[k]);
        row_slots[rows[k]].push_back(static_cast<std::uint32_t>(j));
        ++rowcount[rows[k]];
      }
    }
    std::vector<bool> col_done(m_, false), skipped(m_, false);
    std::vector<double> dval(m_, 0.0);
    std::vector<bool> dset(m_, false), inold(m_, false);
    std::vector<std::uint32_t> touched;
    for (std::size_t step = 0; step < m_; ++step) {
      std::size_t pj = kNone, pr = kNone;
      double pv = 0.0;
      std::size_t best_nnz = kNone;
      for (std::size_t j = 0; j < m_; ++j) {
        if (col_done[j]) continue;
        const auto& c = cols[j];
        if (c.size() >= best_nnz) continue;
        double cmax = 0.0;
        for (const auto& [row, val] : c) cmax = std::max(cmax, std::abs(val));
        if (cmax < kAbsPivotTol) {
          if (!c.empty()) skipped[j] = true;
          continue;
        }
        const double thresh =
            std::max(kAbsPivotTol, kRelPivotTol * cmax);
        std::size_t cand_r = kNone;
        double cand_v = 0.0;
        std::uint32_t cand_rc = std::numeric_limits<std::uint32_t>::max();
        for (const auto& [row, val] : c) {
          if (std::abs(val) < thresh) continue;
          if (rowcount[row] < cand_rc ||
              (rowcount[row] == cand_rc && std::abs(val) > std::abs(cand_v))) {
            cand_rc = rowcount[row];
            cand_r = row;
            cand_v = val;
          }
        }
        if (cand_r == kNone) continue;
        pj = j;
        pr = cand_r;
        pv = cand_v;
        best_nnz = c.size();
        if (best_nnz <= 1) break;
      }
      if (pj == kNone) return false;
      if (skipped[pj]) ++revived;

      LCol lc;
      lc.pivot_row = static_cast<std::uint32_t>(pr);
      for (const auto& [row, val] : cols[pj])
        if (row != pr) lc.mults.emplace_back(row, val / pv);
      URow& ur = urows_[pj];
      ur.pivot_row = static_cast<std::uint32_t>(pr);
      ur.diag = pv;
      for (const std::uint32_t c : row_slots[pr]) {
        if (c == pj || col_done[c]) continue;
        auto& col = cols[c];
        std::size_t at = kNone;
        for (std::size_t k = 0; k < col.size(); ++k)
          if (col[k].first == pr) {
            at = k;
            break;
          }
        if (at == kNone) continue;
        const double vr = col[at].second;
        col[at] = col.back();
        col.pop_back();
        ur.entries.emplace_back(c, vr);
        if (lc.mults.empty() || vr == 0.0) continue;
        touched.clear();
        for (const auto& [row, val] : col) {
          dval[row] = val;
          dset[row] = true;
          inold[row] = true;
          touched.push_back(row);
        }
        for (const auto& [row, mult] : lc.mults) {
          if (!dset[row]) {
            dset[row] = true;
            dval[row] = 0.0;
            touched.push_back(row);
          }
          dval[row] -= mult * vr;
        }
        double cmax = 0.0;
        for (const std::uint32_t row : touched)
          cmax = std::max(cmax, std::abs(dval[row]));
        const double drop = kDropTol * cmax;
        col.clear();
        for (const std::uint32_t row : touched) {
          const double v = dval[row];
          if (std::abs(v) > drop) {
            col.emplace_back(row, v);
            if (!inold[row]) {
              row_slots[row].push_back(c);
              ++rowcount[row];
            }
          }
          dval[row] = 0.0;
          dset[row] = false;
          inold[row] = false;
        }
      }
      col_done[pj] = true;
      cols[pj].clear();
      row_slots[pr].clear();
      order_.push_back(static_cast<std::uint32_t>(pj));
      lcols_.push_back(std::move(lc));
    }
    return true;
  }

  std::size_t fill_nnz() const {
    std::size_t n = 0;
    for (const LCol& lc : lcols_) n += lc.mults.size();
    for (const URow& ur : urows_) n += 1 + ur.entries.size();
    return n;
  }
  double diag_of(std::uint32_t slot) const { return urows_[slot].diag; }

  void ftran(std::vector<double>& v) const {
    for (const LCol& lc : lcols_) {
      const double t = v[lc.pivot_row];
      if (t == 0.0) continue;
      for (const auto& [row, mult] : lc.mults) v[row] -= mult * t;
    }
    std::vector<double> x(m_, 0.0);
    for (std::size_t k = m_; k-- > 0;) {
      const URow& ur = urows_[order_[k]];
      double s = v[ur.pivot_row];
      for (const auto& [slot, value] : ur.entries) s -= value * x[slot];
      x[order_[k]] = s / ur.diag;
    }
    v.swap(x);
  }

  void btran(std::vector<double>& v) const {
    std::vector<double> y(m_, 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      const URow& ur = urows_[order_[k]];
      const double zk = v[order_[k]] / ur.diag;
      y[ur.pivot_row] = zk;
      if (zk == 0.0) continue;
      for (const auto& [slot, value] : ur.entries) v[slot] -= value * zk;
    }
    for (auto it = lcols_.rbegin(); it != lcols_.rend(); ++it) {
      double acc = y[it->pivot_row];
      for (const auto& [row, mult] : it->mults) acc -= mult * y[row];
      y[it->pivot_row] = acc;
    }
    v.swap(y);
  }

  std::size_t revived = 0;

 private:
  struct LCol {
    std::uint32_t pivot_row = 0;
    std::vector<std::pair<std::uint32_t, double>> mults;
  };
  struct URow {
    std::uint32_t pivot_row = 0;
    double diag = 0.0;
    std::vector<std::pair<std::uint32_t, double>> entries;
  };
  std::size_t m_ = 0;
  std::vector<LCol> lcols_;
  std::vector<URow> urows_;
  std::vector<std::uint32_t> order_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Factorizes `basis` with `lu` (reused across calls on purpose) and the
// oracle and asserts the same verdict and, when nonsingular, the same pivots
// (bit-identical U diagonal per slot), the same fill, and bit-identical
// ftran/btran on up to 40 basis columns and on random sparse vectors.
// Returns the verdict.
bool expect_same_as_full_scan(LuFactorization& lu, FullScanLu& oracle,
                              const SparseMatrix& A,
                              const std::vector<std::uint32_t>& basis,
                              const std::string& what) {
  const bool ok = oracle.factorize(A, basis);
  EXPECT_EQ(lu.factorize(A, basis), ok) << what;
  if (!ok || !lu.valid()) return false;
  const std::size_t m = basis.size();
  EXPECT_EQ(lu.fill_nnz(), oracle.fill_nnz()) << what;
  std::size_t diag_diffs = 0;
  for (std::uint32_t s = 0; s < m; ++s)
    diag_diffs += same_bits(lu.diag_of(s), oracle.diag_of(s)) ? 0 : 1;
  EXPECT_EQ(diag_diffs, 0u) << what;

  util::Rng rng(m);
  std::vector<std::vector<double>> rhs;
  for (std::size_t i = 0; i < std::min<std::size_t>(m, 40); ++i) {
    std::vector<double> v(m, 0.0);
    A.scatter_col(basis[(i * 7919) % m], v);
    rhs.push_back(std::move(v));
  }
  for (int r = 0; r < 3; ++r) {
    std::vector<double> v(m);
    for (double& x : v) x = rng.bernoulli(0.3) ? rng.uniform(-3.0, 3.0) : 0.0;
    rhs.push_back(std::move(v));
  }
  std::size_t diffs = 0;
  for (const std::vector<double>& b : rhs) {
    std::vector<double> x = b, xo = b, y = b, yo = b;
    lu.ftran(x);
    oracle.ftran(xo);
    lu.btran(y);
    oracle.btran(yo);
    for (std::size_t i = 0; i < m; ++i)
      diffs += (same_bits(x[i], xo[i]) ? 0 : 1) + (same_bits(y[i], yo[i]) ? 0 : 1);
  }
  EXPECT_EQ(diffs, 0u) << what;
  return ok;
}

TEST(LpLu, MatchesFullScanOnRandomPools) {
  LuFactorization lu;  // one object across all sizes: exercises reuse
  FullScanLu oracle;
  std::size_t factored = 0, singular = 0, revived = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 2 + rng.uniform_index(seed % 10 == 0 ? 150 : 40);
    const double scale =
        seed % 3 == 0 ? 1e-9 : (seed % 3 == 1 ? 1.0 : 1e9);
    SparseMatrix base = random_pool(rng, m, 2 * m + 5, scale);
    // Per-column scaling up to 1e+-6, and a quarter of the seeds shrink some
    // columns under the absolute pivot floor, where they stay unusable until
    // fill from elimination makes them usable (or the basis singular).
    std::vector<Triplet> trip;
    std::vector<double> colscale(base.cols());
    for (double& c : colscale) c = std::pow(10.0, rng.uniform(-6.0, 6.0));
    if (seed % 4 == 0)
      for (double& c : colscale)
        if (rng.bernoulli(0.3)) c = 6e-11 / scale;
    for (std::size_t j = 0; j < base.cols(); ++j) {
      const auto rows = base.col_rows(j);
      const auto vals = base.col_values(j);
      for (std::size_t k = 0; k < rows.size(); ++k)
        trip.push_back({rows[k], static_cast<std::uint32_t>(j),
                        vals[k] * colscale[j]});
    }
    const SparseMatrix A =
        SparseMatrix::from_triplets(m, base.cols(), trip);
    // The diagonally dominant leading basis, then random column subsets
    // (often singular) and a shuffled leading basis.
    std::vector<std::vector<std::uint32_t>> bases(1);
    for (std::uint32_t i = 0; i < m; ++i) bases[0].push_back(i);
    for (int r = 0; r < 3; ++r) {
      std::vector<std::uint32_t> all(A.cols());
      for (std::uint32_t j = 0; j < all.size(); ++j) all[j] = j;
      for (std::size_t i = 0; i < m; ++i)
        std::swap(all[i], all[i + rng.uniform_index(all.size() - i)]);
      all.resize(m);
      bases.push_back(std::move(all));
    }
    for (const auto& basis : bases) {
      const bool ok = expect_same_as_full_scan(
          lu, oracle, A, basis, "seed " + std::to_string(seed));
      ok ? ++factored : ++singular;
      revived += oracle.revived;
    }
  }
  // The battery must reach both verdicts and the revived-column case.
  EXPECT_GT(factored, 150u);
  EXPECT_GT(singular, 50u);
  EXPECT_GT(revived, 0u);
}

TEST(LpLu, SingularBasisLeavesTheObjectReusable) {
  util::Rng rng(11);
  const std::size_t m = 70;  // more than one 64-bit bucket word
  const SparseMatrix A = random_pool(rng, m, m + 10);
  std::vector<std::uint32_t> good(m), twice(m);
  for (std::size_t i = 0; i < m; ++i)
    good[i] = twice[i] = static_cast<std::uint32_t>(i);
  twice[m - 1] = twice[3];  // a repeated column: singular
  LuFactorization lu;
  FullScanLu oracle;
  EXPECT_FALSE(lu.factorize(A, twice));
  EXPECT_FALSE(lu.valid());
  expect_same_as_full_scan(lu, oracle, A, good, "after singular");
  EXPECT_LT(basis_residual(lu, A, good), 1e-9);
  // A basis with an all-zero column fails at once; the object recovers again.
  const SparseMatrix Z = SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  EXPECT_FALSE(lu.factorize(Z, {0, 1}));
  expect_same_as_full_scan(lu, oracle, A, good, "after zero column");
}

// The revised engine's standard form of an LpProblem: rows normalized to
// rhs >= 0, columns [structural | one slack/surplus per inequality | one
// artificial per >=/= row]. `logical[i]` is row i's own logical column, the
// one a kLogical start-basis entry names.
struct StandardForm {
  SparseMatrix A;
  std::vector<std::uint32_t> logical;
};

StandardForm standard_form(const LpProblem& p) {
  const std::size_t n = p.num_variables();
  const std::size_t m = p.num_constraints();
  std::vector<Relation> rels(m);
  std::vector<double> sign(m, 1.0);
  std::size_t n_slack = 0;
  for (std::size_t i = 0; i < m; ++i) {
    Relation rel = p.rows()[i].rel;
    if (p.rows()[i].rhs < 0.0) {
      sign[i] = -1.0;
      if (rel == Relation::kLessEq)
        rel = Relation::kGreaterEq;
      else if (rel == Relation::kGreaterEq)
        rel = Relation::kLessEq;
    }
    rels[i] = rel;
    if (rel != Relation::kEq) ++n_slack;
  }
  std::vector<Triplet> trip;
  for (std::size_t i = 0; i < m; ++i)
    for (const Term& t : p.rows()[i].terms)
      trip.push_back({static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(t.var), sign[i] * t.coeff});
  StandardForm sf;
  sf.logical.resize(m);
  auto slack = static_cast<std::uint32_t>(n);
  auto art = static_cast<std::uint32_t>(n + n_slack);
  for (std::size_t i = 0; i < m; ++i) {
    const auto r = static_cast<std::uint32_t>(i);
    if (rels[i] != Relation::kEq) {
      trip.push_back({r, slack, rels[i] == Relation::kLessEq ? 1.0 : -1.0});
      sf.logical[i] = slack++;
    }
    if (rels[i] != Relation::kLessEq) {
      trip.push_back({r, art, 1.0});
      if (rels[i] == Relation::kEq) sf.logical[i] = art;
      ++art;
    }
  }
  sf.A = SparseMatrix::from_triplets(m, art, trip);
  return sf;
}

TEST(LpLu, MatchesFullScanOnMluLpBases) {
  struct Case {
    std::string name;
    te::PathSet ps;
    traffic::TrafficTrace trace;
    bool two_failures;
  };
  std::vector<Case> cases;
  {
    const net::Graph g = net::geant();
    const te::PathSet ps = te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
    cases.push_back({"GEANT", ps, traffic::wan_trace(23, 4, 101), false});
    cases.push_back({"GEANT 2 failures", ps, traffic::wan_trace(23, 4, 101), true});
  }
  {
    const net::Graph g = net::random_regular(32, 10, 139);
    cases.push_back({"ToR-WEB",
                     te::PathSet::build(g, net::all_pairs_k_shortest(g, 3)),
                     traffic::dc_tor_trace(32, 4, 149), false});
  }
  {
    const net::FatTree ft = net::fat_tree(4);
    traffic::FabricOptions fo;
    fo.active_fraction = 0.1;
    cases.push_back({"fat-tree k=4",
                     te::PathSet::build(ft.graph, net::fat_tree_paths(ft, 4)),
                     traffic::fabric_trace(ft.graph.num_nodes(), 4, 7, fo),
                     false});
  }
  LuFactorization lu;
  FullScanLu oracle;
  for (const Case& c : cases) {
    std::vector<bool> alive;
    if (c.two_failures) alive = te::surviving_paths(c.ps, {0, 3});
    for (std::size_t t = 0; t < c.trace.size(); ++t) {
      const LpProblem prob = te::build_mlu_lp(
          c.ps, c.trace[t], nullptr, c.two_failures ? &alive : nullptr);
      const StandardForm sf = standard_form(prob);
      const std::string what = c.name + " snapshot " + std::to_string(t);

      std::vector<std::uint32_t> crash(prob.num_constraints());
      ASSERT_EQ(prob.start_basis().size(), crash.size()) << what;
      for (std::size_t i = 0; i < crash.size(); ++i)
        crash[i] = prob.start_basis()[i] == LpProblem::kLogical
                       ? sf.logical[i]
                       : static_cast<std::uint32_t>(prob.start_basis()[i]);
      EXPECT_TRUE(expect_same_as_full_scan(lu, oracle, sf.A, crash,
                                           what + " crash basis"));

      WarmStart warm;
      const LpResult res = solve_with(prob, SolverOptions{}, &warm);
      ASSERT_TRUE(res.optimal()) << what;
      ASSERT_EQ(warm.state().size(), sf.A.cols()) << what;
      EXPECT_TRUE(expect_same_as_full_scan(lu, oracle, sf.A, warm.basis(),
                                           what + " optimal basis"));
    }
  }
}

}  // namespace
}  // namespace figret::lp
