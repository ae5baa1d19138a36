// Sparse LU factorization of a simplex basis with Markowitz-style ordering
// and Forrest–Tomlin column-replacement updates.
//
// This replaces the product-form-of-the-inverse eta file of the original
// revised simplex. The eta file appends one elementary matrix per pivot, so
// after k pivots every FTRAN/BTRAN pays for all k etas and the representation
// only ever grows; past a few thousand rows the refactorization needed to
// reset it starts dominating the solve. The LU representation keeps the basis
// inverse as B = L U (row/column permutations stored implicitly in the pivot
// order) and absorbs a basis change with a Forrest–Tomlin update:
//
//  * factorize() runs a right-looking sparse elimination choosing pivots by a
//    Markowitz-style rule — among the sparsest eligible columns, the entry
//    with the sparsest row that passes threshold partial pivoting — so unit
//    slack columns factor with zero fill and structural fill stays contained.
//    Active columns sit in per-length bitsets that elimination updates in
//    O(1), so a step finds its column without rescanning the others, and the
//    working storage is flat arrays reused across calls;
//  * update() replaces one basis column: the FTRAN'd spike replaces the
//    leaving column of U, the pivot order is cyclically rotated so U stays
//    triangular, and the one spiked row is re-eliminated with row operations
//    recorded on the L side (Forrest & Tomlin 1972). One update costs a
//    handful of sparse row combinations instead of a full refactorization;
//  * drop tolerances are *relative* to the largest entry of the vector being
//    compacted, never absolute, so ill-scaled LPs do not silently lose
//    entries that matter (absolute drops were a documented bug of the eta
//    file).
//
// Slot convention (shared with RevisedSimplex): the basis is an ordered list
// basis[0..m) of column ids; "slot" i is position i of that list, which is
// also the index of basic-variable values (beta). ftran() maps a row-space
// right-hand side to slot-space values; btran() maps slot-space costs to
// row-space duals.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace figret::lp {

class LuFactorization {
 public:
  struct Options {
    /// Pivots below this magnitude are unusable: a column whose best entry
    /// stays under the floor makes the basis numerically singular.
    double abs_pivot_tol = 1e-10;
    /// Threshold partial pivoting: an entry qualifies as pivot only if its
    /// magnitude is at least this fraction of its column's largest entry.
    double rel_pivot_tol = 0.01;
    /// Relative drop tolerance: entries below drop_tol * max|vector| are
    /// dropped when a column/row is compacted. Relative, not absolute — see
    /// file comment.
    double drop_tol = 1e-14;
  };

  /// Factorizes B = [A.col(basis[0]) ... A.col(basis[m-1])]. Resets any
  /// prior factorization and update history. Returns false when the basis is
  /// numerically singular (no usable pivot in some elimination step).
  bool factorize(const SparseMatrix& A, const std::vector<std::uint32_t>& basis,
                 Options opt);

  bool valid() const noexcept { return valid_; }
  std::size_t rows() const noexcept { return m_; }
  /// Forrest–Tomlin updates absorbed since the last factorize().
  std::size_t updates_since_factorize() const noexcept { return updates_; }
  /// Nonzeros across L, U, and the update row-etas (observability).
  std::size_t fill_nnz() const noexcept;
  /// U's diagonal entry for the pivot owning `slot` (tests/diagnostics).
  double diag_of(std::uint32_t slot) const noexcept {
    return urows_[slot].diag;
  }

  /// Solves B x = v: `v` holds a row-space right-hand side on entry and the
  /// slot-space solution on exit. With `save_spike` the partially transformed
  /// vector L^{-1} v is cached for a following update() — pass true when `v`
  /// is the entering column of a pivot.
  void ftran(std::vector<double>& v, bool save_spike = false);

  /// Solves B' y = v: `v` holds slot-space costs on entry and the row-space
  /// dual vector on exit.
  void btran(std::vector<double>& v);

  /// Forrest–Tomlin replacement of the basis column at `slot` by the column
  /// whose ftran(..., save_spike=true) was computed last. `pivot_estimate`
  /// is the caller's FTRAN'd pivot entry (B^{-1} a_enter at `slot`): in exact
  /// arithmetic |newdiag| = |pivot_estimate| * |old diag| (determinant
  /// lemma), and since the two sides travel different computational paths
  /// their disagreement is the standard Forrest–Tomlin accuracy test — it
  /// catches factorization drift at the first unsafe update instead of
  /// letting a near-singular replacement through. Returns false when the
  /// update is numerically unsafe (tiny replacement pivot, or the accuracy
  /// test fails); the factorization is then invalid and the caller must
  /// refactorize.
  bool update(std::uint32_t slot, double pivot_estimate);

 private:
  // One Forrest–Tomlin row operation, applied after all of L:
  // v[target] -= mult * v[source].
  struct REta {
    std::uint32_t target = 0;
    std::uint32_t source = 0;
    double mult = 0.0;
  };
  // U is stored by rows, keyed by the slot of the row's pivot. Entries
  // reference later-ordered slots; `version` invalidates entries of a column
  // that a Forrest–Tomlin update replaced (lazy deletion, garbage-collected
  // by the next factorize()).
  struct UEntry {
    std::uint32_t slot = 0;
    std::uint32_t version = 0;
    double value = 0.0;
  };
  struct URow {
    std::uint32_t pivot_row = 0;
    double diag = 0.0;
    std::vector<UEntry> entries;
  };

  // One growable list inside a pool: elements [begin, begin + size), room up
  // to begin + cap. A list that outgrows its room moves to the pool's end.
  struct Extent {
    std::size_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  // Pivot-search buckets: one per column length below kLongBucket, and one
  // shared by all longer columns, each a bitset over slots. The shared
  // bucket keeps the bitsets' memory linear in the basis size; in the MLU
  // LP only U's column (one entry per edge) is that long.
  static constexpr std::uint32_t kLongBucket = 64;

  bool live(const UEntry& e) const noexcept {
    return e.version == colversion_[e.slot];
  }

  void load_active(const SparseMatrix& A,
                   const std::vector<std::uint32_t>& basis);
  bool eliminate();
  bool find_pivot(std::uint32_t& pj, std::uint32_t& pr, double& pv) const;
  bool pivot_in_column(std::uint32_t j, std::uint32_t& pr, double& pv) const;
  void bucket_flip(std::uint32_t j, std::uint32_t len);

  std::size_t m_ = 0;
  bool valid_ = false;
  Options opt_;
  // L, one column per elimination step k: v[row] -= mult * v[lpivot_[k]]
  // for each (row, mult) in lmults_[lstart_[k], lstart_[k + 1]).
  std::vector<std::uint32_t> lpivot_;
  std::vector<std::size_t> lstart_;
  std::vector<std::pair<std::uint32_t, double>> lmults_;
  std::vector<REta> retas_;
  std::vector<URow> urows_;            // keyed by slot
  std::vector<std::uint32_t> order_;   // slots in pivot (triangular) order
  std::vector<std::uint32_t> pos_;     // slot -> position in order_
  std::vector<std::uint32_t> colversion_;
  std::size_t updates_ = 0;

  std::vector<double> spike_;  // cached L^{-1} * (entering column)
  bool have_spike_ = false;
  std::vector<double> work_;   // ftran/btran scratch
  std::vector<double> dwork_;  // update() elimination workspace (slot space)

  // factorize() working storage. Active columns' entries and the row -> slots
  // index live in two pools. Per-slot arrays are re-initialized on entry; the
  // bucket bitsets and the scatter workspace are left all-zero on every exit,
  // the singular one included, so they are never cleared whole.
  std::vector<Extent> cols_;  // slot -> its remaining entries in cpool_
  std::vector<std::pair<std::uint32_t, double>> cpool_;
  std::vector<Extent> rows_;  // row -> slots that may carry it, in rpool_
  std::vector<std::uint32_t> rpool_;
  std::vector<std::uint8_t> col_done_;
  std::size_t words_ = 0;               // 64-bit words per bucket bitset
  std::vector<std::uint64_t> buckets_;  // (kLongBucket + 1) x words_
  std::array<std::uint32_t, kLongBucket + 1> bucket_count_{};
  std::vector<double> dval_;
  std::vector<std::uint8_t> dset_;
  std::vector<std::uint8_t> inold_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace figret::lp
