#include "lp/lu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace figret::lp {

namespace {

// Pivots below this magnitude are unusable: a column whose best entry stays
// under the floor makes the basis numerically singular.
constexpr double kAbsPivotTol = 1e-10;
// Threshold partial pivoting: an entry qualifies as pivot only if its
// magnitude is at least this fraction of its column's largest entry.
constexpr double kRelPivotTol = 0.01;
// Entries below kDropTol * max|vector| are dropped when a column or row is
// compacted — relative, never absolute (see lp/lu.h).
constexpr double kDropTol = 1e-14;

// Room for `need` elements in `list`, an extent of `pool`: a list that
// outgrows its room moves to the pool's end with twice the room, keeping its
// elements.
template <class T, class Extent>
void reserve_in_pool(std::vector<T>& pool, Extent& list, std::uint32_t need) {
  if (need <= list.cap) return;
  const std::size_t at = pool.size();
  list.cap = std::max<std::uint32_t>(2 * need, 4);
  pool.resize(at + list.cap);
  std::copy_n(pool.begin() + static_cast<std::ptrdiff_t>(list.begin),
              list.size, pool.begin() + static_cast<std::ptrdiff_t>(at));
  list.begin = at;
}

}  // namespace

bool LuFactorization::factorize(const SparseMatrix& A,
                                const std::vector<std::uint32_t>& basis) {
  m_ = basis.size();
  valid_ = false;
  updates_ = 0;
  have_spike_ = false;
  lpivot_.clear();
  lpivot_.reserve(m_);
  lstart_.assign(1, 0);
  lstart_.reserve(m_ + 1);
  lmults_.clear();
  retas_.clear();
  urows_.resize(m_);
  for (URow& ur : urows_) {
    ur.pivot_row = 0;
    ur.diag = 0.0;
    ur.entries.clear();
  }
  order_.clear();
  order_.reserve(m_);
  pos_.assign(m_, 0);
  colversion_.assign(m_, 0);
  if (m_ == 0) {
    valid_ = true;
    return true;
  }
  load_active(A, basis);
  if (!eliminate()) {
    // Singular: take the columns still active out of their buckets, so the
    // next call starts from empty bitsets.
    for (std::uint32_t j = 0; j < m_; ++j)
      if (!col_done_[j]) bucket_flip(j, cols_[j].size);
    return false;
  }
  for (std::size_t k = 0; k < m_; ++k) pos_[order_[k]] = static_cast<std::uint32_t>(k);
  valid_ = true;
  return true;
}

void LuFactorization::load_active(const SparseMatrix& A,
                                  const std::vector<std::uint32_t>& basis) {
  // Working copy of the basis columns, plus a row -> slots index so the
  // elimination of a pivot row touches only the columns that actually carry
  // it. Each row list starts with exactly the room its count needs.
  cols_.assign(m_, Extent{});
  rows_.assign(m_, Extent{});
  cpool_.clear();
  rpool_.clear();
  for (std::size_t j = 0; j < m_; ++j)
    for (const std::uint32_t row : A.col_rows(basis[j])) ++rows_[row].cap;
  std::size_t at = 0;
  for (Extent& r : rows_) {
    r.begin = at;
    at += r.cap;
  }
  rpool_.resize(at);
  cpool_.resize(at);
  at = 0;
  for (std::size_t j = 0; j < m_; ++j) {
    const auto rows = A.col_rows(basis[j]);
    const auto vals = A.col_values(basis[j]);
    const auto len = static_cast<std::uint32_t>(rows.size());
    cols_[j] = {at, len, len};
    for (std::size_t k = 0; k < rows.size(); ++k) {
      cpool_[at + k] = {rows[k], vals[k]};
      Extent& r = rows_[rows[k]];
      rpool_[r.begin + r.size++] = static_cast<std::uint32_t>(j);
    }
    at += len;
  }

  col_done_.assign(m_, 0);
  const std::size_t words = (m_ + 63) / 64;
  if (words != words_) {
    words_ = words;
    buckets_.assign((kLongBucket + 1) * words_, 0);
  }
  for (std::uint32_t j = 0; j < m_; ++j) bucket_flip(j, cols_[j].size);
  if (dval_.size() < m_) {
    dval_.resize(m_, 0.0);
    dset_.resize(m_, 0);
    inold_.resize(m_, 0);
  }
}

// Adds slot j to the bucket of length `len`, or removes it if present.
void LuFactorization::bucket_flip(std::uint32_t j, std::uint32_t len) {
  const std::uint32_t b = std::min(len, kLongBucket);
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  std::uint64_t& word = buckets_[b * words_ + j / 64];
  word ^= bit;
  if (word & bit)
    ++bucket_count_[b];
  else
    --bucket_count_[b];
}

// Threshold partial pivoting inside column j: among entries within
// kRelPivotTol of the column's largest, the one in the shortest row, larger
// magnitude on ties. A row's length counts every slot ever listed for it,
// stale ids included — an approximate fill heuristic. False: the column is
// unusable for now (its largest entry is under kAbsPivotTol).
bool LuFactorization::pivot_in_column(std::uint32_t j, std::uint32_t& pr,
                                      double& pv) const {
  const Extent& c = cols_[j];
  const auto* e = cpool_.data() + c.begin;
  double cmax = 0.0;
  for (std::uint32_t k = 0; k < c.size; ++k)
    cmax = std::max(cmax, std::abs(e[k].second));
  if (cmax < kAbsPivotTol) return false;
  const double thresh = std::max(kAbsPivotTol, kRelPivotTol * cmax);
  bool found = false;
  std::uint32_t cand_r = 0;
  double cand_v = 0.0;
  std::uint32_t cand_rc = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t k = 0; k < c.size; ++k) {
    const auto [row, val] = e[k];
    if (std::abs(val) < thresh) continue;
    const std::uint32_t rc = rows_[row].size;
    if (rc < cand_rc || (rc == cand_rc && std::abs(val) > std::abs(cand_v))) {
      cand_rc = rc;
      cand_r = row;
      cand_v = val;
      found = true;
    }
  }
  if (found) {
    pr = cand_r;
    pv = cand_v;
  }
  return found;
}

// Markowitz-style column choice: the usable active column of minimum length,
// lowest slot on ties. Buckets are visited shortest first and each bitset in
// ascending slot order, so in a single-length bucket the first usable column
// wins; the long bucket mixes lengths and is searched for its minimum.
bool LuFactorization::find_pivot(std::uint32_t& pj, std::uint32_t& pr,
                                 double& pv) const {
  for (std::uint32_t b = 1; b <= kLongBucket; ++b) {
    if (bucket_count_[b] == 0) continue;
    const std::uint64_t* bits = buckets_.data() + b * words_;
    std::uint32_t best_len = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t x = bits[w]; x != 0; x &= x - 1) {
        const auto j = static_cast<std::uint32_t>(w * 64 + std::countr_zero(x));
        if (cols_[j].size >= best_len) continue;
        if (!pivot_in_column(j, pr, pv)) continue;
        pj = j;
        if (b < kLongBucket) return true;
        best_len = cols_[j].size;
      }
    }
    if (best_len != std::numeric_limits<std::uint32_t>::max()) return true;
  }
  return false;  // no usable pivot anywhere: singular
}

bool LuFactorization::eliminate() {
  for (std::size_t step = 0; step < m_; ++step) {
    std::uint32_t pj = 0, pr = 0;
    double pv = 0.0;
    if (!find_pivot(pj, pr, pv)) return false;
    bucket_flip(pj, cols_[pj].size);
    col_done_[pj] = 1;

    lpivot_.push_back(pr);
    {
      const Extent& pc = cols_[pj];
      for (std::uint32_t k = 0; k < pc.size; ++k) {
        const auto [row, val] = cpool_[pc.begin + k];
        if (row != pr) lmults_.emplace_back(row, val / pv);
      }
    }
    const std::size_t lb = lstart_.back();
    const std::size_t le = lmults_.size();
    lstart_.push_back(le);
    URow& ur = urows_[pj];
    ur.pivot_row = pr;
    ur.diag = pv;

    // Eliminate row pr from every other active column carrying it. The
    // removed entries are exactly this pivot's U row. The row list may hold
    // stale ids (entries since dropped); they are skipped when the lookup
    // misses. Fill appends only to other rows' lists, so pr's stays put.
    const Extent prow = rows_[pr];
    for (std::uint32_t s = 0; s < prow.size; ++s) {
      const std::uint32_t c = rpool_[prow.begin + s];
      if (col_done_[c]) continue;
      Extent& col = cols_[c];
      auto* e = cpool_.data() + col.begin;
      std::uint32_t at = 0;
      while (at < col.size && e[at].first != pr) ++at;
      if (at == col.size) continue;  // stale index entry
      const std::uint32_t old_len = col.size;
      const double vr = e[at].second;
      e[at] = e[--col.size];
      ur.entries.push_back({c, 0, vr});
      if (lb != le && vr != 0.0) {
        // col -= vr * L column, via scatter/gather with relative drops.
        touched_.clear();
        for (std::uint32_t k = 0; k < col.size; ++k) {
          const std::uint32_t row = e[k].first;
          dval_[row] = e[k].second;
          dset_[row] = 1;
          inold_[row] = 1;
          touched_.push_back(row);
        }
        for (std::size_t k = lb; k < le; ++k) {
          const auto [row, mult] = lmults_[k];
          if (!dset_[row]) {
            dset_[row] = 1;
            dval_[row] = 0.0;
            touched_.push_back(row);
          }
          dval_[row] -= mult * vr;
        }
        double cmax = 0.0;
        for (const std::uint32_t row : touched_)
          cmax = std::max(cmax, std::abs(dval_[row]));
        const double drop = kDropTol * cmax;
        col.size = 0;
        reserve_in_pool(cpool_, col,
                        static_cast<std::uint32_t>(touched_.size()));
        for (const std::uint32_t row : touched_) {
          const double v = dval_[row];
          if (std::abs(v) > drop) {
            cpool_[col.begin + col.size++] = {row, v};
            if (!inold_[row]) {
              Extent& rl = rows_[row];
              reserve_in_pool(rpool_, rl, rl.size + 1);
              rpool_[rl.begin + rl.size++] = c;
            }
          }
          dval_[row] = 0.0;
          dset_[row] = 0;
          inold_[row] = 0;
        }
      }
      if (std::min(old_len, kLongBucket) != std::min(col.size, kLongBucket)) {
        bucket_flip(c, old_len);
        bucket_flip(c, col.size);
      }
    }
    rows_[pr].size = 0;
    order_.push_back(pj);
  }
  return true;
}

std::size_t LuFactorization::fill_nnz() const noexcept {
  std::size_t n = retas_.size() + lmults_.size();
  for (const URow& ur : urows_) n += 1 + ur.entries.size();
  return n;
}

void LuFactorization::ftran(std::vector<double>& v, bool save_spike) {
  for (std::size_t k = 0; k < lpivot_.size(); ++k) {
    const double t = v[lpivot_[k]];
    if (t == 0.0) continue;
    for (std::size_t i = lstart_[k]; i < lstart_[k + 1]; ++i)
      v[lmults_[i].first] -= lmults_[i].second * t;
  }
  for (const REta& re : retas_) v[re.target] -= re.mult * v[re.source];
  if (save_spike) {
    spike_ = v;
    have_spike_ = true;
  }
  // Back substitution on U, from the last pivot up: every entry of a row
  // references a later-ordered slot, already solved.
  work_.assign(m_, 0.0);
  for (std::size_t k = m_; k-- > 0;) {
    const std::uint32_t slot = order_[k];
    const URow& ur = urows_[slot];
    double s = v[ur.pivot_row];
    for (const UEntry& e : ur.entries)
      if (live(e)) s -= e.value * work_[e.slot];
    work_[slot] = s / ur.diag;
  }
  v.swap(work_);
}

void LuFactorization::btran(std::vector<double>& v) {
  // Solve U' z = v by forward substitution in pivot order, scattering each
  // solved component into the still-unsolved residuals.
  work_.assign(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    const std::uint32_t slot = order_[k];
    const URow& ur = urows_[slot];
    const double zk = v[slot] / ur.diag;
    work_[ur.pivot_row] = zk;
    if (zk == 0.0) continue;
    for (const UEntry& e : ur.entries)
      if (live(e)) v[e.slot] -= e.value * zk;
  }
  // Transposed update row-etas, then transposed L columns, both in reverse.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it)
    work_[it->source] -= it->mult * work_[it->target];
  for (std::size_t k = lpivot_.size(); k-- > 0;) {
    double acc = work_[lpivot_[k]];
    for (std::size_t i = lstart_[k]; i < lstart_[k + 1]; ++i)
      acc -= lmults_[i].second * work_[lmults_[i].first];
    work_[lpivot_[k]] = acc;
  }
  v.swap(work_);
}

bool LuFactorization::update(std::uint32_t slot, double pivot_estimate) {
  if (!valid_ || !have_spike_) return false;
  have_spike_ = false;
  ++updates_;
  const std::uint32_t t = pos_[slot];
  const std::uint32_t r = urows_[slot].pivot_row;

  // The spike replaces column `slot` of U: stale out the old column ...
  ++colversion_[slot];
  double smax = 0.0;
  for (std::size_t i = 0; i < m_; ++i) smax = std::max(smax, std::abs(spike_[i]));
  const double drop = kDropTol * smax;
  // ... and insert the spike's entries into every other pivot row (each row
  // of B belongs to exactly one pivot). With the pivot order rotated below,
  // the spike column is ordered last, so all of these sit above the diagonal.
  for (std::size_t q = 0; q < m_; ++q) {
    if (q == slot) continue;
    const double val = spike_[urows_[q].pivot_row];
    if (std::abs(val) > drop)
      urows_[q].entries.push_back(
          {slot, colversion_[slot], val});
  }

  // Re-eliminate the spiked row r (Forrest–Tomlin): its old entries all
  // reference slots ordered after t; subtracting each such pivot row in order
  // annihilates them (fill lands on later slots and is annihilated in turn),
  // leaving only the new diagonal in the spike column. The row operations are
  // recorded as etas on the L side.
  if (m_ > dwork_.size()) dwork_.assign(m_, 0.0);
  dwork_[slot] = spike_[r];
  for (const UEntry& e : urows_[slot].entries)
    if (live(e)) dwork_[e.slot] += e.value;
  for (std::size_t k = t + 1; k < m_; ++k) {
    const std::uint32_t q = order_[k];
    const double piv = dwork_[q];
    dwork_[q] = 0.0;
    if (piv == 0.0) continue;
    const URow& uq = urows_[q];
    const double mu = piv / uq.diag;
    retas_.push_back({r, uq.pivot_row, mu});
    for (const UEntry& e : uq.entries)
      if (live(e)) dwork_[e.slot] -= mu * e.value;
  }
  const double newdiag = dwork_[slot];
  dwork_[slot] = 0.0;
  if (!(std::abs(newdiag) > kAbsPivotTol)) {
    // Unsafe replacement pivot: the factorization is no longer usable. The
    // caller refactorizes from scratch, which discards all of the state the
    // steps above touched.
    valid_ = false;
    return false;
  }
  // Forrest–Tomlin accuracy test (see header): the re-eliminated diagonal
  // and the caller's FTRAN'd pivot entry must tell the same story. A
  // disagreement means the factorization has drifted — most dangerously,
  // that a replacement column which is actually dependent on the rest of the
  // basis slipped past the pivot tolerance. Refuse, so the caller rebuilds
  // before any iterate trusts the corrupt inverse.
  const double expect = std::abs(pivot_estimate) * std::abs(urows_[slot].diag);
  const double got = std::abs(newdiag);
  if (std::abs(got - expect) > 1e-5 * std::max(got, expect)) {
    valid_ = false;
    return false;
  }

  // Cyclic rotation of the pivot order: the replaced slot moves last.
  order_.erase(order_.begin() + t);
  order_.push_back(slot);
  for (std::size_t k = t; k < m_; ++k) pos_[order_[k]] = static_cast<std::uint32_t>(k);
  urows_[slot].diag = newdiag;
  urows_[slot].entries.clear();
  return true;
}

}  // namespace figret::lp
