// Demand matrices and traffic traces (paper §3: "Traffic demands").
//
// Demands are stored in *pair space*: the n*(n-1) ordered source-destination
// pairs, excluding the diagonal. Pair space is the natural indexing for every
// consumer in this repository — the DNN input/output layout, the per-pair
// variance statistics of Fig 2, and the per-pair path sets.
//
// A snapshot can be held dense (one double per pair) or sparse (sorted
// (pair, value) coordinate lists). Fabric-scale traces touch well under 1% of
// the n*(n-1) pairs, so the sparse form is what keeps per-snapshot hot paths
// (edge loads, NN input assembly, statistics) proportional to active pairs
// rather than to n². Consumers iterate via for_each_active(); random access
// through the const operator[] works on either form (binary search when
// sparse). Mutating accessors and values() require the dense form — they
// throw std::logic_error on a sparse matrix so accidental densification shows
// up as a test failure instead of a silent n² walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace figret::traffic {

/// Number of ordered SD pairs for an n-node network.
constexpr std::size_t num_pairs(std::size_t n) noexcept {
  return n * (n - 1);
}

/// Index of ordered pair (s, d), s != d, in [0, n*(n-1)).
constexpr std::size_t pair_index(std::size_t n, std::size_t s,
                                 std::size_t d) noexcept {
  return s * (n - 1) + (d > s ? d - 1 : d);
}

/// Inverse of pair_index.
constexpr std::pair<std::size_t, std::size_t> pair_nodes(
    std::size_t n, std::size_t idx) noexcept {
  const std::size_t s = idx / (n - 1);
  const std::size_t r = idx % (n - 1);
  return {s, r >= s ? r + 1 : r};
}

/// A single traffic snapshot in pair space, dense or sparse.
class DemandMatrix {
 public:
  DemandMatrix() = default;
  explicit DemandMatrix(std::size_t n, double fill = 0.0)
      : n_(n), values_(num_pairs(n), fill) {}
  DemandMatrix(std::size_t n, std::vector<double> values);

  /// Builds a sparse snapshot from (pair index, value) coordinate lists.
  /// Entries are sorted by pair, duplicates summed, exact zeros dropped.
  static DemandMatrix sparse(std::size_t n, std::vector<std::uint32_t> pairs,
                             std::vector<double> values);

  std::size_t num_nodes() const noexcept { return n_; }
  /// Logical pair count n*(n-1), independent of representation.
  std::size_t size() const noexcept { return num_pairs(n_); }

  bool is_sparse() const noexcept { return sparse_; }
  /// Stored entries: nnz when sparse, n*(n-1) when dense.
  std::size_t stored() const noexcept { return values_.size(); }
  /// Count of stored entries that are nonzero (== stored() when sparse).
  std::size_t nnz() const noexcept;
  /// nnz / size, in [0, 1]; 0 for an empty matrix.
  double density() const noexcept;

  double at(std::size_t s, std::size_t d) const {
    return (*this)[pair_index(n_, s, d)];
  }
  /// Dense only; throws std::logic_error on a sparse matrix.
  void set(std::size_t s, std::size_t d, double v);

  /// Read access on either form: O(1) dense, O(log nnz) sparse.
  double operator[](std::size_t pair) const noexcept;
  /// Dense only; throws std::logic_error on a sparse matrix.
  double& operator[](std::size_t pair);

  /// Dense only; throws std::logic_error on a sparse matrix. Consumers that
  /// only reduce over active pairs should use for_each_active instead.
  std::span<const double> values() const;
  std::span<double> values();

  /// Visits every *stored* entry as f(pair, value), pairs ascending: the nnz
  /// list when sparse, all n*(n-1) pairs when dense. Callers must not rely on
  /// zeros being skipped (dense zeros are visited), only on coverage of all
  /// nonzeros — i.e. accumulate into zero-initialized state.
  template <typename F>
  void for_each_active(F&& f) const {
    if (sparse_) {
      for (std::size_t i = 0; i < keys_.size(); ++i) f(keys_[i], values_[i]);
    } else {
      for (std::size_t p = 0; p < values_.size(); ++p) f(p, values_[p]);
    }
  }

  /// Sum of all demands.
  double total() const noexcept;
  /// Largest entry (0 for an empty matrix); demands are nonnegative.
  double max_value() const noexcept;

  /// Copy converted to the other representation.
  DemandMatrix densified() const;
  DemandMatrix sparsified() const;
  /// Representation-tuning pass: returns a sparse copy when density() is at
  /// or below `max_density` (default tuned so binary-search reads stay cheap
  /// and the footprint shrinks ≥ ~2x), otherwise a dense copy.
  DemandMatrix compacted(double max_density = 0.25) const;

 private:
  /// First index into keys_ with keys_[i] >= pair (keys_.size() if none).
  std::size_t lower_key(std::size_t pair) const noexcept;

  std::size_t n_ = 0;
  bool sparse_ = false;
  std::vector<std::uint32_t> keys_;  // sorted pair indices; sparse form only
  std::vector<double> values_;       // per-pair (dense) or per-key (sparse)
};

/// Pair-space dot product, norms, and cosine similarity over either
/// representation without densifying (sparse-sparse is a merge join).
double dot(const DemandMatrix& a, const DemandMatrix& b);
double norm(const DemandMatrix& a) noexcept;
double cosine_similarity(const DemandMatrix& a, const DemandMatrix& b);

/// A time-ordered sequence of demand matrices over a fixed node set.
struct TrafficTrace {
  std::size_t num_nodes = 0;
  std::vector<DemandMatrix> snapshots;

  std::size_t size() const noexcept { return snapshots.size(); }
  const DemandMatrix& operator[](std::size_t t) const { return snapshots[t]; }

  /// Chronological split at `fraction` (paper: first 75% train, last 25%
  /// test). Returns [0, cut) and [cut, size).
  std::pair<TrafficTrace, TrafficTrace> split(double fraction) const;

  /// Sub-range [begin, end) as a trace (used by the drift study, Table 4).
  TrafficTrace slice(std::size_t begin, std::size_t end) const;
};

}  // namespace figret::traffic
