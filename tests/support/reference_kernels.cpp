#include "support/reference_kernels.h"

#include <span>
#include <stdexcept>
#include <utility>

namespace figret::linalg {

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("Matrix::matmul: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  // i-k-j with a zero-skip branch: profitable only when the left operand is
  // mostly zeros.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.flat().data() + k * b.cols();
      double* orow = out.flat().data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix t_matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("Matrix::t_matmul: dimension mismatch");
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.flat().data() + k * a.cols();
    const double* brow = b.flat().data() + k * b.cols();
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out.flat().data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

Matrix matmul_t_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("Matrix::matmul_t: dimension mismatch");
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.flat().data() + i * a.cols();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.flat().data() + j * b.cols();
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      out(i, j) = acc;
    }
  }
  return out;
}

}  // namespace figret::linalg

namespace figret::te {

void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("edge_loads: config size mismatch");
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("edge_loads: demand size mismatch");
  out.assign(ps.num_edges(), 0.0);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    const double flow = demand[ps.pair_of_path(pid)] * config[pid];
    if (flow == 0.0) continue;
    for (net::EdgeId e : ps.path_edges(pid)) out[e] += flow;
  }
}

}  // namespace figret::te

namespace figret::nn {

linalg::Matrix mlp_forward_batch_reference(const Mlp& mlp,
                                           const linalg::Matrix& x) {
  if (x.cols() != mlp.input_size())
    throw std::invalid_argument(
        "mlp_forward_batch_reference: input size mismatch");
  const std::size_t layers = mlp.weights().size();
  const linalg::Matrix* in = &x;
  linalg::Matrix h;
  for (std::size_t l = 0; l < layers; ++l) {
    linalg::Matrix pre = linalg::matmul_t_reference(*in, mlp.weights()[l]);
    const std::vector<double>& b = mlp.biases()[l];
    for (std::size_t r = 0; r < pre.rows(); ++r) {
      const std::span<double> row = pre.row(r);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] += b[i];
    }
    if (l + 1 < layers) {
      for (double& v : pre.flat()) v = v > 0.0 ? v : 0.0;  // ReLU
    } else if (mlp.output_activation() == OutputActivation::kSigmoid) {
      for (double& v : pre.flat()) v = sigmoid(v);
    }
    h = std::move(pre);
    in = &h;
  }
  return h;
}

}  // namespace figret::nn
