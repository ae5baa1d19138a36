// Link-load / MLU evaluation and path-sensitivity metrics (paper §3, §4.1):
//   f_e  = sum over paths p through e of D_{sd(p)} * r_p
//   MLU  = max_e f_e / c_e                       (the TE objective M(R, D))
//   S_p  = r_p / C_p                             (path sensitivity)
//
// The load kernel is pair-major and demand-driven: it walks only the demand's
// active pairs (O(nnz) on a sparse fabric snapshot) and then that pair's
// contiguous path range, instead of testing every global path id. Because
// paths are stored pair-major in ascending order, the accumulation order —
// and therefore every bit of the result — matches a path-major loop over
// every path id; that loop is the differential-test oracle and bench
// baseline in tests/support/reference_kernels.h.
#pragma once

#include <vector>

#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::te {

/// Per-edge traffic volumes induced by (demand, config).
std::vector<double> edge_loads(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config);

/// Allocation-free variant: writes per-edge loads into `out` (resized once to
/// num_edges). Bit-identical to edge_loads.
void edge_loads_into(const PathSet& ps, const traffic::DemandMatrix& demand,
                     const TeConfig& config, std::vector<double>& out);

struct MluResult {
  double mlu = 0.0;
  net::EdgeId argmax_edge = 0;
};

/// Max link utilization and the bottleneck edge.
MluResult max_link_utilization(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config);

/// Scratch-reusing variant: zero steady-state allocations once `edge_scratch`
/// reaches num_edges capacity.
MluResult max_link_utilization(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& edge_scratch);

/// Convenience: just the MLU value.
double mlu(const PathSet& ps, const traffic::DemandMatrix& demand,
           const TeConfig& config);

/// Serving hot path: MLU with caller-provided edge-load scratch, so repeated
/// scoring allocates nothing once `edge_scratch` reaches num_edges capacity.
double mlu(const PathSet& ps, const traffic::DemandMatrix& demand,
           const TeConfig& config, std::vector<double>& edge_scratch);

/// Path sensitivities S_p = r_p / C_p for every global path id.
std::vector<double> path_sensitivities(const PathSet& ps,
                                       const TeConfig& config);

/// S^max_sd: the largest sensitivity among each pair's paths (§4.3.2).
std::vector<double> max_pair_sensitivities(const PathSet& ps,
                                           const TeConfig& config);

}  // namespace figret::te
