// Hose demand polytope and its adversary oracle — shared by the oblivious
// and COPE cutting-plane solvers.
//
// The hose model bounds each node's total egress/ingress demand by the
// capacity attached to it (times a scale factor), the standard demand
// uncertainty set for robust TE and the one Meta's network planning uses
// (paper §7 "Network planning").
#pragma once

#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::te {

struct HoseBounds {
  std::vector<double> out;  // per-node egress volume bound
  std::vector<double> in;   // per-node ingress volume bound
};

/// Bounds = scale x capacity attached to each node (as seen by the path set).
HoseBounds hose_bounds(const PathSet& ps, double scale);

/// Adversary oracle: the hose-feasible demand maximizing the utilization of
/// edge `e` under configuration `r` (a transportation LP).
/// Returns {utilization, argmax demand}. The LP is always feasible and
/// bounded, so a non-optimal solver verdict (a pivot-budget hit) throws —
/// silently reporting utilization 0 could certify a false cutting-plane
/// convergence. `solver` holds the solver knobs (nullptr = SolverOptions{}).
std::pair<double, traffic::DemandMatrix> worst_demand_for_edge(
    const PathSet& ps, const TeConfig& r, const HoseBounds& hose,
    net::EdgeId e, const lp::SolverOptions* solver = nullptr);

}  // namespace figret::te
