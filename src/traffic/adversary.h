// Regret-maximizing demand adversary (ROADMAP "scenario diversity"; the
// regret framing follows Garg & Young's online congestion-control model,
// PAPERS.md).
//
// The adversary searches the hose-feasible demand polytope (generalizing the
// te/hose oblivious-TE machinery) for demand *sequences* that maximize
//
//   regret(R_t, D_t) = MLU(R_t, D_t) / MLU(omniscient, D_t)
//
// against a trained model: at each step the victim scheme commits its
// configuration R_t from the (adversarially chosen) history, then the
// adversary picks the next hose-feasible demand. The search is gradient-free
// — per-step worst-edge LP oracle seeds (te::worst_demand_for_edge) followed
// by coordinate-ascent / evolutionary perturbation in log-rate space — with
// a hard per-step candidate budget and a reproducible search trace:
// identical seeds give bit-identical traces (asserted by test_adversary).
//
// The regret ratio is invariant under uniform demand scaling (both MLUs are
// linear in D), so projection into the polytope — a uniform shrink — never
// changes a candidate's objective, only keeps it hose-feasible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/hose.h"
#include "te/pathset.h"
#include "te/scheme.h"
#include "traffic/demand.h"

namespace figret::traffic {

struct AdversaryOptions {
  /// Length of the attacked demand sequence.
  std::size_t steps = 4;
  /// Candidate evaluations per step (oracle seeds + extra seeds included).
  std::size_t iterations = 64;
  /// Pairs perturbed per ascent candidate.
  std::size_t coords = 4;
  /// Log-space perturbation sigma for the ascent moves.
  double step_sigma = 0.8;
  /// Probability an ascent move injects a fresh pair instead of scaling an
  /// existing support pair.
  double inject_probability = 0.3;
  /// Hose polytope scale: per-node bounds = scale x attached capacity.
  double hose_scale = 0.25;
  /// Worst-edge LP oracle seeds per step (edges ranked by configured path
  /// mass per unit capacity). Each costs one transportation LP.
  std::size_t oracle_seeds = 4;
  /// Keep every evaluated candidate in the result (feasibility audits).
  bool record_candidates = false;
  std::uint64_t seed = 1;
  /// LP solver knobs for the omniscient normalizer solves.
  lp::SolverOptions solver;
};

/// One search-trace record per evaluated candidate. best_regret is the
/// best-so-far *within the step* after considering this candidate, so it is
/// non-decreasing along each step's records (asserted by test_adversary).
struct AdversarySearchRecord {
  std::uint32_t step = 0;
  std::uint32_t iteration = 0;
  double candidate_regret = 0.0;
  double best_regret = 0.0;
  bool accepted = false;
};

struct AdversaryResult {
  /// The adversarial demand sequence (sparse snapshots, hose-feasible).
  TrafficTrace trace;
  /// Best regret achieved at each step, and the max over steps.
  std::vector<double> step_regret;
  double best_regret = 0.0;
  /// Full reproducible search trace (one record per candidate evaluated).
  std::vector<AdversarySearchRecord> search;
  /// Every candidate evaluated, in search order (record_candidates only).
  std::vector<DemandMatrix> candidates;
  /// Omniscient + oracle LP solves spent.
  std::size_t lp_solves = 0;
};

class RegretAdversary {
 public:
  explicit RegretAdversary(const te::PathSet& ps,
                           const AdversaryOptions& opt = {});

  const te::HoseBounds& bounds() const noexcept { return hose_; }
  const AdversaryOptions& options() const noexcept { return opt_; }

  /// True when every per-node egress/ingress total fits the hose bounds
  /// (relative tolerance).
  bool feasible(const DemandMatrix& dm, double tol = 1e-7) const;

  /// Uniform shrink into the hose polytope (factor <= 1; identity when
  /// already feasible). Uniform scaling keeps the regret ratio unchanged.
  DemandMatrix project(const DemandMatrix& dm) const;

  /// regret(R, D) = MLU(R, D) / omniscient MLU(D); 0 when the demand is
  /// (numerically) zero. Throws when the omniscient LP is not optimal.
  double regret(const te::TeConfig& config, const DemandMatrix& demand) const;

  /// Attacks `scheme` (already fitted): searches for a `steps`-long
  /// hose-feasible sequence maximizing per-step regret. `history` primes the
  /// victim's window (needs >= scheme.history_window() snapshots); each
  /// found demand is appended, so later steps attack the configuration the
  /// adversarial prefix induces. `extra_seeds` are projected and tried as
  /// additional step-1 starting points (e.g. worst observed snapshots).
  AdversaryResult attack(te::TeScheme& scheme,
                         std::span<const DemandMatrix> history,
                         std::span<const DemandMatrix> extra_seeds = {});

 private:
  const te::PathSet* ps_;
  AdversaryOptions opt_;
  te::HoseBounds hose_;
};

}  // namespace figret::traffic
