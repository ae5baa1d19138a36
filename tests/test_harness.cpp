#include "te/harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "support/dense_simplex.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

Harness make_harness(const PathSet& ps, std::size_t len = 80,
                     std::size_t stride = 1) {
  Harness::Options opt;
  opt.train_fraction = 0.75;
  opt.eval_stride = stride;
  opt.max_window = 12;
  return Harness(ps, traffic::dc_tor_trace(ps.num_nodes(), len, 23), opt);
}

/// Long-test-range options: 270 eval indices, so the omniscient chunk rule
/// (min(warm_chunk, n / 32)) keeps chunks of 8 and scoring chunks hold
/// several indices each.
constexpr std::size_t kLongTrace = 300;

Harness::Options long_options(std::size_t threads, std::size_t warm_chunk) {
  Harness::Options opt;
  opt.train_fraction = 0.1;
  opt.max_window = 12;
  opt.threads = threads;
  opt.warm_chunk = warm_chunk;
  return opt;
}

/// The normalizer sweep, hand-rolled serially: one fresh lp::WarmStart per
/// chunk of min(warm_chunk, n / 32) indices (none when warm_chunk == 0).
std::vector<double> chunked_omniscient(const PathSet& ps,
                                       const traffic::TrafficTrace& trace,
                                       const std::vector<std::size_t>& idx,
                                       const std::vector<bool>* alive,
                                       std::size_t warm_chunk) {
  const std::size_t n = idx.size();
  const std::size_t chunk = std::max<std::size_t>(
      1, std::min<std::size_t>(warm_chunk > 0 ? warm_chunk : 1, n / 32));
  const lp::SolverOptions solver;
  std::vector<double> ref(n, 0.0);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    lp::WarmStart warm;
    for (std::size_t i = begin; i < std::min(n, begin + chunk); ++i) {
      const MluLpResult res =
          solve_mlu_lp(ps, trace[idx[i]], nullptr, alive, &solver,
                       warm_chunk > 0 ? &warm : nullptr);
      EXPECT_TRUE(res.optimal()) << "slot " << i;
      ref[i] = res.mlu;
    }
  }
  return ref;
}

/// A lopsided, valid config that differs per call k (uniform would hide
/// index mix-ups between configs and snapshots).
TeConfig rotated_config(const PathSet& ps, std::size_t k) {
  TeConfig raw(ps.num_paths(), 0.0);
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    raw[p] = 1.0 + static_cast<double>((p + k) % 7);
  return normalize_config(ps, raw);
}

/// Serves rotated_config(ps, k) on its k-th advise() since fit(); the
/// Harness advises serially in eval order, so call k is eval slot k.
class RotatingScheme final : public TeScheme {
 public:
  explicit RotatingScheme(const PathSet& ps) : ps_(&ps) {}
  std::string name() const override { return "Rotating"; }
  void fit(const traffic::TrafficTrace&) override { calls_ = 0; }
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    return rotated_config(*ps_, calls_++);
  }

 private:
  const PathSet* ps_;
  std::size_t calls_ = 0;
};

TEST(Harness, SplitAndEvalIndices) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps, 80);
  EXPECT_EQ(h.test_begin(), 60u);
  EXPECT_EQ(h.eval_indices().size(), 20u);
  EXPECT_EQ(h.eval_indices().front(), 60u);
  EXPECT_EQ(h.train_trace().size(), 60u);
}

TEST(Harness, StrideSubsamplesConsistently) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps, 80, 4);
  EXPECT_EQ(h.eval_indices().size(), 5u);
  for (std::size_t i = 1; i < h.eval_indices().size(); ++i)
    EXPECT_EQ(h.eval_indices()[i] - h.eval_indices()[i - 1], 4u);
}

TEST(Harness, RejectsShortTraces) {
  const PathSet ps = mesh_pathset(4);
  Harness::Options opt;
  opt.max_window = 12;
  EXPECT_THROW(
      Harness(ps, traffic::dc_tor_trace(4, 10, 1), opt),
      std::invalid_argument);
}

TEST(Harness, OmniscientIsPositiveAndCached) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  const auto& omni = h.omniscient();
  EXPECT_EQ(omni.size(), h.eval_indices().size());
  for (double v : omni) EXPECT_GT(v, 0.0);
  // Second call returns the identical cached vector.
  EXPECT_EQ(&h.omniscient(), &omni);
}

TEST(Harness, NormalizedMluNeverBelowOne) {
  // Omniscient is optimal per snapshot, so every scheme's normalized MLU is
  // >= 1 (up to LP tolerance) — the invariant behind Fig 5's y-axis.
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  PredictionTe pred(ps);
  const SchemeEval ev = h.evaluate(pred);
  EXPECT_EQ(ev.name, "PredTE");
  ASSERT_EQ(ev.normalized.size(), h.eval_indices().size());
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
  EXPECT_GT(ev.mean_advise_seconds, 0.0);
}

TEST(Harness, SevereCongestionCounter) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  PredictionTe pred(ps);
  const SchemeEval ev = h.evaluate(pred);
  std::size_t expected = 0;
  for (double v : ev.normalized)
    if (v > 2.0) ++expected;
  EXPECT_EQ(ev.severe_congestion, expected);
}

TEST(Harness, EvaluateConfigFixed) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  const SchemeEval ev = h.evaluate_config("uniform", uniform_config(ps));
  EXPECT_EQ(ev.name, "uniform");
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Harness, FailureEvaluationUsesFaultAwareOracle) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  const auto failed = sample_safe_failures(ps, 1, 3);
  PredictionTe pred(ps);
  const SchemeEval ev = h.evaluate_under_failures(pred, failed);
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Harness, StatsSummarizeNormalizedSeries) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  PredictionTe pred(ps);
  const SchemeEval ev = h.evaluate(pred);
  const util::BoxStats s = ev.stats();
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
  EXPECT_NEAR(ev.average(), util::mean(ev.normalized), 1e-12);
}

TEST(Harness, ParallelEvaluationBitIdenticalToSerial) {
  // The acceptance property of the parallel engine: the thread pool changes
  // wall-clock, never results. Serial (threads = 1) and parallel (threads =
  // 4) harnesses over the same trace must produce bit-identical evaluations,
  // including the shared omniscient normalizer.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);

  Harness::Options serial_opt;
  serial_opt.max_window = 12;
  serial_opt.threads = 1;
  Harness serial(ps, trace, serial_opt);

  Harness::Options par_opt = serial_opt;
  par_opt.threads = 4;
  Harness parallel(ps, trace, par_opt);

  const auto& omni_s = serial.omniscient();
  const auto& omni_p = parallel.omniscient();
  ASSERT_EQ(omni_s.size(), omni_p.size());
  for (std::size_t i = 0; i < omni_s.size(); ++i)
    EXPECT_EQ(omni_s[i], omni_p[i]) << "omniscient slot " << i;

  PredictionTe pred_s(ps), pred_p(ps);
  const SchemeEval ev_s = serial.evaluate(pred_s);
  const SchemeEval ev_p = parallel.evaluate(pred_p);
  ASSERT_EQ(ev_s.normalized.size(), ev_p.normalized.size());
  for (std::size_t i = 0; i < ev_s.normalized.size(); ++i) {
    EXPECT_EQ(ev_s.raw_mlu[i], ev_p.raw_mlu[i]) << "raw slot " << i;
    EXPECT_EQ(ev_s.normalized[i], ev_p.normalized[i]) << "norm slot " << i;
  }
  EXPECT_EQ(ev_s.severe_congestion, ev_p.severe_congestion);

  const auto failed = sample_safe_failures(ps, 1, 3);
  const SchemeEval f_s = serial.evaluate_under_failures(pred_s, failed);
  const SchemeEval f_p = parallel.evaluate_under_failures(pred_p, failed);
  ASSERT_EQ(f_s.normalized.size(), f_p.normalized.size());
  for (std::size_t i = 0; i < f_s.normalized.size(); ++i)
    EXPECT_EQ(f_s.normalized[i], f_p.normalized[i]) << "failure slot " << i;
}

TEST(Harness, EvaluateAllMatchesIndividualEvaluates) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);
  Harness::Options opt;
  opt.max_window = 12;
  Harness h(ps, trace, opt);

  PredictionTe a(ps), b(ps);
  DesensitizationTe c(ps);
  std::vector<TeScheme*> schemes{&a, &b, &c};
  const std::vector<SchemeEval> all = h.evaluate_all(schemes);
  ASSERT_EQ(all.size(), 3u);

  PredictionTe ref_a(ps);
  DesensitizationTe ref_c(ps);
  const SchemeEval ea = h.evaluate(ref_a);
  const SchemeEval ec = h.evaluate(ref_c);
  EXPECT_EQ(all[0].name, ea.name);
  EXPECT_EQ(all[2].name, ec.name);
  ASSERT_EQ(all[0].normalized.size(), ea.normalized.size());
  for (std::size_t i = 0; i < ea.normalized.size(); ++i) {
    EXPECT_EQ(all[0].normalized[i], ea.normalized[i]);
    EXPECT_EQ(all[1].normalized[i], ea.normalized[i]);  // same scheme kind
    EXPECT_EQ(all[2].normalized[i], ec.normalized[i]);
  }
}

TEST(Harness, OmniscientMatchesSerialChunkedReferenceAnyWidth) {
  // Bit-identity of the normalizer sweep: for any execution width, the
  // pooled sweep assembles exactly the vector of the serial chunk loop, with
  // and without warm chaining, fault-free and failure-aware.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, kLongTrace, 23);
  const auto failed = sample_safe_failures(ps, 1, 3);
  const std::vector<bool> alive = surviving_paths(ps, failed);
  const std::vector<std::size_t> idx =
      Harness(ps, trace, long_options(1, 8)).eval_indices();
  ASSERT_GE(idx.size() / 32, 8u) << "chunks must chain 8 solves";

  for (std::size_t warm_chunk : {8u, 0u}) {
    const std::vector<double> ref =
        chunked_omniscient(ps, trace, idx, nullptr, warm_chunk);
    const std::vector<double> fail_ref =
        chunked_omniscient(ps, trace, idx, &alive, warm_chunk);
    for (std::size_t threads : {1u, 2u, 4u}) {
      Harness h(ps, trace, long_options(threads, warm_chunk));
      const std::vector<double>& got = h.omniscient();
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "warm_chunk=" << warm_chunk
                                  << " threads=" << threads << " slot " << i;

      // The failure-aware normalizer is internal; its value shows through
      // normalized = raw / max(oracle, 1e-12).
      RotatingScheme scheme(ps);
      const SchemeEval ev = h.evaluate_under_failures(scheme, failed);
      ASSERT_EQ(ev.normalized.size(), fail_ref.size());
      for (std::size_t i = 0; i < fail_ref.size(); ++i)
        EXPECT_EQ(ev.normalized[i],
                  ev.raw_mlu[i] / std::max(fail_ref[i], 1e-12))
            << "warm_chunk=" << warm_chunk << " threads=" << threads
            << " failure slot " << i;
    }
  }
}

TEST(Harness, ScoringMatchesRerouteAndMluAnyWidth) {
  // Per-index configs land on their own snapshot, fault-free and rerouted
  // around dead paths (§4.5), for any width and scoring chunk size.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, kLongTrace, 7);
  const auto failed = sample_safe_failures(ps, 1, 3);
  const std::vector<bool> alive = surviving_paths(ps, failed);

  for (std::size_t threads : {1u, 3u}) {
    Harness h(ps, trace, long_options(threads, 8));
    const std::vector<std::size_t>& idx = h.eval_indices();
    RotatingScheme scheme(ps);
    const SchemeEval ev = h.evaluate(scheme);
    const SchemeEval fev = h.evaluate_under_failures(scheme, failed);
    ASSERT_EQ(ev.raw_mlu.size(), idx.size());
    ASSERT_EQ(fev.raw_mlu.size(), idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const TeConfig cfg = rotated_config(ps, i);
      EXPECT_EQ(ev.raw_mlu[i], mlu(ps, trace[idx[i]], cfg))
          << "threads=" << threads << " slot " << i;
      EXPECT_EQ(fev.raw_mlu[i],
                mlu(ps, trace[idx[i]], reroute(ps, cfg, alive)))
          << "threads=" << threads << " failure slot " << i;
    }
  }
}

TEST(Harness, SurfacesLpIterationLimit) {
  // A truncated omniscient solve must be an error, never a silent partial
  // normalizer: one pivot cannot reach optimality on these LPs. The error
  // crosses the thread pool intact.
  const PathSet ps = mesh_pathset(4);
  for (std::size_t threads : {1u, 2u}) {
    Harness::Options opt;
    opt.max_window = 12;
    opt.threads = threads;
    opt.solver.simplex.max_iterations = 1;
    Harness h(ps, traffic::dc_tor_trace(4, 80, 23), opt);
    try {
      h.omniscient();
      FAIL() << "expected runtime_error for kIterationLimit, threads="
             << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("iteration limit"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Harness, EnginesAgreeOnOmniscientNormalizer) {
  // Dense oracle, cold revised, and warm-chained revised all solve the same
  // LPs to optimality: the normalizer vectors agree to LP tolerance.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);

  Harness::Options cold_opt;
  cold_opt.max_window = 12;
  cold_opt.warm_chunk = 0;  // every snapshot solves cold
  Harness cold(ps, trace, cold_opt);

  Harness::Options warm_opt;
  warm_opt.max_window = 12;
  warm_opt.warm_chunk = 5;
  Harness warm(ps, trace, warm_opt);

  std::vector<double> d;
  for (const std::size_t t : cold.eval_indices()) {
    const lp::LpResult r = lp::solve_dense(build_mlu_lp(ps, trace[t]));
    ASSERT_TRUE(r.optimal()) << "snapshot " << t;
    d.push_back(r.objective);
  }
  const auto& c = cold.omniscient();
  const auto& w = warm.omniscient();
  ASSERT_EQ(d.size(), c.size());
  ASSERT_EQ(d.size(), w.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(d[i], c[i], 1e-6 * (1.0 + d[i])) << "slot " << i;
    EXPECT_NEAR(d[i], w[i], 1e-6 * (1.0 + d[i])) << "slot " << i;
  }
}

TEST(Harness, ConcurrentEvaluatesMatchSerial) {
  // Regression for the warm-start chain ownership bug: two threads calling
  // evaluate() on one shared Harness (omniscient not yet materialized, so
  // both racers hit the lazy LP sweep) must produce exactly the results of
  // serial evaluation. Per-worker warm chains plus the omniscient mutex make
  // lineage interleaving structurally impossible.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);
  Harness::Options opt;
  opt.max_window = 12;
  opt.threads = 2;

  // Serial reference.
  Harness ref(ps, trace, opt);
  PredictionTe ref_pred(ps);
  DesensitizationTe ref_des(ps);
  const SchemeEval want_pred = ref.evaluate(ref_pred);
  const SchemeEval want_des = ref.evaluate(ref_des);

  for (int round = 0; round < 3; ++round) {
    Harness h(ps, trace, opt);  // fresh: omniscient materializes under race
    PredictionTe pred(ps);
    DesensitizationTe des(ps);
    SchemeEval got_pred, got_des;
    std::thread t1([&] { got_pred = h.evaluate(pred); });
    std::thread t2([&] { got_des = h.evaluate(des); });
    t1.join();
    t2.join();

    ASSERT_EQ(got_pred.normalized.size(), want_pred.normalized.size());
    ASSERT_EQ(got_des.normalized.size(), want_des.normalized.size());
    for (std::size_t i = 0; i < want_pred.normalized.size(); ++i) {
      EXPECT_EQ(got_pred.raw_mlu[i], want_pred.raw_mlu[i]) << "slot " << i;
      EXPECT_EQ(got_pred.normalized[i], want_pred.normalized[i])
          << "slot " << i;
      EXPECT_EQ(got_des.raw_mlu[i], want_des.raw_mlu[i]) << "slot " << i;
      EXPECT_EQ(got_des.normalized[i], want_des.normalized[i])
          << "slot " << i;
    }
  }
}

TEST(Harness, WindowTooLargeThrows) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  DesensitizationTe::Options opt;
  opt.peak_window = 50;  // exceeds max_window = 12
  DesensitizationTe des(ps, opt);
  EXPECT_THROW(h.evaluate(des), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
