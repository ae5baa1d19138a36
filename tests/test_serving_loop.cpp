#include "te/serving_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "te/retrain_monitor.h"
#include "te/wcmp.h"
#include "traffic/feed.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

/// Deterministic, stateless advisor serving a fixed configuration — makes
/// streaming results exactly predictable regardless of scheduling.
class FixedAdvisor final : public TeScheme {
 public:
  FixedAdvisor(const PathSet& ps, TeConfig cfg, std::size_t window = 2)
      : cfg_(std::move(cfg)), window_(window) {
    (void)ps;
  }
  std::string name() const override { return "Fixed"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    return cfg_;
  }
  std::size_t history_window() const override { return window_; }

 private:
  TeConfig cfg_;
  std::size_t window_;
};

/// Advisor that sleeps, to force queue buildup for overflow tests.
class SleepyAdvisor final : public TeScheme {
 public:
  SleepyAdvisor(TeConfig cfg, std::chrono::milliseconds nap)
      : cfg_(std::move(cfg)), nap_(nap) {}
  std::string name() const override { return "Sleepy"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    std::this_thread::sleep_for(nap_);
    return cfg_;
  }
  std::size_t history_window() const override { return 1; }

 private:
  TeConfig cfg_;
  std::chrono::milliseconds nap_;
};

/// A deliberately lopsided but valid configuration (uniform would make WCMP
/// quantization a no-op and hide install-path bugs).
TeConfig skewed_config(const PathSet& ps) {
  TeConfig raw(ps.num_paths(), 0.0);
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    raw[p] = 1.0 + static_cast<double>(p % 5);
  return normalize_config(ps, raw);
}

TEST(ServingLoopStream, ServesEverySubmittedSnapshotExactly) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 3;
  opt.install = false;  // serve the advised ratios directly
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg), b(ps, cfg), c(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b, &c};
  loop.start(advisors);

  std::vector<SnapshotResult> results;
  for (std::uint32_t t = 2; t < 80; ++t) {
    loop.submit(t);
    loop.drain(results);
  }
  loop.finish();
  loop.drain(results);

  ASSERT_EQ(results.size(), 78u);
  // Every index exactly once, every seq exactly once.
  std::vector<bool> seen_idx(80, false);
  std::vector<bool> seen_seq(78, false);
  for (const auto& r : results) {
    ASSERT_LT(r.trace_index, 80u);
    ASSERT_LT(r.seq, 78u);
    EXPECT_FALSE(seen_idx[r.trace_index]);
    EXPECT_FALSE(seen_seq[r.seq]);
    seen_idx[r.trace_index] = true;
    seen_seq[r.seq] = true;
    // Deterministic advisor + no install: the served MLU is exactly the
    // fixed config's MLU on that snapshot.
    EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], cfg))
        << "index " << r.trace_index;
    EXPECT_GE(r.serve_seconds, 0.0);
    EXPECT_GE(r.total_seconds, r.serve_seconds);
  }
  EXPECT_EQ(loop.stats().served.load(), 78u);
  EXPECT_EQ(loop.stats().overflows.load(), 0u);
}

TEST(ServingLoopStream, InstallServesQuantizedRatios) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 30, 11);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.install = true;
  opt.wcmp_table_size = 16;
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg);
  std::vector<TeScheme*> advisors{&a};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 30; ++t) loop.submit(t);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  const TeConfig installed =
      ratios_from_wcmp(ps, quantize_wcmp(ps, cfg, 16));
  const double expected_err = quantization_error(ps, cfg, quantize_wcmp(ps, cfg, 16));
  ASSERT_EQ(results.size(), 28u);
  for (const auto& r : results) {
    EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], installed));
    EXPECT_EQ(r.quant_error, expected_err);
    EXPECT_GE(r.install_seconds, 0.0);
  }
}

TEST(ServingLoopStream, OracleNormalizesAndChainsWarmStarts) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 60, 23);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  opt.oracle = true;
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 60; ++t) loop.submit(t);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  ASSERT_EQ(results.size(), 58u);
  for (const auto& r : results) {
    EXPECT_GT(r.oracle_mlu, 0.0);
    // Omniscient is optimal, so normalization is >= 1 up to LP tolerance.
    EXPECT_GE(r.normalized, 1.0 - 1e-6);
    EXPECT_GE(r.lp_seconds, 0.0);
  }
  EXPECT_EQ(loop.stats().oracle_failures.load(), 0u);
  // Per-worker chains across 58 consecutive resolves must score warm hits.
  EXPECT_GT(loop.stats().warm_hits.load() + loop.stats().warm_misses.load(),
            0u);
  EXPECT_GT(loop.stats().warm_hits.load(), 0u);
}

TEST(ServingLoopStream, MidStreamFailureReroutesSubsequentSnapshots) {
  // Satellite: §5.3-style failure injected mid-stream. Snapshots served
  // before the event score the healthy config; snapshots served after it
  // score the §4.5 reroute — exactly, because the advisor is deterministic.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 60, 23);
  const TeConfig cfg = skewed_config(ps);
  const auto failed = sample_safe_failures(ps, 1, 3);
  const std::vector<bool> alive = surviving_paths(ps, failed);
  const TeConfig rerouted = reroute(ps, cfg, alive);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  for (std::uint32_t t = 2; t < 30; ++t) loop.submit(t);
  // Quiesce so no in-flight snapshot straddles the failure event.
  while (loop.completed() < loop.submitted()) std::this_thread::yield();
  loop.install_failures(failed);
  for (std::uint32_t t = 30; t < 60; ++t) loop.submit(t);
  loop.finish();

  std::vector<SnapshotResult> results;
  loop.drain(results);
  ASSERT_EQ(results.size(), 58u);
  std::size_t healthy = 0, failed_served = 0;
  for (const auto& r : results) {
    if (r.trace_index < 30) {
      EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], cfg));
      ++healthy;
    } else {
      EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], rerouted));
      ++failed_served;
    }
  }
  EXPECT_EQ(healthy, 28u);
  EXPECT_EQ(failed_served, 30u);
  EXPECT_EQ(loop.stats().failure_epochs.load(), 1u);

  // clear_failures() restores healthy serving on a restarted stream.
  loop.clear_failures();
  loop.start(advisors);
  loop.submit(10);
  loop.finish();
  results.clear();
  loop.drain(results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].raw_mlu, mlu(ps, trace[10], cfg));
}

TEST(ServingLoopStream, RetrainMonitorWatchesTheStream) {
  // Satellite: the §6 retraining detectors consume streaming results. Feed a
  // drifted traffic regime through the loop and let the monitor watch the
  // served snapshots' demands — it must trip, and gracefully (the stream
  // itself keeps serving).
  const PathSet ps = mesh_pathset(4);
  traffic::TrafficTrace trace = traffic::wan_trace(4, 60, 23);
  // Drift: from t=30 on, traffic concentrates on one pair, unlike training.
  for (std::size_t t = 30; t < 60; ++t) {
    for (std::size_t p = 0; p < trace.snapshots[t].size(); ++p)
      trace.snapshots[t][p] = p == 0 ? 100.0 * (1.0 + trace.snapshots[t][p])
                                     : 0.01;
  }

  RetrainPolicy policy;
  policy.window = 16;
  policy.trigger_count = 8;
  RetrainMonitor monitor(policy);
  monitor.set_reference(trace.slice(0, 30));

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  const TeConfig cfg = uniform_config(ps);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  std::vector<SnapshotResult> results;
  bool tripped_during_healthy = false;
  const auto observe_drained = [&] {
    results.clear();
    loop.drain(results);
    for (const auto& r : results) {
      monitor.observe(trace[r.trace_index],
                      std::numeric_limits<double>::quiet_NaN());
      if (r.trace_index < 30 && monitor.should_retrain())
        tripped_during_healthy = true;
    }
  };
  for (std::uint32_t t = 2; t < 60; ++t) {
    if (t == 30) {
      // Quiesce at the regime boundary so every healthy snapshot is observed
      // (and judged) before the first drifted one enters the monitor window.
      while (loop.completed() < loop.submitted()) std::this_thread::yield();
      observe_drained();
    }
    loop.submit(t);
    observe_drained();
  }
  loop.finish();
  observe_drained();

  EXPECT_EQ(loop.stats().served.load(), 58u);
  EXPECT_FALSE(tripped_during_healthy)
      << "healthy traffic must not trip the detector";
  EXPECT_TRUE(monitor.should_retrain())
      << "drifted in window: " << monitor.drifted_in_window();
}

TEST(ServingLoopStream, SloViolationsAreCounted) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 20, 5);
  const TeConfig cfg = uniform_config(ps);

  // Impossible SLO: everything violates.
  {
    ServingLoop::Options opt;
    opt.workers = 1;
    opt.slo_seconds = 1e-12;
    ServingLoop loop(ps, trace, opt);
    FixedAdvisor a(ps, cfg, 1);
    std::vector<TeScheme*> advisors{&a};
    loop.start(advisors);
    for (std::uint32_t t = 1; t < 20; ++t) loop.submit(t);
    loop.finish();
    EXPECT_EQ(loop.stats().slo_violations.load(), 19u);
    const auto snap = loop.stats().snapshot();
    EXPECT_EQ(snap.slo_violations, 19u);
    EXPECT_GT(snap.serve_p99, 0.0);
  }
  // Generous SLO: nothing violates.
  {
    ServingLoop::Options opt;
    opt.workers = 1;
    opt.slo_seconds = 1000.0;
    ServingLoop loop(ps, trace, opt);
    FixedAdvisor a(ps, cfg, 1);
    std::vector<TeScheme*> advisors{&a};
    loop.start(advisors);
    for (std::uint32_t t = 1; t < 20; ++t) loop.submit(t);
    loop.finish();
    EXPECT_EQ(loop.stats().slo_violations.load(), 0u);
  }
}

TEST(ServingLoopStream, OverflowCountsRejectedSubmissions) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 40, 5);
  ServingLoop::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 4;
  ServingLoop loop(ps, trace, opt);
  SleepyAdvisor slow(uniform_config(ps), std::chrono::milliseconds(5));
  std::vector<TeScheme*> advisors{&slow};
  loop.start(advisors);

  std::size_t rejected = 0;
  for (std::uint32_t t = 1; t < 40; ++t)
    if (!loop.try_submit(t)) ++rejected;
  loop.finish();

  EXPECT_GT(rejected, 0u) << "a 5ms advisor behind a 4-slot ring must spill";
  EXPECT_EQ(loop.stats().overflows.load(), rejected);
  EXPECT_EQ(loop.stats().served.load() + rejected, 39u);
}

TEST(ServingLoopStream, FeedDrivesTheLoop) {
  // Integration: SnapshotFeed pacing -> ring -> workers, lossless mode.
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 50, 5);
  ServingLoop::Options opt;
  opt.workers = 2;
  opt.queue_capacity = 8;
  ServingLoop loop(ps, trace, opt);
  const TeConfig cfg = uniform_config(ps);
  FixedAdvisor a(ps, cfg, 1), b(ps, cfg, 1);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  traffic::SnapshotFeed::Options fopt;
  fopt.begin = 1;
  fopt.end = 50;
  fopt.rate = 0.0;
  fopt.drop_on_backpressure = false;
  traffic::SnapshotFeed feed(fopt);
  // The producer must drain results while feeding — with a tiny results ring
  // (2x queue_capacity = 16 slots) the workers would otherwise block on
  // publish and the lossless feed would retry forever.
  std::vector<SnapshotResult> results;
  feed.run([&](std::uint32_t idx) {
    loop.drain(results);
    return loop.try_submit(idx);
  });
  while (loop.completed() < loop.submitted()) {
    loop.drain(results);
    std::this_thread::yield();
  }
  loop.finish();
  loop.drain(results);

  EXPECT_EQ(feed.accepted(), 49u);
  EXPECT_EQ(loop.stats().served.load(), 49u);
  EXPECT_EQ(results.size(), 49u);
}

TEST(ServingLoopStream, ValidatesSubmissionsAndLifecycle) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 20, 5);
  ServingLoop::Options opt;
  opt.workers = 1;
  ServingLoop loop(ps, trace, opt);
  EXPECT_THROW(loop.submit(5), std::logic_error) << "submit before start";

  FixedAdvisor a(ps, uniform_config(ps), 4);
  std::vector<TeScheme*> advisors{&a};
  loop.start(advisors);
  EXPECT_THROW(loop.submit(3), std::out_of_range) << "inside history window";
  EXPECT_THROW(loop.submit(20), std::out_of_range) << "past trace end";
  EXPECT_THROW(loop.start(advisors), std::logic_error) << "double start";
  loop.submit(4);
  loop.finish();
  EXPECT_EQ(loop.stats().served.load(), 1u);

  // Wrong advisor count.
  ServingLoop loop2(ps, trace, opt);
  std::vector<TeScheme*> none;
  EXPECT_THROW(loop2.start(none), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
