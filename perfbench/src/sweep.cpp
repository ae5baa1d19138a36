#include "sweep.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>

#include "lp/certificates.h"
#include "lp/revised_simplex.h"
#include "te/failover.h"
#include "optimum.h"
#include "te/lp_schemes.h"

namespace perfbench {
namespace {

namespace lp = figret::lp;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kWarmChunk = 8;
// Full sweeps per run; timings are their medians.
constexpr int kSweepRepeats = 3;
// Normalizer LPs re-solved cold and certificate-checked per sweep.
constexpr std::size_t kCertificateSamples = 8;

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

// Cold-solves the normalizer LP of `t` and verifies its strong-duality
// certificate and that its optimum matches the Harness' value.
bool certified(const Instance& in, std::size_t t, const std::vector<bool>* alive,
               double expected) {
  const lp::LpProblem prob =
      te::build_mlu_lp(in.ps, in.trace[t], nullptr, alive);
  const lp::LpResult res = lp::solve_with(prob, lp::SolverOptions{});
  return res.optimal() && lp::check_certificate(prob, res).ok(1e-6) &&
         close(res.objective, expected);
}

// Serial replay of one Harness normalizer pass: same indices, same chunk
// rule (one warm chain per chunk, >= ~32 chunks), same default solver, so
// every optimum must equal the Harness' value.
void replay_normalizer(const Instance& in, const std::vector<std::size_t>& idx,
                       const std::vector<bool>* alive,
                       const std::vector<double>& expected, Tracer& tracer,
                       LpLedger& led, std::size_t& mismatches) {
  const std::size_t n = idx.size();
  const std::size_t chunk = std::max<std::size_t>(1, std::min(kWarmChunk, n / 32));
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    lp::WarmStart warm;
    for (std::size_t i = begin; i < std::min(n, begin + chunk); ++i) {
      const double a = now_s();
      const te::MluLpResult r =
          te::solve_mlu_lp(in.ps, in.trace[idx[i]], nullptr, alive, nullptr, &warm);
      const double b = now_s();
      tracer.add(alive ? "lp.solve_failed_links" : "lp.solve", a, b, -1,
                 static_cast<std::int64_t>(idx[i]));
      led.add(r, b - a);
      if (r.optimal() && !close(r.mlu, expected[i])) ++mismatches;
    }
  }
}

struct SweepRun {
  std::vector<double> omni;
  te::SchemeEval ev, fev;
  double omni_s = 0.0, score_s = 0.0, fail_s = 0.0, cpu_s = 0.0;
  double wall() const { return omni_s + score_s + fail_s; }
};

// One full sweep on a fresh Harness (the normalizer is cached per Harness).
// Throws if any normalizer solve is not optimal.
SweepRun sweep_once(Instance& in, Tracer& tracer) {
  te::Harness h(in.ps, in.trace, sweep_options(in.history));
  SweepRun r;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  r.omni = h.omniscient();
  const double t1 = now_s();
  r.ev = h.evaluate(*in.models[2], /*fit=*/false);
  const double t2 = now_s();
  r.fev = h.evaluate_under_failures(*in.models[2], in.failures, /*fit=*/false);
  const double t3 = now_s();
  r.cpu_s = process_cpu_s() - c0;
  r.omni_s = t1 - t0;
  r.score_s = t2 - t1;
  r.fail_s = t3 - t2;
  tracer.add("harness.omniscient", t0, t1);
  tracer.add("harness.evaluate", t1, t2);
  tracer.add("harness.evaluate_under_failures", t2, t3);
  return r;
}

}  // namespace

te::Harness::Options sweep_options(std::size_t history) {
  te::Harness::Options o;
  o.train_fraction = 0.75;
  o.eval_stride = 1;
  o.max_window = history;
  o.threads = kThreads;
  o.warm_chunk = kWarmChunk;
  return o;
}

void run_harness_sweep(Instance& in, Tracer& tracer, Report& report) {
  const std::vector<std::size_t> evals =
      te::Harness(in.ps, in.trace, sweep_options(in.history)).eval_indices();
  const std::size_t n = evals.size();
  std::vector<SweepRun> runs;
  try {
    for (int i = 0; i < kSweepRepeats; ++i) {
      report.attempted += 2 * n;  // one normalizer LP per snapshot, twice
      runs.push_back(sweep_once(in, tracer));
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: sweep failed: " << e.what() << "\n";
    report.failed += 2 * n;
    report.check("sweep.completed", false);
    return;
  }
  const SweepRun& first = runs.front();
  bool same = true;
  for (const SweepRun& r : runs)
    same = same && r.omni == first.omni && r.ev.raw_mlu == first.ev.raw_mlu &&
           r.fev.raw_mlu == first.fev.raw_mlu &&
           r.fev.normalized == first.fev.normalized;
  report.check("sweep.repeats_identical", same);
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const SweepRun& r : runs) v.push_back(field(r));
    return median(v);
  };
  const std::vector<double>& omni = first.omni;
  const te::SchemeEval& ev = first.ev;
  const te::SchemeEval& fev = first.fev;

  bool norm_ok = ev.normalized.size() == n && fev.normalized.size() == n;
  for (std::size_t i = 0; norm_ok && i < n; ++i)
    norm_ok = ev.normalized[i] >= 1.0 - 1e-9 && fev.normalized[i] >= 1.0 - 1e-9;
  report.check("sweep.normalized_mlu_at_least_1", norm_ok);

  // The failure-aware normalizer is not exposed; recover it from raw/normalized.
  std::vector<double> fail_omni(n);
  for (std::size_t i = 0; i < n; ++i)
    fail_omni[i] = fev.raw_mlu[i] / fev.normalized[i];
  const std::vector<bool> alive = te::surviving_paths(in.ps, in.failures);
  bool certs = true;
  for (std::size_t k = 0; k < kCertificateSamples; ++k) {
    const std::size_t i = k * (n - 1) / (kCertificateSamples - 1);
    const std::size_t t = evals[i];
    certs = certs && certified(in, t, nullptr, omni[i]);
    if (k % 2 == 0) certs = certs && certified(in, t, &alive, fail_omni[i]);
  }
  report.check("sweep.lp_certificates", certs);

  if (!tracer.enabled()) {
    report.metric("sweep_s", med([](const SweepRun& r) { return r.wall(); }), "s");
    std::vector<double> walls;
    for (const SweepRun& r : runs) walls.push_back(r.wall());
    report.samples("sweep_s", walls);
    report.metric("sweep_cpu_s", med([](const SweepRun& r) { return r.cpu_s; }), "s");
    report.metric("norm_mlu_mean", ev.average(), "ratio");
    report.metric("fail_norm_mlu_mean", fev.average(), "ratio");
    return;
  }

  LpLedger led;
  std::size_t mismatches = 0;
  replay_normalizer(in, evals, nullptr, omni, tracer, led, mismatches);
  double serial_lp_s = 0.0;
  for (const double x : led.seconds) serial_lp_s += x;
  replay_normalizer(in, evals, &alive, fail_omni, tracer, led, mismatches);
  report.check("sweep.lp_replay_matches_harness",
               led.non_optimal == 0 && mismatches == 0);
  report_lp(led, report);
  const double omni_s = med([](const SweepRun& r) { return r.omni_s; });
  const double score_s = med([](const SweepRun& r) { return r.score_s; });
  report.metric("harness.omniscient_s", omni_s, "s");
  // evaluate_under_failures = failure normalizer + the same advise/score work
  // evaluate() did, so the difference is the failure normalizer's cost.
  report.metric("harness.fail_omniscient_s",
                std::max(0.0, med([](const SweepRun& r) { return r.fail_s; }) - score_s),
                "s");
  report.metric("harness.score_s", score_s, "s");
  report.metric("harness.parallel_eff",
                serial_lp_s / (static_cast<double>(kThreads) * omni_s), "ratio");
}

}  // namespace perfbench
