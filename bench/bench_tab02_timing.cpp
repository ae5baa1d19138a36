// Table 2: calculation time (one TE solve) and precomputation time across
// schemes and topology scales, using google-benchmark for the per-solve
// numbers.
//
// Paper claims to reproduce:
//  * FIGRET's per-solve time is orders of magnitude below the LP schemes
//    (35x-1800x vs Des TE);
//  * Des TE (LP + sensitivity caps) is slower than the plain LP;
//  * Oblivious/COPE fail to complete at ToR scale within budget
//    ("Infeasible"), while GEANT-scale is feasible;
//  * FIGRET's training time is far below the RL-based TEAL-style trainer's.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "support/dense_simplex.h"
#include "te/cope.h"
#include "te/figret.h"
#include "te/lp_schemes.h"
#include "te/oblivious.h"
#include "te/teal_like.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace figret;
using Clock = std::chrono::steady_clock;

struct TimedScenario {
  bench::Scenario sc;
  std::unique_ptr<te::FigretScheme> figret;
  std::vector<double> des_caps;
  double figret_train_seconds = 0.0;
  double teal_train_seconds = 0.0;
};

// Deque: schemes hold pointers into their scenario's PathSet, so elements
// must never relocate once constructed.
std::deque<TimedScenario>& scenarios() {
  static std::deque<TimedScenario> all;
  return all;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void bench_figret_advise(benchmark::State& state, std::size_t idx) {
  TimedScenario& ts = scenarios()[idx];
  const std::size_t window = ts.figret->history_window();
  const std::span<const traffic::DemandMatrix> history{
      ts.sc.trace.snapshots.data() + (ts.sc.trace.size() - window), window};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts.figret->advise(history));
  }
}

void bench_lp_solve(benchmark::State& state, std::size_t idx) {
  TimedScenario& ts = scenarios()[idx];
  const auto& dm = ts.sc.trace.snapshots.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::solve_mlu_lp(ts.sc.ps, dm));
  }
}

void bench_des_lp_solve(benchmark::State& state, std::size_t idx) {
  TimedScenario& ts = scenarios()[idx];
  const auto& dm = ts.sc.trace.snapshots.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(te::solve_mlu_lp(ts.sc.ps, dm, &ts.des_caps));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      std::cout, "Table 2 — calculation and precomputation time",
      "FIGRET solves 35x-1800x faster than Des TE; Oblivious/COPE "
      "infeasible at ToR scale",
      "ToR fabrics scaled (paper: 155/324 nodes); budgets replace the "
      "paper's 1-day cap");

  const bench::TrainProfile prof = bench::train_profile();
  for (const char* name : {"GEANT", "ToR-DB", "ToR-WEB"}) {
    // Emplace first: the trained scheme keeps a pointer to ts.sc.ps, so the
    // scenario must already live at its final address.
    TimedScenario& ts = scenarios().emplace_back();
    ts.sc = bench::make_scenario(name);

    te::FigretOptions fopt;
    fopt.history = prof.history;
    fopt.hidden = prof.hidden;
    fopt.epochs = prof.epochs;
    fopt.robust_weight = prof.robust_weight;
    ts.figret = std::make_unique<te::FigretScheme>(ts.sc.ps, fopt);
    const auto t0 = Clock::now();
    ts.figret->fit(ts.sc.trace.slice(0, ts.sc.trace.size() * 3 / 4));
    ts.figret_train_seconds = seconds_since(t0);

    // TEAL-style trainer (per-demand net), for the precomputation column.
    te::TealOptions topt;
    topt.hidden = prof.hidden;
    topt.epochs = prof.epochs;
    te::TealLikeTe teal(ts.sc.ps, topt);
    const auto t1 = Clock::now();
    teal.fit(ts.sc.trace.slice(0, ts.sc.trace.size() * 3 / 4));
    ts.teal_train_seconds = seconds_since(t1);

    ts.des_caps = te::sensitivity_caps(
        ts.sc.ps, std::vector<double>(ts.sc.ps.num_pairs(), 0.5));
  }

  for (std::size_t i = 0; i < scenarios().size(); ++i) {
    const std::string& n = scenarios()[i].sc.name;
    benchmark::RegisterBenchmark(("FIGRET_advise/" + n).c_str(),
                                 bench_figret_advise, i)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("LP_solve/" + n).c_str(), bench_lp_solve, i)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("DesTE_LP_solve/" + n).c_str(),
                                 bench_des_lp_solve, i)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Precomputation columns of Table 2. FIGRET_BENCH_BUDGET (seconds)
  // overrides the Oblivious/COPE time budget so CI smoke runs don't spend
  // 2 x 60s spinning to print "Infeasible (budget)".
  std::cout << "\nPrecomputation (training / cutting-plane) time:\n";
  util::Table t({"network", "FIGRET train (s)", "TEAL-like train (s)",
                 "Oblivious", "COPE"});
  double budget = bench::full_mode() ? 600.0 : 60.0;
  if (const char* env = std::getenv("FIGRET_BENCH_BUDGET")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0' && v >= 0.0) budget = v;
  }
  // Machine-readable record of the tables this binary computes itself (the
  // per-solve microbenchmarks are available via --benchmark_format=json).
  util::Json jout = util::Json::object();
  jout.set("bench", "tab02_timing").set("full_mode", bench::full_mode());
  util::Json jprecomp = util::Json::array();

  for (auto& ts : scenarios()) {
    std::string obl_cell = "-", cope_cell = "-";
    if (ts.sc.ps.num_nodes() <= 30) {
      te::ObliviousOptions oopt;
      oopt.time_budget_seconds = budget;
      const auto t0 = Clock::now();
      const te::ObliviousResult r = te::solve_oblivious(ts.sc.ps, oopt);
      obl_cell = r.converged
                     ? "Feasible (" + util::fmt(seconds_since(t0), 1) + "s)"
                     : "Infeasible (budget)";
      te::CopeOptions copt;
      copt.oblivious = oopt;
      const auto t1 = Clock::now();
      const te::CopeResult c =
          te::solve_cope(ts.sc.ps, ts.sc.trace.slice(0, 40), copt);
      cope_cell = c.converged
                      ? "Feasible (" + util::fmt(seconds_since(t1), 1) + "s)"
                      : "Infeasible (budget)";
    } else {
      obl_cell = "Infeasible (scale)";
      cope_cell = "Infeasible (scale)";
    }
    t.add_row({ts.sc.name, util::fmt(ts.figret_train_seconds, 2),
               util::fmt(ts.teal_train_seconds, 2), obl_cell, cope_cell});
    jprecomp.push(util::Json::object()
                      .set("network", ts.sc.name)
                      .set("figret_train_seconds", ts.figret_train_seconds)
                      .set("teal_train_seconds", ts.teal_train_seconds)
                      .set("oblivious", obl_cell)
                      .set("cope", cope_cell));
  }
  t.print(std::cout);
  jout.set("precomputation", std::move(jprecomp));

  // LP engine comparison on the omniscient-normalizer sweep: the dense
  // tableau oracle vs the sparse revised simplex, cold per snapshot vs
  // warm-started from the previous snapshot's optimal basis (consecutive
  // snapshots share the constraint structure, so the basis usually re-primes
  // in a handful of pivots). Cold revised solves run twice: all-logical
  // two-phase (the start-basis hint cleared on a copy of the LP) and
  // crash-started from the hint te::build_mlu_lp attaches, which production
  // uses. All run serially over the same snapshots so wall-clock and pivot
  // counts are directly comparable; "ph1" is the phase-1 share of pivots.
  // "setup" and "fact" split the crash and warm solves' fixed cost per solve:
  // building the engine's CSC standard form, and LU factorizations.
  std::cout << "\nLP engines on the omniscient-normalizer sweep "
            << "(serial, same snapshots):\n";
  // "warm hits" counts accepted probes over probes actually made (the first
  // solve of a chain has no basis to probe, and the handle's backoff skips
  // probes after persistent misses — neither is a rejection).
  util::Table et({"network", "solves", "dense (s)", "dense pivots",
                  "two-phase (s)", "two-phase pivots", "ph1", "crash (s)",
                  "crash pivots", "ph1", "setup (ms)", "fact (ms)",
                  "warm (s)", "warm pivots", "setup (ms)", "fact (ms)",
                  "warm hits/probes"});
  util::Json jengines = util::Json::array();
  for (auto& ts : scenarios()) {
    const std::size_t count =
        std::min<std::size_t>(bench::full_mode() ? 60 : 24,
                              ts.sc.trace.size());
    const std::size_t begin = ts.sc.trace.size() - count;
    struct EngineRun {
      double seconds = 0.0;
      std::size_t pivots = 0;
      std::size_t phase1_pivots = 0;
      double setup_seconds = 0.0;
      double factorize_seconds = 0.0;
    };
    auto ms_per_solve = [count](double total) {
      return 1e3 * total / static_cast<double>(count);
    };
    // `dense` solves on the test-side tableau oracle, which reports pivots
    // only; otherwise the library's revised engine runs.
    auto sweep = [&](bool dense, lp::WarmStart* warm, bool hint) {
      EngineRun run;
      const auto t0 = Clock::now();
      for (std::size_t t = begin; t < ts.sc.trace.size(); ++t) {
        lp::LpProblem prob = te::build_mlu_lp(ts.sc.ps, ts.sc.trace[t]);
        if (!hint) prob.set_start_basis({});
        lp::SolveStats st;
        lp::LpResult res;
        if (dense) {
          res = lp::solve_dense(prob);
          st.pivots = res.iterations;
        } else {
          res = lp::solve_with(prob, {}, warm, &st);
        }
        if (!res.optimal()) throw std::runtime_error("engine sweep LP failed");
        run.pivots += st.pivots;
        run.phase1_pivots += st.phase1_pivots;
        run.setup_seconds += st.setup_seconds;
        run.factorize_seconds += st.factorize_seconds;
      }
      run.seconds = seconds_since(t0);
      return run;
    };
    const EngineRun dense = sweep(true, nullptr, true);
    const EngineRun cold = sweep(false, nullptr, false);
    const EngineRun crash = sweep(false, nullptr, true);
    lp::WarmStart warm;
    const EngineRun hot = sweep(false, &warm, true);
    et.add_row({ts.sc.name, std::to_string(count),
                util::fmt(dense.seconds, 3), std::to_string(dense.pivots),
                util::fmt(cold.seconds, 3), std::to_string(cold.pivots),
                std::to_string(cold.phase1_pivots),
                util::fmt(crash.seconds, 3), std::to_string(crash.pivots),
                std::to_string(crash.phase1_pivots),
                util::fmt(ms_per_solve(crash.setup_seconds), 3),
                util::fmt(ms_per_solve(crash.factorize_seconds), 3),
                util::fmt(hot.seconds, 3), std::to_string(hot.pivots),
                util::fmt(ms_per_solve(hot.setup_seconds), 3),
                util::fmt(ms_per_solve(hot.factorize_seconds), 3),
                std::to_string(warm.hits()) + "/" +
                    std::to_string(warm.hits() + warm.misses())});
    jengines.push(
        util::Json::object()
            .set("network", ts.sc.name)
            .set("solves", static_cast<std::int64_t>(count))
            .set("dense_seconds", dense.seconds)
            .set("dense_pivots", static_cast<std::int64_t>(dense.pivots))
            .set("revised_seconds", cold.seconds)
            .set("revised_pivots", static_cast<std::int64_t>(cold.pivots))
            .set("revised_phase1_pivots",
                 static_cast<std::int64_t>(cold.phase1_pivots))
            .set("crash_seconds", crash.seconds)
            .set("crash_pivots", static_cast<std::int64_t>(crash.pivots))
            .set("crash_phase1_pivots",
                 static_cast<std::int64_t>(crash.phase1_pivots))
            .set("crash_setup_ms_per_solve",
                 ms_per_solve(crash.setup_seconds))
            .set("crash_factorize_ms_per_solve",
                 ms_per_solve(crash.factorize_seconds))
            .set("warm_seconds", hot.seconds)
            .set("warm_pivots", static_cast<std::int64_t>(hot.pivots))
            .set("warm_setup_ms_per_solve",
                 ms_per_solve(hot.setup_seconds))
            .set("warm_factorize_ms_per_solve",
                 ms_per_solve(hot.factorize_seconds))
            .set("warm_hits", static_cast<std::int64_t>(warm.hits()))
            .set("warm_misses", static_cast<std::int64_t>(warm.misses())));
  }
  et.print(std::cout);
  jout.set("lp_engine_sweep", std::move(jengines));

  // RHS-only perturbation chains (failure-masked capacities): the workload
  // the dual simplex exists for. The LP is built once per network; each
  // step rewrites only capacity-row right-hand sides — structure, hence the
  // warm-start signature, never changes — so the previous optimal basis
  // stays dual feasible and every warm resolve must route through the dual
  // simplex (or stay primal feasible) with zero cold fallbacks. The bench
  // enforces that invariant: any fallback past the priming solve is a bug.
  std::cout << "\nRHS-only perturbation chains "
            << "(failure-masked capacities, serial):\n";
  util::Table rt({"network", "steps", "cold (s)", "cold pivots",
                  "dual-warm (s)", "warm pivots", "dual pivots", "fallbacks",
                  "speedup"});
  util::Json jchain = util::Json::array();
  struct ChainRecord {
    std::string network;
    std::size_t warm_pivots = 0;
  };
  std::vector<ChainRecord> chain_records;
  bool chain_failed = false;
  for (auto& ts : scenarios()) {
    const auto& dm = ts.sc.trace.snapshots.back();
    lp::LpProblem prob = te::build_mlu_lp(ts.sc.ps, dm);
    const std::size_t u_var = prob.num_variables() - 1;
    // Capacity rows (kLessEq) and their capacities (the -c_e term on U).
    std::vector<std::size_t> cap_rows;
    std::vector<double> cap_of;
    for (std::size_t r = 0; r < prob.rows().size(); ++r) {
      const auto& row = prob.rows()[r];
      if (row.rel != lp::Relation::kLessEq) continue;
      double ce = 0.0;
      for (const auto& term : row.terms)
        if (term.var == u_var) ce = -term.coeff;
      cap_rows.push_back(r);
      cap_of.push_back(ce);
    }
    const te::MluLpResult base = te::solve_mlu_lp(ts.sc.ps, dm);
    if (!base.optimal()) throw std::runtime_error("rhs chain: base LP failed");
    const double mlu0 = std::max(base.mlu, 1e-9);

    const std::size_t steps = bench::full_mode() ? 16 : 12;
    // Every step keeps every capacity rhs *strictly negative*: a tiny
    // uniform tightening plus a ~10% failure mask of up to 5% of c_e * MLU.
    // Strict negativity matters — the engines normalize rows to rhs >= 0 by
    // negation, so a row crossing zero would flip its relation and break
    // the chain's signature compatibility. Deterministic splitmix/LCG per
    // (step, row) keeps runs reproducible across machines.
    auto perturb = [&](std::size_t step) {
      std::uint64_t s = 0x9e3779b97f4a7c15ULL * (step + 1);
      for (std::size_t k = 0; k < cap_rows.size(); ++k) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        const double u01 =
            static_cast<double>((s >> 11) & 0x1fffff) / 2097151.0;
        double h = 1e-6 * cap_of[k] * mlu0;
        if (u01 < 0.1) h += (u01 * 10.0) * 0.05 * cap_of[k] * mlu0;
        prob.set_rhs(cap_rows[k], -h);
      }
    };

    lp::SolverOptions revised_opt;
    struct ChainRun {
      double seconds = 0.0;
      std::size_t pivots = 0, dual_pivots = 0, fallbacks = 0, warm_used = 0,
                  dual_used = 0;
    };
    auto chain = [&](bool warm_chain) {
      ChainRun run;
      lp::WarmStart warm;
      const auto t0 = Clock::now();
      for (std::size_t step = 0; step < steps; ++step) {
        perturb(step);
        lp::SolveStats st;
        const lp::LpResult res = lp::solve_with(
            prob, revised_opt, warm_chain ? &warm : nullptr, &st);
        if (!res.optimal()) throw std::runtime_error("rhs chain LP failed");
        run.pivots += st.pivots;
        run.dual_pivots += st.dual_pivots;
        if (st.warm_start_used) ++run.warm_used;
        if (st.dual_simplex_used) ++run.dual_used;
        if (st.fallback != lp::WarmFallback::kNone) ++run.fallbacks;
      }
      run.seconds = seconds_since(t0);
      return run;
    };
    const ChainRun cold = chain(false);
    const ChainRun hot = chain(true);
    rt.add_row({ts.sc.name, std::to_string(steps), util::fmt(cold.seconds, 3),
                std::to_string(cold.pivots), util::fmt(hot.seconds, 3),
                std::to_string(hot.pivots), std::to_string(hot.dual_pivots),
                std::to_string(hot.fallbacks),
                util::fmt(hot.seconds > 0.0 ? cold.seconds / hot.seconds : 0.0,
                          2)});
    jchain.push(
        util::Json::object()
            .set("network", ts.sc.name)
            .set("steps", static_cast<std::int64_t>(steps))
            .set("capacity_rows", static_cast<std::int64_t>(cap_rows.size()))
            .set("cold_seconds", cold.seconds)
            .set("cold_pivots", static_cast<std::int64_t>(cold.pivots))
            .set("dual_warm_seconds", hot.seconds)
            .set("warm_pivots", static_cast<std::int64_t>(hot.pivots))
            .set("dual_pivots", static_cast<std::int64_t>(hot.dual_pivots))
            .set("warm_used_steps", static_cast<std::int64_t>(hot.warm_used))
            .set("dual_steps", static_cast<std::int64_t>(hot.dual_used))
            .set("cold_fallbacks", static_cast<std::int64_t>(hot.fallbacks))
            .set("speedup_vs_cold",
                 hot.seconds > 0.0 ? cold.seconds / hot.seconds : 0.0));
    chain_records.push_back({ts.sc.name, hot.pivots});
    if (hot.fallbacks != 0 || hot.warm_used != steps - 1) {
      chain_failed = true;
      std::cout << "ERROR: " << ts.sc.name << " RHS chain fell back cold ("
                << hot.fallbacks << " fallbacks, " << hot.warm_used << "/"
                << (steps - 1) << " warm resolves)\n";
    }
  }
  rt.print(std::cout);
  jout.set("rhs_chain", std::move(jchain));

  // Parallel evaluation engine: the omniscient-normalizer LP solves are the
  // dominant cost of a full harness evaluation; time them serial vs pooled.
  // Per-snapshot results are bit-identical (tests/test_harness.cpp asserts
  // it); only wall-clock changes with the thread count.
  const std::size_t width = util::default_threads();
  std::cout << "\nHarness omniscient normalizer, serial vs " << width
            << " thread(s) [FIGRET_THREADS overrides]:\n";
  util::Table pt({"network", "snapshots", "serial (s)", "parallel (s)",
                  "speedup"});
  util::Json jparallel = util::Json::array();
  for (auto& ts : scenarios()) {
    te::Harness::Options hopt;
    hopt.eval_stride = ts.sc.eval_stride;
    hopt.threads = 1;
    te::Harness serial(ts.sc.ps, ts.sc.trace, hopt);
    const auto t0 = Clock::now();
    serial.omniscient();
    const double serial_s = seconds_since(t0);

    hopt.threads = 0;  // process-wide pool
    te::Harness pooled(ts.sc.ps, ts.sc.trace, hopt);
    const auto t1 = Clock::now();
    pooled.omniscient();
    const double pooled_s = seconds_since(t1);

    pt.add_row({ts.sc.name, std::to_string(serial.eval_indices().size()),
                util::fmt(serial_s, 2), util::fmt(pooled_s, 2),
                util::fmt(pooled_s > 0.0 ? serial_s / pooled_s : 0.0, 2)});
    jparallel.push(
        util::Json::object()
            .set("network", ts.sc.name)
            .set("snapshots",
                 static_cast<std::int64_t>(serial.eval_indices().size()))
            .set("serial_seconds", serial_s)
            .set("parallel_seconds", pooled_s)
            .set("threads", static_cast<std::int64_t>(width)));
  }
  pt.print(std::cout);
  jout.set("parallel_normalizer", std::move(jparallel));
  jout.write_file("BENCH_tab02_timing.json", 2);
  std::cout << "\nmachine-readable results: BENCH_tab02_timing.json\n";

  // CI regression smoke: FIGRET_BENCH_REFERENCE points at a committed
  // BENCH_tab02_timing.json; fail when a dual-warm chain now needs more
  // than 3x the reference pivot count (+ a small grace for tiny counts).
  // util::Json is a writer, so the reference is string-scanned: locate the
  // "rhs_chain" array, then each network's "warm_pivots" within it.
  int rc = chain_failed ? 1 : 0;
  if (const char* ref_path = std::getenv("FIGRET_BENCH_REFERENCE")) {
    std::ifstream in(ref_path);
    if (!in) {
      std::cout << "ERROR: cannot read bench reference " << ref_path << "\n";
      rc = 1;
    } else {
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string ref = buf.str();
      const std::size_t chain_at = ref.find("\"rhs_chain\"");
      for (const ChainRecord& cur : chain_records) {
        std::size_t ref_pivots = static_cast<std::size_t>(-1);
        if (chain_at != std::string::npos) {
          const std::size_t net_at = ref.find(
              "\"network\": \"" + cur.network + "\"", chain_at);
          if (net_at != std::string::npos) {
            const std::size_t piv_at = ref.find("\"warm_pivots\":", net_at);
            if (piv_at != std::string::npos)
              ref_pivots = static_cast<std::size_t>(
                  std::strtoull(ref.c_str() + piv_at + 14, nullptr, 10));
          }
        }
        if (ref_pivots == static_cast<std::size_t>(-1)) {
          std::cout << "ERROR: reference has no rhs_chain warm_pivots for "
                    << cur.network << "\n";
          rc = 1;
        } else if (cur.warm_pivots > 3 * ref_pivots + 48) {
          std::cout << "ERROR: " << cur.network
                    << " dual-warm pivots regressed: " << cur.warm_pivots
                    << " vs reference " << ref_pivots << "\n";
          rc = 1;
        } else {
          std::cout << "reference check " << cur.network << ": warm pivots "
                    << cur.warm_pivots << " vs reference " << ref_pivots
                    << " — ok\n";
        }
      }
    }
  }
  return rc;
}
