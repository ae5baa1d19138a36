// perfbench — one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file.csv>]
//
// Set-up (trace generation, path build, FIGRET training) runs three times
// and the median is reported. Then every workload streams its test range
// through te::ServingLoop (stream.h); geant-sweep also runs the Harness
// Fig 5 sweep (sweep.h). The last stdout line is one JSON object with every
// metric, every output check and the attempt/failure counts; run.py turns it
// into the benchmark's result line. Untraced runs (--trace 0) report the
// end-to-end metrics; traced runs (--trace 1) record spans, write them to
// --spans and report the per-layer metrics.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/figret.h"
#include "te/harness.h"
#include "traffic/generators.h"
#include "stream.h"
#include "sweep.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = a.seconds > 0.0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--spans <file>]");
  return a;
}

// Fixed per-workload shape. Rates are absolute numbers of this benchmark,
// never derived from the build under test.
struct Spec {
  double light_rate;
  double heavy_rate;
  std::size_t train_epochs;
};

Spec spec_of(const std::string& w) {
  if (w == "tor-web-serve") return {100.0, 1000.0, 2};
  if (w == "fattree8-failover") return {40.0, 120.0, 1};
  if (w == "geant-sweep") return {100.0, 1000.0, 3};
  throw std::invalid_argument("unknown workload " + w);
}

struct SetupTiming {
  double trace_gen = 0.0;
  double paths = 0.0;
  double train = 0.0;
  double total = 0.0;
};

te::FigretOptions model_options(std::uint64_t seed, std::size_t epochs) {
  te::FigretOptions o;
  o.history = 8;
  o.hidden = {128, 128, 128};
  o.epochs = epochs;
  o.seed = seed;
  return o;
}

// Trains on `train`, then loads the checkpoint into the three consumers.
void train_and_clone(Instance& in, const traffic::TrafficTrace& train,
                     const te::FigretOptions& opt) {
  te::FigretScheme trained(in.ps, opt);
  trained.fit(train);
  std::stringstream ckpt;
  trained.save(ckpt);
  in.models.clear();
  for (int i = 0; i < 3; ++i) {
    auto m = std::make_unique<te::FigretScheme>(in.ps, opt);
    std::stringstream is(ckpt.str());
    m->load(is);
    in.models.push_back(std::move(m));
  }
  in.history = opt.history;
}

// Builds the workload from its seed: the seed drives the traffic trace, the
// training initialisation and the failure choices; topologies are fixed.
std::unique_ptr<Instance> setup(const std::string& w, std::uint64_t seed,
                                SetupTiming& tm) {
  const Spec spec = spec_of(w);
  const te::FigretOptions opt = model_options(seed, spec.train_epochs);
  auto owner = std::make_unique<Instance>();
  Instance& in = *owner;
  const double t0 = now_s();
  double t1 = t0, t2 = t0;
  traffic::TrafficTrace train;
  if (w == "tor-web-serve") {
    // ToR-WEB: 32-node random-regular fabric, dense per-pair demand.
    in.trace = traffic::dc_tor_trace(32, 200, seed);
    t1 = now_s();
    const net::Graph g = net::random_regular(32, 10, 139);
    in.ps = te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
    t2 = now_s();
    train = in.trace.slice(0, 136);
    for (std::uint32_t t = 136; t < 200; ++t) in.stream_indices.push_back(t);
  } else if (w == "fattree8-failover") {
    // Fat-tree k=8 with ~1% of pairs active per snapshot.
    traffic::FabricOptions fo;
    fo.active_fraction = 0.01;
    in.trace = traffic::fabric_trace(80, 104, seed, fo);
    t1 = now_s();
    const net::FatTree ft = net::fat_tree(8);
    in.ps = te::PathSet::build(ft.graph, net::fat_tree_paths(ft, 4));
    t2 = now_s();
    for (const net::FailureDomain& d : net::fat_tree_pod_domains(ft))
      in.domains.push_back(d.edges);
    train = in.trace.slice(0, 72);
    for (std::uint32_t t = 72; t < 104; ++t) in.stream_indices.push_back(t);
  } else {
    // GEANT: real 23-node adjacency, seeded WAN trace, Harness split.
    in.trace = traffic::wan_trace(23, 600, seed);
    t1 = now_s();
    const net::Graph g = net::geant();
    in.ps = te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
    t2 = now_s();
    const te::Harness h(in.ps, in.trace, sweep_options(opt.history));
    train = h.train_trace();
    for (const std::size_t t : h.eval_indices())
      in.stream_indices.push_back(static_cast<std::uint32_t>(t));
  }
  train_and_clone(in, train, opt);
  const double t3 = now_s();

  in.domain_of.assign(in.trace.size(), -1);
  if (!in.domains.empty()) {
    // Two pods go down in turn over index-keyed windows of the test range.
    const std::size_t nd = in.domains.size();
    const int first = static_cast<int>(seed % nd);
    const int second = static_cast<int>((seed + nd / 2) % nd);
    for (std::uint32_t t = 80; t < 88; ++t) in.domain_of[t] = first;
    for (std::uint32_t t = 92; t < 100; ++t) in.domain_of[t] = second;
    in.failures = in.domains[static_cast<std::size_t>(first)];
  } else {
    in.failures = te::sample_safe_failures(in.ps, 2, seed);
  }

  tm.trace_gen = t1 - t0;
  tm.paths = t2 - t1;
  tm.train = (t3 - t2) / static_cast<double>(opt.epochs);
  tm.total = now_s() - t0;
  return owner;
}

// Single-thread read bandwidth over a buffer far larger than any model:
// the roofline denominator for nn.forward_bw_frac.
double stream_gbs() {
  const std::size_t n = std::size_t{32} << 20;  // 256 MiB of doubles
  std::vector<double> buf(n, 1.0);
  double best = 1e30, sink = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double a = now_s();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i < n; i += 4) {
      s0 += buf[i];
      s1 += buf[i + 1];
      s2 += buf[i + 2];
      s3 += buf[i + 3];
    }
    best = std::min(best, now_s() - a);
    sink += s0 + s1 + s2 + s3;
  }
  if (sink != 5.0 * static_cast<double>(n))
    throw std::logic_error("stream probe: wrong checksum");
  return static_cast<double>(n * sizeof(double)) / best / 1e9;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void print_result(const Args& a, const Report& r) {
  std::ostream& os = std::cout;
  char num[64];
  os << "{\"workload\":";
  write_json_string(os, a.workload);
  os << ",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"build_type\":";
  write_json_string(os, PERFBENCH_BUILD_TYPE);
  os << ",\"compiler\":";
  write_json_string(os, PERFBENCH_COMPILER);
  os << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, r.metrics[i].name);
    std::snprintf(num, sizeof num, "%.17g", r.metrics[i].value);
    os << ":{\"value\":" << num << ",\"unit\":";
    write_json_string(os, r.metrics[i].unit);
    os << '}';
  }
  os << "},\"series\":{";
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, r.series[i].first);
    os << ":[";
    for (std::size_t k = 0; k < r.series[i].second.size(); ++k) {
      std::snprintf(num, sizeof num, "%.17g", r.series[i].second[k]);
      os << (k ? "," : "") << num;
    }
    os << ']';
  }
  os << "},\"checks\":{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, r.checks[i].first);
    os << ':' << (r.checks[i].second ? "true" : "false");
  }
  os << "}}" << std::endl;
}

int run(const Args& a) {
  const Spec spec = spec_of(a.workload);
  Tracer tracer(a.trace);
  Report report;

  std::vector<SetupTiming> tms(kSetupRepeats);
  std::unique_ptr<Instance> owner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    owner.reset();  // release the previous repeat before building the next
    owner = setup(a.workload, a.seed, tms[static_cast<std::size_t>(i)]);
  }
  Instance& in = *owner;
  const auto med = [&](double SetupTiming::*f) {
    std::vector<double> v;
    for (const SetupTiming& t : tms) v.push_back(t.*f);
    return median(v);
  };

  double gbs = 0.0;
  if (a.trace) gbs = stream_gbs();

  StreamPlan plan;
  plan.light_rate = spec.light_rate;
  plan.heavy_rate = spec.heavy_rate;
  plan.rounds = kRounds;
  plan.light_seconds = 0.5 * a.seconds / kRounds;
  plan.heavy_seconds = 0.25 * a.seconds / kRounds;
  plan.peak_seconds = 0.25 * a.seconds / kRounds;
  const bool sweep = a.workload == "geant-sweep";
  LpLedger stream_lp;
  run_stream(in, plan, /*replay_is_sweep=*/!sweep, tracer, stream_lp, report);
  if (sweep) run_harness_sweep(in, tracer, report);

  if (!a.trace) {
    report.metric("setup_s", med(&SetupTiming::total), "s");
    std::vector<double> totals;
    for (const SetupTiming& t : tms) totals.push_back(t.total);
    report.samples("setup_s", totals);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("failed_frac",
                  static_cast<double>(report.failed) /
                      static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
                  "ratio");
  } else {
    report.metric("nn.train_epoch_s", med(&SetupTiming::train), "s");
    report.metric("traffic.trace_gen_s", med(&SetupTiming::trace_gen), "s");
    report.metric("net.paths_build_s", med(&SetupTiming::paths), "s");
    report.metric("host.stream_gbs", gbs, "GB/s");
    double forward_gbs = 0.0;
    for (const Report::Metric& m : report.metrics)
      if (m.name == "nn.forward_gbs") forward_gbs = m.value;
    report.metric("nn.forward_bw_frac", forward_gbs / gbs, "ratio");
    if (!sweep) {
      // On a stream the LP layer only solves the quality guard's optima;
      // the Harness does not run.
      report_lp(stream_lp, report);
      for (const char* name : {"harness.omniscient_s",
                               "harness.fail_omniscient_s", "harness.score_s"})
        report.metric(name, 0.0, "s");
      report.metric("harness.parallel_eff", 0.0, "ratio");
    }
    if (!a.spans.empty()) tracer.write_csv(a.spans);
  }
  print_result(a, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
