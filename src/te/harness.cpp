#include "te/harness.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "util/parallel.h"

namespace figret::te {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs body(begin, end) over [0, n) in chunks of `chunk` indices, one chunk
/// per util::parallel_for index. Which thread runs a chunk never matters:
/// chunk boundaries depend only on `n` and `chunk`.
template <typename F>
void for_each_chunk(std::size_t n, std::size_t chunk, std::size_t threads,
                    F&& body) {
  util::parallel_for(
      0, (n + chunk - 1) / chunk,
      [&](std::size_t c) { body(c * chunk, std::min(n, (c + 1) * chunk)); },
      threads);
}

}  // namespace

Harness::Harness(const PathSet& ps, traffic::TrafficTrace trace)
    : Harness(ps, std::move(trace), Options{}) {}

Harness::Harness(const PathSet& ps, traffic::TrafficTrace trace,
                 const Options& opt)
    : ps_(&ps), trace_(std::move(trace)), opt_(opt) {
  if (trace_.num_nodes != ps.num_nodes())
    throw std::invalid_argument("Harness: trace/topology mismatch");
  split_ = static_cast<std::size_t>(opt_.train_fraction *
                                    static_cast<double>(trace_.size()));
  if (split_ < opt_.max_window || split_ >= trace_.size())
    throw std::invalid_argument(
        "Harness: trace too short for the requested split/window");
  const std::size_t stride = std::max<std::size_t>(1, opt_.eval_stride);
  for (std::size_t t = split_; t < trace_.size(); t += stride)
    eval_indices_.push_back(t);
}

traffic::TrafficTrace Harness::train_trace() const {
  return trace_.slice(0, split_);
}

std::vector<double> Harness::omniscient_for_alive(
    const std::vector<bool>* alive) {
  // The dominant cost of a full evaluation (Fig 5 / Table 2): one LP per
  // evaluated snapshot. A chunk is both one warm chain (a fresh
  // lp::WarmStart) and one unit of parallelism, capped so >= ~32 chunks
  // exist. The chunk rule depends only on warm_chunk and the eval count,
  // never on `threads`, so the vector is bit-identical for any width.
  const std::size_t n = eval_indices_.size();
  const bool chain = opt_.warm_chunk > 0;
  const std::size_t chunk = std::max<std::size_t>(
      1, std::min<std::size_t>(chain ? opt_.warm_chunk : 1, n / 32));
  std::vector<double> out(n, 0.0);
  for_each_chunk(n, chunk, opt_.threads, [&](std::size_t begin,
                                             std::size_t end) {
    lp::WarmStart warm;
    for (std::size_t i = begin; i < end; ++i) {
      const MluLpResult res =
          solve_mlu_lp(*ps_, trace_[eval_indices_[i]], nullptr, alive,
                       &opt_.solver, chain ? &warm : nullptr);
      if (!res.optimal())
        throw std::runtime_error(
            std::string("Harness: omniscient LP failed (status: ") +
            lp::to_string(res.status) + ")");
      out[i] = res.mlu;
    }
  });
  return out;
}

const std::vector<double>& Harness::omniscient() {
  std::lock_guard<std::mutex> lock(omniscient_mu_);
  if (!omniscient_) omniscient_ = omniscient_for_alive(nullptr);
  return *omniscient_;
}

std::vector<double> Harness::score_batch(const std::vector<TeConfig>* configs,
                                         const TeConfig* fixed,
                                         const std::vector<bool>* alive,
                                         std::size_t threads) {
  // Scoring is pure per index; chunks only amortize the scratch buffers.
  const std::size_t n = eval_indices_.size();
  const std::size_t width = threads == 0 ? util::default_threads() : threads;
  const std::size_t chunk = std::max<std::size_t>(1, n / (width * 8 + 1));
  std::vector<double> out(n, 0.0);
  for_each_chunk(n, chunk, threads, [&](std::size_t begin, std::size_t end) {
    TeConfig rerouted;
    std::vector<double> edge_scratch;
    for (std::size_t i = begin; i < end; ++i) {
      const TeConfig& base = configs != nullptr ? (*configs)[i] : *fixed;
      const TeConfig* served = &base;
      if (alive != nullptr) {
        reroute_into(*ps_, base, *alive, rerouted);
        served = &rerouted;
      }
      out[i] = mlu(*ps_, trace_[eval_indices_[i]], *served, edge_scratch);
    }
  });
  return out;
}

SchemeEval Harness::finish(std::string name, std::vector<double> raw,
                           const std::vector<double>& reference,
                           double total_seconds) {
  SchemeEval ev;
  ev.name = std::move(name);
  ev.raw_mlu = std::move(raw);
  ev.normalized.reserve(ev.raw_mlu.size());
  for (std::size_t i = 0; i < ev.raw_mlu.size(); ++i) {
    const double denom = reference[i] > 1e-12 ? reference[i] : 1e-12;
    const double norm = ev.raw_mlu[i] / denom;
    ev.normalized.push_back(norm);
    if (norm > 2.0) ++ev.severe_congestion;
  }
  ev.mean_advise_seconds =
      ev.raw_mlu.empty()
          ? 0.0
          : total_seconds / static_cast<double>(ev.raw_mlu.size());
  return ev;
}

SchemeEval Harness::evaluate(TeScheme& scheme, bool fit) {
  return evaluate_with_width(scheme, fit, opt_.threads);
}

std::vector<TeConfig> Harness::advise_all(TeScheme& scheme,
                                          std::size_t window,
                                          double* advise_seconds) {
  // advise() is stateful and is the quantity being timed (Table 2), so the
  // configs are produced serially; scoring them against the realized demand
  // is pure and fans out across snapshots afterwards.
  std::vector<TeConfig> configs(eval_indices_.size());
  for (std::size_t i = 0; i < eval_indices_.size(); ++i) {
    const std::size_t t = eval_indices_[i];
    const std::span<const traffic::DemandMatrix> history{
        trace_.snapshots.data() + (t - window), window};
    const auto start = Clock::now();
    configs[i] = scheme.advise(history);
    *advise_seconds += seconds_since(start);
  }
  return configs;
}

SchemeEval Harness::evaluate_with_width(TeScheme& scheme, bool fit,
                                        std::size_t threads) {
  if (fit) scheme.fit(train_trace());
  const std::size_t window = std::max<std::size_t>(1, scheme.history_window());
  if (window > opt_.max_window)
    throw std::invalid_argument("Harness: scheme window exceeds max_window");

  double advise_seconds = 0.0;
  const std::vector<TeConfig> configs =
      advise_all(scheme, window, &advise_seconds);

  std::vector<double> raw = score_batch(&configs, nullptr, nullptr, threads);
  return finish(scheme.name(), std::move(raw), omniscient(), advise_seconds);
}

SchemeEval Harness::evaluate_config(const std::string& name,
                                    const TeConfig& config) {
  std::vector<double> raw =
      score_batch(nullptr, &config, nullptr, opt_.threads);
  return finish(name, std::move(raw), omniscient(), 0.0);
}

SchemeEval Harness::evaluate_under_failures(
    TeScheme& scheme, const std::vector<net::EdgeId>& failed, bool fit) {
  if (fit) scheme.fit(train_trace());
  const std::size_t window = std::max<std::size_t>(1, scheme.history_window());
  if (window > opt_.max_window)
    throw std::invalid_argument("Harness: scheme window exceeds max_window");

  const std::vector<bool> alive = surviving_paths(*ps_, failed);
  const std::vector<double> oracle = omniscient_for_alive(&alive);

  double advise_seconds = 0.0;
  const std::vector<TeConfig> configs =
      advise_all(scheme, window, &advise_seconds);

  std::vector<double> raw =
      score_batch(&configs, nullptr, &alive, opt_.threads);
  return finish(scheme.name(), std::move(raw), oracle, advise_seconds);
}

std::vector<SchemeEval> Harness::evaluate_all(
    std::span<TeScheme* const> schemes, bool fit) {
  omniscient();  // materialize the shared normalizer before fanning out
  std::vector<SchemeEval> out(schemes.size());
  // Outer fan-out saturates the machine, so each scheme's own per-snapshot
  // loops run serially (width 1) to avoid oversubscription.
  util::parallel_for(
      0, schemes.size(),
      [&](std::size_t i) {
        out[i] = evaluate_with_width(*schemes[i], fit, 1);
      },
      opt_.threads);
  return out;
}

}  // namespace figret::te
