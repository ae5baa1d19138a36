// A benchmark workload after set-up: topology, path set, seeded trace, the
// trained FIGRET model cloned per consumer, and the index-keyed failure
// schedule the stream follows. Plus the Report every part writes into.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/graph.h"
#include "te/figret.h"
#include "te/pathset.h"
#include "traffic/demand.h"

namespace perfbench {

namespace net = figret::net;
namespace te = figret::te;
namespace traffic = figret::traffic;

/// Models and the serving loop hold pointers to `ps` and `trace`, so an
/// Instance lives at one address (see setup() in main.cpp).
struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  te::PathSet ps;
  traffic::TrafficTrace trace;
  /// Clones of one trained checkpoint: [0] and [1] serve as the two stream
  /// workers' advisors, [2] drives the single-threaded replay and the sweep.
  /// Loading one checkpoint three times makes their outputs bit-identical.
  std::vector<std::unique_ptr<te::FigretScheme>> models;
  std::size_t history = 1;
  /// Distinct trace indices the stream cycles through, in order.
  std::vector<std::uint32_t> stream_indices;
  /// Failure domain down while index t is served (-1: none), per trace index.
  std::vector<int> domain_of;
  /// Edges of each failure domain.
  std::vector<std::vector<net::EdgeId>> domains;
  /// Links the sweep fails and the reroute probe masks on snapshots with no
  /// domain down: two links whose loss keeps every pair connected, or on the
  /// fat-tree — where losing any one uplink cuts some pair off — the first
  /// scheduled pod.
  std::vector<net::EdgeId> failures;
};

/// Every metric, check and attempt count one run produces.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  /// The per-round / per-pass samples a metric was reduced from (written to
  /// the result record for later analysis; not part of the result line).
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void samples(std::string name, std::vector<double> values) {
    series.emplace_back(std::move(name), std::move(values));
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
};

}  // namespace perfbench
