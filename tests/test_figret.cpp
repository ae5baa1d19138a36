#include "te/figret.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"
#include "traffic/stats.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

FigretOptions fast_options() {
  FigretOptions opt;
  opt.history = 4;
  opt.hidden = {64, 64};
  opt.epochs = 8;
  opt.batch_size = 8;
  return opt;
}

TEST(Figret, DoteOptionsDisableRobustness) {
  FigretOptions base;
  base.robust_weight = 3.0;
  const FigretOptions dote = dote_options(base);
  EXPECT_DOUBLE_EQ(dote.robust_weight, 0.0);
  EXPECT_EQ(dote.history, base.history);
}

TEST(Figret, LifecycleGuards) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  EXPECT_EQ(scheme.name(), "FIGRET");
  std::vector<traffic::DemandMatrix> history(4, traffic::DemandMatrix(4, 1.0));
  EXPECT_THROW(scheme.advise(history), std::logic_error);
  EXPECT_THROW(scheme.model(), std::logic_error);

  FigretOptions bad = fast_options();
  bad.history = 0;
  EXPECT_THROW(FigretScheme(ps, bad), std::invalid_argument);
}

TEST(Figret, FitRejectsShortOrMismatchedTraces) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  traffic::TrafficTrace tiny;
  tiny.num_nodes = 4;
  for (int i = 0; i < 3; ++i) tiny.snapshots.emplace_back(4, 1.0);
  EXPECT_THROW(scheme.fit(tiny), std::invalid_argument);

  traffic::TrafficTrace wrong = traffic::gravity_trace(5, 30, 1);
  EXPECT_THROW(scheme.fit(wrong), std::invalid_argument);
}

TEST(Figret, AdviseProducesValidConfigs) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  const auto trace = traffic::dc_tor_trace(4, 120, 3);
  scheme.fit(trace);
  for (std::size_t t = trace.size() - 10; t < trace.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        trace.snapshots.data() + (t - 4), 4};
    const TeConfig cfg = scheme.advise(history);
    EXPECT_TRUE(valid_config(ps, cfg));
  }
}

TEST(Figret, TrainingApproachesOptimalOnStableTraffic) {
  // On perfectly learnable (stable gravity) traffic, the DNN's MLU should
  // land close to the per-snapshot LP optimum.
  const PathSet ps = mesh_pathset(4);
  FigretOptions opt = fast_options();
  opt.epochs = 30;
  opt.robust_weight = 0.0;
  FigretScheme scheme(ps, opt, "DOTE");
  const auto trace = traffic::gravity_trace(4, 160, 5);
  const auto [train, test] = trace.split(0.8);
  scheme.fit(train);

  double ratio_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 4; t < test.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        test.snapshots.data() + (t - 4), 4};
    const TeConfig cfg = scheme.advise(history);
    const MluLpResult opt_lp = solve_mlu_lp(ps, test[t]);
    ASSERT_TRUE(opt_lp.optimal());
    ratio_sum += mlu(ps, test[t], cfg) / opt_lp.mlu;
    ++count;
  }
  EXPECT_LT(ratio_sum / static_cast<double>(count), 1.35);
}

TEST(Figret, PairWeightsProportionalToVariance) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  const auto trace = traffic::dc_tor_trace(4, 100, 7);
  scheme.fit(trace);
  const auto var = traffic::pair_variances(trace);
  const auto& got = scheme.pair_weights();
  ASSERT_EQ(got.size(), var.size());
  // Weights are variances divided by one global constant: all ratios agree.
  const std::size_t ref = static_cast<std::size_t>(
      std::max_element(var.begin(), var.end()) - var.begin());
  ASSERT_GT(var[ref], 0.0);
  const double k = got[ref] / var[ref];
  EXPECT_GT(k, 0.0);
  for (std::size_t p = 0; p < got.size(); ++p)
    EXPECT_NEAR(got[p], k * var[p], 1e-9 + 1e-6 * got[p]);
}

TEST(Figret, PairWeightsInvariantToTrafficUnits) {
  // Scaling every demand by a constant must not change the weights — the
  // loss balance between L1 and L2 is unit-free.
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 100, 7);
  traffic::TrafficTrace scaled = trace;
  for (auto& dm : scaled.snapshots)
    for (double& v : dm.values()) v *= 1000.0;

  FigretScheme a(ps, fast_options());
  a.fit(trace);
  FigretScheme b(ps, fast_options());
  b.fit(scaled);
  for (std::size_t p = 0; p < a.pair_weights().size(); ++p)
    EXPECT_NEAR(a.pair_weights()[p], b.pair_weights()[p],
                1e-9 + 1e-6 * a.pair_weights()[p]);
}

TEST(Figret, RobustnessTermLowersBurstyPairSensitivity) {
  // One pair bursts wildly; all others are stable. FIGRET (high robust
  // weight) must assign that pair a lower max path sensitivity than DOTE.
  const std::size_t n = 4;
  const PathSet ps = mesh_pathset(n);
  traffic::TrafficTrace trace;
  trace.num_nodes = n;
  util::Rng rng(11);
  const std::size_t bursty = traffic::pair_index(n, 0, 1);
  for (std::size_t t = 0; t < 160; ++t) {
    traffic::DemandMatrix dm(n, 0.2);
    dm[bursty] = rng.bernoulli(0.15) ? rng.uniform(1.0, 3.0) : 0.15;
    trace.snapshots.push_back(std::move(dm));
  }

  FigretOptions fopt = fast_options();
  fopt.epochs = 25;
  fopt.robust_weight = 10.0;
  FigretScheme figret(ps, fopt);
  figret.fit(trace);

  FigretScheme dote(ps, dote_options(fopt), "DOTE");
  dote.fit(trace);

  // Average the bursty pair's max sensitivity over several advise calls.
  double fig_sens = 0.0, dote_sens = 0.0;
  int count = 0;
  for (std::size_t t = trace.size() - 20; t < trace.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        trace.snapshots.data() + (t - fopt.history), fopt.history};
    fig_sens += max_pair_sensitivities(ps, figret.advise(history))[bursty];
    dote_sens += max_pair_sensitivities(ps, dote.advise(history))[bursty];
    ++count;
  }
  EXPECT_LT(fig_sens / count, dote_sens / count);
}

TEST(Figret, FinalLossIsFinitePositive) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  scheme.fit(traffic::dc_tor_trace(4, 80, 13));
  EXPECT_GT(scheme.final_epoch_loss(), 0.0);
  EXPECT_TRUE(std::isfinite(scheme.final_epoch_loss()));
}

TEST(Figret, DeterministicGivenSeed) {
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 80, 17);
  FigretScheme a(ps, fast_options());
  FigretScheme b(ps, fast_options());
  a.fit(trace);
  b.fit(trace);
  const std::span<const traffic::DemandMatrix> history{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig ca = a.advise(history);
  const TeConfig cb = b.advise(history);
  for (std::size_t p = 0; p < ca.size(); ++p) EXPECT_DOUBLE_EQ(ca[p], cb[p]);
}

TEST(Figret, MakeDoteFactory) {
  const PathSet ps = mesh_pathset(4);
  const auto dote = make_dote(ps, fast_options());
  EXPECT_EQ(dote->name(), "DOTE");
}

TEST(Figret, SaveLoadRoundTripPreservesAdvise) {
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 80, 19);
  FigretScheme trained(ps, fast_options());
  trained.fit(trace);

  std::stringstream buffer;
  trained.save(buffer);

  FigretScheme fresh(ps, fast_options());
  fresh.load(buffer);

  const std::span<const traffic::DemandMatrix> history{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig a = trained.advise(history);
  const TeConfig b = fresh.advise(history);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) EXPECT_DOUBLE_EQ(a[p], b[p]);
  // Pair weights restored too (needed if training is later resumed).
  for (std::size_t p = 0; p < ps.num_pairs(); ++p)
    EXPECT_DOUBLE_EQ(fresh.pair_weights()[p], trained.pair_weights()[p]);
}

TEST(Figret, SaveRequiresFit) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  std::stringstream buffer;
  EXPECT_THROW(scheme.save(buffer), std::logic_error);
}

TEST(Figret, LoadRejectsMismatchedTopology) {
  const PathSet ps4 = mesh_pathset(4);
  const PathSet ps5 = mesh_pathset(5);
  FigretScheme trained(ps4, fast_options());
  trained.fit(traffic::dc_tor_trace(4, 60, 23));
  std::stringstream buffer;
  trained.save(buffer);

  FigretScheme other(ps5, fast_options());
  EXPECT_THROW(other.load(buffer), std::runtime_error);
}

TEST(Figret, LoadRejectsGarbage) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  std::stringstream buffer;
  buffer << "not a checkpoint";
  EXPECT_THROW(scheme.load(buffer), std::runtime_error);
}

// Overwrites the double at byte `offset` of a serialized checkpoint.
std::string patch_double(std::string blob, std::size_t offset, double v) {
  std::memcpy(blob.data() + offset, &v, sizeof v);
  return blob;
}

TEST(Figret, LoadRejectsNonFiniteScaleWeightsAndParameters) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme trained(ps, fast_options());
  trained.fit(traffic::dc_tor_trace(4, 60, 29));
  std::stringstream buffer;
  trained.save(buffer);
  const std::string blob = buffer.str();

  // Scheme header: magic, u32 version, u64 history, f64 input scale,
  // u64 pair count, pair weights; the load_mlp blob follows.
  const std::size_t scale_at = 4 + 4 + 8;
  const std::size_t weights_at = scale_at + 8 + 8;
  const std::size_t mlp_at = weights_at + 8 * ps.num_pairs();
  // Model header: magic, u32 version, u32 size count, u64 sizes, u32 tag;
  // then layer 0's weights, row-major.
  const std::size_t sizes = trained.model().num_layers() + 1;
  const std::size_t w0_at = mlp_at + 4 + 4 + 4 + 8 * sizes + 4;
  const std::size_t cols = trained.model().input_size();

  // Each corruption must be caught by its own check, named in the message.
  const auto rejects = [&](const std::string& bad, const std::string& msg) {
    FigretScheme fresh(ps, fast_options());
    std::stringstream is(bad);
    try {
      fresh.load(is);
      ADD_FAILURE() << "accepted a checkpoint with " << msg;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(msg), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string bad_scale = "input scale must be finite and positive";
  rejects(patch_double(blob, scale_at, 0.0), bad_scale);
  rejects(patch_double(blob, scale_at, -1.0), bad_scale);
  rejects(patch_double(blob, scale_at, inf), bad_scale);
  rejects(patch_double(blob, scale_at, nan), bad_scale);
  rejects(patch_double(blob, weights_at + 8, nan), "non-finite pair weight");
  // NaN in first-layer column 3, row 1.
  rejects(patch_double(blob, w0_at + 8 * (cols + 3), nan),
          "non-finite weight in layer 0");

  // The unpatched checkpoint still loads.
  FigretScheme fresh(ps, fast_options());
  std::stringstream is(blob);
  EXPECT_NO_THROW(fresh.load(is));
}

TEST(Figret, AdviseIntoOnSparseFabricMatchesForwardBatch) {
  // Fat-tree k=4 at 1% active pairs: the input window is far below the
  // sparse first-layer bound, so advise_into's forward() gathers weight
  // columns; it must equal the always-dense forward_batch bit for bit.
  const net::FatTree ft = net::fat_tree(4);
  const PathSet ps = PathSet::build(ft.graph, net::fat_tree_paths(ft, 4));
  traffic::FabricOptions fo;
  fo.active_fraction = 0.01;
  const auto trace = traffic::fabric_trace(ft.graph.num_nodes(), 40, 47, fo);
  const FigretOptions opt = fast_options();
  FigretScheme scheme(ps, opt);
  const auto train = trace.slice(0, 30);
  scheme.fit(train);

  // The model input, built as FigretScheme does: window of H snapshots,
  // most recent last, scaled by the training set's peak demand.
  double scale = 1e-12;
  for (const auto& dm : train.snapshots) scale = std::max(scale, dm.max_value());
  const std::size_t pairs = ps.num_pairs();
  const std::size_t cols = opt.history * pairs;
  ASSERT_EQ(scheme.model().input_size(), cols);
  const std::size_t first = 30, last = trace.size();
  linalg::Matrix x(last - first, cols);
  for (std::size_t t = first; t < last; ++t) {
    std::size_t nnz = 0;
    for (std::size_t h = 0; h < opt.history; ++h)
      trace[t - opt.history + h].for_each_active([&](std::size_t p, double v) {
        x(t - first, h * pairs + p) = v / scale;
        ++nnz;
      });
    ASSERT_LE(nnz * 8, cols) << "window " << t << " is not sparse";
  }
  nn::MlpBatchWorkspace bws;
  const linalg::Matrix& sig = scheme.model().forward_batch(x, bws);

  nn::MlpWorkspace ws;
  TeConfig served, expected;
  for (std::size_t t = first; t < last; ++t) {
    scheme.model().forward(x.row(t - first), ws);
    for (std::size_t i = 0; i < ws.pre[0].size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ws.pre[0][i]),
                std::bit_cast<std::uint64_t>(bws.pre[0](t - first, i)))
          << "window " << t << " layer-0 unit " << i;
    scheme.advise_into({trace.snapshots.data() + t - opt.history, opt.history},
                       served);
    ratios_from_sigmoid_into(ps, sig.row(t - first), expected);
    ASSERT_EQ(served.size(), expected.size());
    for (std::size_t p = 0; p < served.size(); ++p)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(served[p]),
                std::bit_cast<std::uint64_t>(expected[p]))
          << "window " << t << " path " << p;
  }
}

}  // namespace
}  // namespace figret::te
