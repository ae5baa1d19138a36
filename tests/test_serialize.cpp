#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/rng.h"

namespace figret::nn {
namespace {

Mlp make_model(OutputActivation act = OutputActivation::kSigmoid) {
  MlpConfig cfg;
  cfg.layer_sizes = {5, 16, 8, 3};
  cfg.output = act;
  cfg.seed = 77;
  return Mlp(cfg);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  const Mlp original = make_model();
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp loaded = load_mlp(buffer);

  EXPECT_EQ(loaded.input_size(), original.input_size());
  EXPECT_EQ(loaded.output_size(), original.output_size());
  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  EXPECT_EQ(loaded.output_activation(), original.output_activation());

  util::Rng rng(3);
  MlpWorkspace ws1, ws2;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(original.input_size());
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    const auto ya = original.forward(x, ws1);
    const auto yb = loaded.forward(x, ws2);
    for (std::size_t i = 0; i < ya.size(); ++i)
      EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, RoundTripIdentityActivation) {
  const Mlp original = make_model(OutputActivation::kIdentity);
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp loaded = load_mlp(buffer);
  EXPECT_EQ(loaded.output_activation(), OutputActivation::kIdentity);
}

TEST(Serialize, FileRoundTrip) {
  const Mlp original = make_model();
  const std::string path = "/tmp/figret_test_model.bin";
  save_mlp_file(original, path);
  const Mlp loaded = load_mlp_file(path);
  EXPECT_EQ(loaded.num_parameters(), original.num_parameters());
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOPE garbage";
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedInputRejected) {
  const Mlp original = make_model();
  std::stringstream buffer;
  save_mlp(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_mlp(truncated), std::runtime_error);
}

TEST(Serialize, EmptyInputRejected) {
  std::stringstream buffer;
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(Serialize, NonFiniteParametersRejected) {
  // Mlp::forward's sparse first layer skips the weight columns under zero
  // inputs; that matches the dense pass only when every weight is finite.
  const auto rejects = [](Mlp m) {
    std::stringstream buffer;
    save_mlp(m, buffer);
    EXPECT_THROW(load_mlp(buffer), std::runtime_error);
  };
  Mlp nan_in_first_layer = make_model();
  for (std::size_t r = 0; r < nan_in_first_layer.weights()[0].rows(); ++r)
    nan_in_first_layer.weights()[0](r, 2) =
        std::numeric_limits<double>::quiet_NaN();
  rejects(nan_in_first_layer);
  Mlp inf_weight = make_model();
  inf_weight.weights()[1](3, 4) = -std::numeric_limits<double>::infinity();
  rejects(inf_weight);
  Mlp nan_bias = make_model();
  nan_bias.biases()[2][0] = std::numeric_limits<double>::quiet_NaN();
  rejects(nan_bias);

  Mlp planted = make_model();
  planted.weights()[0](0, 1) = std::numeric_limits<double>::quiet_NaN();
  std::stringstream buffer;
  save_mlp(planted, buffer);
  try {
    load_mlp(buffer);
    FAIL() << "expected load_mlp to reject a NaN weight";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite weight in layer 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, MissingFileRejected) {
  EXPECT_THROW(load_mlp_file("/nonexistent/figret.bin"), std::runtime_error);
}

}  // namespace
}  // namespace figret::nn
