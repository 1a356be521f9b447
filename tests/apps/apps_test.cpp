#include <gtest/gtest.h>

#include "apps/digit_recognition.hpp"
#include "apps/heartbeat.hpp"
#include "apps/hello_world.hpp"
#include "apps/image_smoothing.hpp"
#include "apps/registry.hpp"
#include "apps/synthetic.hpp"

namespace snnmap::apps {
namespace {

TEST(HelloWorld, TopologyMatchesTableI) {
  HelloWorldConfig cfg;
  cfg.duration_ms = 200.0;
  const auto g = build_hello_world(cfg);
  // 117 inputs + 117 grid + 9 out.
  EXPECT_EQ(g.neuron_count(), 117u + 117u + 9u);
  const auto net = build_hello_world_network(cfg);
  ASSERT_EQ(net.group_count(), 3u);
  EXPECT_EQ(net.group(2).name, "out");
  EXPECT_EQ(net.group(2).size, 9u);
  EXPECT_EQ(net.group(2).last(), g.neuron_count());
  // one-to-one + full: 117 + 117*9 edges.
  EXPECT_EQ(g.edge_count(), 117u + 117u * 9u);
}

TEST(HelloWorld, ProducesActivityInAllStages) {
  HelloWorldConfig cfg;
  cfg.duration_ms = 500.0;
  const auto g = build_hello_world(cfg);
  std::uint64_t input_spikes = 0;
  std::uint64_t grid_spikes = 0;
  std::uint64_t out_spikes = 0;
  for (std::uint32_t i = 0; i < 117; ++i) input_spikes += g.spike_count(i);
  for (std::uint32_t i = 117; i < 234; ++i) grid_spikes += g.spike_count(i);
  for (std::uint32_t i = 234; i < 243; ++i) out_spikes += g.spike_count(i);
  EXPECT_GT(input_spikes, 100u);
  EXPECT_GT(grid_spikes, 50u);
  EXPECT_GT(out_spikes, 0u);
}

TEST(ImageSmoothing, TopologyMatchesTableI) {
  ImageSmoothingConfig cfg;
  cfg.duration_ms = 100.0;
  const auto g = build_image_smoothing(cfg);
  EXPECT_EQ(g.neuron_count(), 2048u);  // 1024 + 1024
  // 5x5 kernel minus border clipping: between 1024*9 and 1024*25 edges.
  EXPECT_GT(g.edge_count(), 1024u * 9u);
  EXPECT_LE(g.edge_count(), 1024u * 25u);
}

TEST(ImageSmoothing, OutputTracksInputIntensity) {
  ImageSmoothingConfig cfg;
  cfg.duration_ms = 400.0;
  cfg.seed = 9;
  const auto g = build_image_smoothing(cfg);
  const auto image = make_test_image(cfg.width, cfg.height, cfg.seed ^ 0xABCD);
  // Mean output rate over bright pixels must exceed that over dark pixels.
  double bright_rate = 0.0;
  double dark_rate = 0.0;
  std::size_t bright = 0;
  std::size_t dark = 0;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    const double rate = static_cast<double>(g.spike_count(1024 + i));
    if (image[i] > 0.6) {
      bright_rate += rate;
      ++bright;
    } else if (image[i] < 0.2) {
      dark_rate += rate;
      ++dark;
    }
  }
  ASSERT_GT(bright, 0u);
  ASSERT_GT(dark, 0u);
  EXPECT_GT(bright_rate / static_cast<double>(bright),
            dark_rate / static_cast<double>(dark));
}

TEST(ImageSmoothing, TestImageInRange) {
  const auto img = make_test_image(32, 32, 3);
  ASSERT_EQ(img.size(), 1024u);
  for (const double v : img) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(DigitRecognition, TopologyMatchesDiehlCook) {
  DigitRecognitionConfig cfg;
  cfg.duration_ms = 100.0;
  const auto g = build_digit_recognition(cfg);
  EXPECT_EQ(g.neuron_count(), 784u + 250u + 250u);
  const auto net = build_digit_recognition_network(cfg);
  ASSERT_EQ(net.group_count(), 3u);
  EXPECT_EQ(net.group(1).name, "exc");
  EXPECT_EQ(net.group(2).name, "inh");
}

TEST(DigitRecognition, DigitImagesDifferByClass) {
  const auto a = make_digit_image(1, 5);
  const auto b = make_digit_image(8, 5);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 10.0);  // strokes clearly differ
}

TEST(DigitRecognition, NetworkIsActive) {
  DigitRecognitionConfig cfg;
  cfg.duration_ms = 300.0;
  const auto g = build_digit_recognition(cfg);
  std::uint64_t exc_spikes = 0;
  for (std::uint32_t i = 784; i < 1034; ++i) exc_spikes += g.spike_count(i);
  EXPECT_GT(exc_spikes, 10u);
}

TEST(Heartbeat, EcgHasBeats) {
  HeartbeatConfig cfg;
  cfg.duration_ms = 4000.0;
  std::vector<double> peaks;
  const auto ecg = make_ecg(cfg, &peaks);
  EXPECT_EQ(ecg.size(), 4000u);
  // ~800 ms RR -> about 5 beats in 4 s.
  EXPECT_GE(peaks.size(), 3u);
  EXPECT_LE(peaks.size(), 8u);
  // R peaks are the dominant positive excursion.
  double max_v = 0.0;
  for (const double v : ecg) max_v = std::max(max_v, v);
  EXPECT_GT(max_v, 0.7);
}

TEST(Heartbeat, EncoderSpikesOnExcursions) {
  HeartbeatConfig cfg;
  cfg.duration_ms = 3000.0;
  const auto ecg = make_ecg(cfg, nullptr);
  const auto trains = encode_ecg(ecg, 4, 0.1);
  ASSERT_EQ(trains.size(), 4u);
  std::size_t total = 0;
  for (const auto& t : trains) {
    EXPECT_TRUE(snn::is_valid_train(t));
    total += t.size();
  }
  EXPECT_GT(total, 20u);  // every QRS sweep crosses several bands
}

TEST(Heartbeat, GroundTruthPopulated) {
  HeartbeatConfig cfg;
  cfg.duration_ms = 3000.0;
  HeartbeatGroundTruth truth;
  const auto g = build_heartbeat(cfg, &truth);
  EXPECT_EQ(g.neuron_count(),
            cfg.input_channels + cfg.liquid_size + cfg.readout_size);
  EXPECT_GT(truth.r_peak_times_ms.size(), 2u);
  EXPECT_NEAR(truth.mean_rr_ms, cfg.mean_rr_ms, 100.0);
  EXPECT_EQ(truth.readout_count, 16u);
}

TEST(Heartbeat, ReadoutTracksRhythm) {
  HeartbeatConfig cfg;
  cfg.duration_ms = 5000.0;
  cfg.seed = 2;
  HeartbeatGroundTruth truth;
  const auto g = build_heartbeat(cfg, &truth);
  snn::SpikeTrain merged;
  for (std::uint32_t i = 0; i < truth.readout_count; ++i) {
    merged = snn::merge_trains(merged,
                               g.spike_train(truth.readout_first + i));
  }
  ASSERT_GT(merged.size(), 5u);
  const double est = estimate_mean_rr_ms(merged);
  // Estimate within 35% of the true RR (the liquid adds jitter; the paper's
  // point is the *relative* degradation under interconnect distortion).
  EXPECT_GT(est, 0.0);
  EXPECT_LT(heart_rate_error_percent(est, truth.mean_rr_ms), 35.0);
}

TEST(Heartbeat, ErrorHelperEdgeCases) {
  EXPECT_EQ(heart_rate_error_percent(0.0, 800.0), 100.0);
  EXPECT_EQ(heart_rate_error_percent(800.0, 0.0), 100.0);
  EXPECT_NEAR(heart_rate_error_percent(800.0, 800.0), 0.0, 1e-12);
  EXPECT_NEAR(heart_rate_error_percent(400.0, 800.0), 100.0, 1e-9);
}

TEST(Heartbeat, EstimatorNeedsBursts) {
  EXPECT_EQ(estimate_mean_rr_ms({}), 0.0);
  EXPECT_EQ(estimate_mean_rr_ms({1.0}), 0.0);
  EXPECT_EQ(estimate_mean_rr_ms({1.0, 2.0, 3.0}), 0.0);  // single burst
  // Two clean bursts 500 ms apart.
  EXPECT_DOUBLE_EQ(estimate_mean_rr_ms({0.0, 5.0, 500.0, 505.0}), 500.0);
}

TEST(Synthetic, TopologyAndEdgeCounts) {
  SyntheticConfig cfg;
  cfg.layers = 3;
  cfg.neurons_per_layer = 50;
  cfg.duration_ms = 100.0;
  const auto g = build_synthetic(cfg);
  EXPECT_EQ(g.neuron_count(), 10u + 150u);
  // 10*50 input edges + 2 * 50*50 inter-layer.
  EXPECT_EQ(g.edge_count(), 500u + 2u * 2500u);
}

TEST(Synthetic, PaperEdgeCountsFor4x200) {
  // Sec. V: "topology 4x200 (with dense 122000 synapses)".
  SyntheticConfig cfg;
  cfg.layers = 4;
  cfg.neurons_per_layer = 200;
  cfg.duration_ms = 50.0;
  const auto g = build_synthetic(cfg);
  EXPECT_EQ(g.edge_count(), 10u * 200u + 3u * 200u * 200u);  // 122000
}

TEST(Synthetic, AllLayersFireInPlausibleRange) {
  SyntheticConfig cfg;
  cfg.layers = 3;
  cfg.neurons_per_layer = 100;
  cfg.duration_ms = 1000.0;
  const auto g = build_synthetic(cfg);
  for (std::uint32_t layer = 0; layer < 3; ++layer) {
    std::uint64_t spikes = 0;
    const std::uint32_t first = 10 + layer * 100;
    for (std::uint32_t i = first; i < first + 100; ++i) {
      spikes += g.spike_count(i);
    }
    const double rate =
        static_cast<double>(spikes) / 100.0;  // Hz over 1 s
    EXPECT_GT(rate, 2.0) << "layer " << layer << " nearly silent";
    EXPECT_LT(rate, 400.0) << "layer " << layer << " saturated";
  }
}

TEST(Synthetic, InputRatesSpanConfiguredRange) {
  SyntheticConfig cfg;
  cfg.layers = 1;
  cfg.neurons_per_layer = 10;
  cfg.duration_ms = 5000.0;
  const auto g = build_synthetic(cfg);
  const double lowest =
      static_cast<double>(g.spike_count(0)) / 5.0;  // Hz
  const double highest =
      static_cast<double>(g.spike_count(9)) / 5.0;
  EXPECT_NEAR(lowest, 10.0, 5.0);
  EXPECT_NEAR(highest, 100.0, 15.0);
}

TEST(Synthetic, NameParsing) {
  auto cfg = parse_synthetic_name("synth_3x200");
  EXPECT_EQ(cfg.layers, 3u);
  EXPECT_EQ(cfg.neurons_per_layer, 200u);
  cfg = parse_synthetic_name("1x600");
  EXPECT_EQ(cfg.layers, 1u);
  EXPECT_EQ(cfg.neurons_per_layer, 600u);
  EXPECT_THROW(parse_synthetic_name("banana"), std::invalid_argument);
  EXPECT_THROW(parse_synthetic_name("x5"), std::invalid_argument);
  EXPECT_THROW(parse_synthetic_name("5x"), std::invalid_argument);
  EXPECT_THROW(parse_synthetic_name("0x5"), std::invalid_argument);
}

TEST(Synthetic, RejectsEmptyTopology) {
  SyntheticConfig cfg;
  cfg.layers = 0;
  EXPECT_THROW(build_synthetic(cfg), std::invalid_argument);
}

TEST(Registry, ListsTableIApps) {
  const auto& apps = realistic_apps();
  ASSERT_EQ(apps.size(), 4u);
  EXPECT_EQ(apps[0].name, "HW");
  EXPECT_EQ(apps[1].name, "IS");
  EXPECT_EQ(apps[2].name, "HD");
  EXPECT_EQ(apps[3].name, "HE");
}

TEST(Registry, BuildByNameAndAliases) {
  EXPECT_GT(apps::build_app("HW", 1).neuron_count(), 0u);
  EXPECT_GT(apps::build_app("hello world", 1).neuron_count(), 0u);
  EXPECT_EQ(apps::build_app("2x50", 1).neuron_count(), 110u);
  EXPECT_THROW(apps::build_app("nope", 1), std::invalid_argument);
}

TEST(Registry, EdgeDetectionReachableButNotTableI) {
  EXPECT_TRUE(is_known_app("ED"));
  EXPECT_TRUE(is_known_app("edge detection"));
  EXPECT_EQ(apps::build_app("ED", 1).neuron_count(), 2048u);
  // Table I stays exactly the paper's four applications.
  for (const auto& app : realistic_apps()) {
    EXPECT_NE(app.name, "ED");
  }
}

TEST(Registry, KnownAppPredicate) {
  EXPECT_TRUE(is_known_app("HW"));
  EXPECT_TRUE(is_known_app("heartbeat estimation"));
  EXPECT_TRUE(is_known_app("synth_1x800"));
  EXPECT_FALSE(is_known_app("bogus"));
}

TEST(Registry, BuildersAreDeterministic) {
  const auto a = build_app("HW", 42);
  const auto b = build_app("HW", 42);
  EXPECT_EQ(a.total_spikes(), b.total_spikes());
  EXPECT_EQ(a.edge_count(), b.edge_count());
}

}  // namespace
}  // namespace snnmap::apps
