#include "snn/network.hpp"

#include <cmath>
#include <stdexcept>

namespace snnmap::snn {

Network::GroupId Network::add_group(Group g) {
  if (g.size == 0) {
    throw std::invalid_argument("Network: group '" + g.name +
                                "' must have at least one neuron");
  }
  g.first = next_id_;
  next_id_ += g.size;
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

Network::GroupId Network::add_lif_group(std::string name, std::uint32_t size,
                                        const LifParams& params) {
  Group g;
  g.name = std::move(name);
  g.size = size;
  g.model = NeuronModel::kLif;
  g.lif = params;
  return add_group(std::move(g));
}

Network::GroupId Network::add_izhikevich_group(std::string name,
                                               std::uint32_t size,
                                               const IzhikevichParams& params) {
  Group g;
  g.name = std::move(name);
  g.size = size;
  g.model = NeuronModel::kIzhikevich;
  g.izh = params;
  return add_group(std::move(g));
}

Network::GroupId Network::add_poisson_group(std::string name,
                                            std::uint32_t size,
                                            double rate_hz) {
  if (rate_hz < 0.0) {
    throw std::invalid_argument("Network: negative Poisson rate");
  }
  Group g;
  g.name = std::move(name);
  g.size = size;
  g.model = NeuronModel::kPoisson;
  g.poisson_rate_hz = rate_hz;
  return add_group(std::move(g));
}

void Network::set_rate_function(
    GroupId group, std::function<double(std::uint32_t, double)> rate_fn) {
  check_group(group);
  if (groups_[group].model != NeuronModel::kPoisson) {
    throw std::invalid_argument(
        "Network: rate function only applies to Poisson groups");
  }
  groups_[group].rate_fn = std::move(rate_fn);
}

void Network::check_group(GroupId g) const {
  if (g >= groups_.size()) {
    throw std::out_of_range("Network: invalid group id " + std::to_string(g));
  }
}

void Network::connect_full(GroupId pre, GroupId post, WeightSpec weights,
                           util::Rng& rng, std::uint16_t delay_steps,
                           bool plastic, bool allow_self) {
  check_group(pre);
  check_group(post);
  const Group& a = groups_[pre];
  const Group& b = groups_[post];
  synapses_.reserve(synapses_.size() +
                    static_cast<std::size_t>(a.size) * b.size);
  for (std::uint32_t i = 0; i < a.size; ++i) {
    for (std::uint32_t j = 0; j < b.size; ++j) {
      const NeuronId src = a.first + i;
      const NeuronId dst = b.first + j;
      if (src == dst && !allow_self) continue;
      add_synapse(src, dst, weights.sample(rng), delay_steps, plastic);
    }
  }
}

void Network::connect_random(GroupId pre, GroupId post, double probability,
                             WeightSpec weights, util::Rng& rng,
                             std::uint16_t delay_steps, bool plastic,
                             bool allow_self) {
  check_group(pre);
  check_group(post);
  if (probability < 0.0 || probability > 1.0) {
    throw std::invalid_argument("Network: connection probability not in [0,1]");
  }
  const Group& a = groups_[pre];
  const Group& b = groups_[post];
  for (std::uint32_t i = 0; i < a.size; ++i) {
    for (std::uint32_t j = 0; j < b.size; ++j) {
      const NeuronId src = a.first + i;
      const NeuronId dst = b.first + j;
      if (src == dst && !allow_self) continue;
      if (rng.chance(probability)) {
        add_synapse(src, dst, weights.sample(rng), delay_steps, plastic);
      }
    }
  }
}

void Network::connect_one_to_one(GroupId pre, GroupId post, WeightSpec weights,
                                 util::Rng& rng, std::uint16_t delay_steps,
                                 bool plastic) {
  check_group(pre);
  check_group(post);
  const Group& a = groups_[pre];
  const Group& b = groups_[post];
  if (a.size != b.size) {
    throw std::invalid_argument(
        "Network: one-to-one requires equal group sizes (" + a.name + "=" +
        std::to_string(a.size) + ", " + b.name + "=" + std::to_string(b.size) +
        ")");
  }
  for (std::uint32_t i = 0; i < a.size; ++i) {
    add_synapse(a.first + i, b.first + i, weights.sample(rng), delay_steps,
                plastic);
  }
}

void Network::connect_gaussian_2d(GroupId pre, GroupId post,
                                  std::uint32_t width, std::uint32_t height,
                                  int radius, double peak_weight, double sigma,
                                  std::uint16_t delay_steps) {
  check_group(pre);
  check_group(post);
  const Group& a = groups_[pre];
  const Group& b = groups_[post];
  const std::uint64_t pixels =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height);
  if (a.size != pixels || b.size != pixels) {
    throw std::invalid_argument(
        "Network: gaussian_2d group sizes must equal width*height");
  }
  if (radius < 0) throw std::invalid_argument("Network: negative radius");
  if (sigma <= 0.0) throw std::invalid_argument("Network: sigma must be > 0");
  const double denom = 2.0 * sigma * sigma;
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      const NeuronId dst = b.first + y * width + x;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          const int sx = static_cast<int>(x) + dx;
          const int sy = static_cast<int>(y) + dy;
          if (sx < 0 || sy < 0 || sx >= static_cast<int>(width) ||
              sy >= static_cast<int>(height)) {
            continue;
          }
          const NeuronId src = a.first +
                               static_cast<std::uint32_t>(sy) * width +
                               static_cast<std::uint32_t>(sx);
          const double d2 = static_cast<double>(dx * dx + dy * dy);
          add_synapse(src, dst, peak_weight * std::exp(-d2 / denom),
                      delay_steps, /*plastic=*/false);
        }
      }
    }
  }
}

void Network::add_synapse(NeuronId pre, NeuronId post, double weight,
                          std::uint16_t delay_steps, bool plastic) {
  if (pre >= next_id_ || post >= next_id_) {
    throw std::out_of_range("Network: synapse endpoint out of range");
  }
  if (delay_steps == 0) {
    throw std::invalid_argument("Network: synaptic delay must be >= 1 step");
  }
  Synapse s;
  s.pre = pre;
  s.post = post;
  s.weight = static_cast<float>(weight);
  s.delay_steps = delay_steps;
  s.plastic = plastic;
  synapses_.push_back(s);
  if (delay_steps > max_delay_steps_) max_delay_steps_ = delay_steps;
  invalidate_index();
}

Network::GroupId Network::find_group(const std::string& name) const noexcept {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].name == name) return g;
  }
  return kNoGroup;
}

void Network::build_index() const {
  fanout_offsets_.assign(neuron_count() + 1, 0);
  for (const auto& s : synapses_) ++fanout_offsets_[s.pre + 1];
  for (std::size_t i = 1; i < fanout_offsets_.size(); ++i) {
    fanout_offsets_[i] += fanout_offsets_[i - 1];
  }
  fanout_synapses_.resize(synapses_.size());
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (std::uint32_t idx = 0; idx < synapses_.size(); ++idx) {
    fanout_synapses_[cursor[synapses_[idx].pre]++] = idx;
  }
  index_built_ = true;
}

const std::vector<std::uint32_t>& Network::fanout_offsets() const {
  if (!index_built_) build_index();
  return fanout_offsets_;
}

const std::vector<std::uint32_t>& Network::fanout_synapses() const {
  if (!index_built_) build_index();
  return fanout_synapses_;
}

}  // namespace snnmap::snn
