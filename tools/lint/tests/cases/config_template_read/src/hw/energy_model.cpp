// Fixture: energy section keys, read and written symmetrically.
#include "hw/energy_model.hpp"

namespace fixture {

void from_config(const Config& config, Model& m) {
  m.link_hop_pj = config.double_or("energy.link_hop_pj", m.link_hop_pj);
}

void to_config(const Model& m, Config& config) {
  config.set("energy.link_hop_pj", std::to_string(m.link_hop_pj));
}

}  // namespace fixture
