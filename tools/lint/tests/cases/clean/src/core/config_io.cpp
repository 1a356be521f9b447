// Fixture: consistent read/write key sets, fully covered by the test file.
#include "core/config_io.hpp"

namespace fixture {

void from_config(const Config& config, Flow& flow) {
  flow.depth = config.uint_or("noc.buffer_depth", flow.depth);
  flow.rate = config.double_or("faults.link_fault_rate", flow.rate);
}

void to_config(const Flow& flow, Config& config) {
  config.set("noc.buffer_depth", std::to_string(flow.depth));
  config.set("faults.link_fault_rate", std::to_string(flow.rate));
}

}  // namespace fixture
