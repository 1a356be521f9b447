// Fixture: asymmetric key sets — "noc.read_only" is parsed but never
// serialized, "noc.write_only" is serialized but never parsed back.
#include "core/config_io.hpp"

namespace fixture {

void from_config(const Config& config, Flow& flow) {
  flow.a = config.uint_or("noc.read_only", flow.a);
  flow.b = config.uint_or("noc.covered", flow.b);
}

void to_config(const Flow& flow, Config& config) {
  config.set("noc.write_only", std::to_string(flow.a));
  config.set("noc.covered", std::to_string(flow.b));
}

}  // namespace fixture
