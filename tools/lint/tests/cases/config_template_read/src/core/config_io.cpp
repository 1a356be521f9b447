// Fixture: integer keys read through uint_or, once with the template
// argument deduced and twice with it spelled out (one call split across
// lines).  Only "noc.max_cycles" lacks a write, so the single finding at
// line 12 proves the rule collected the explicit-template reads; a rule
// blind to them would instead flag "flow.seed" as never read back.
#include "core/config_io.hpp"

namespace fixture {

void from_config(const Config& config, Flow& flow) {
  flow.depth = config.uint_or("noc.buffer_depth", flow.depth);
  flow.cycles = config.uint_or<std::uint64_t>("noc.max_cycles", flow.cycles);
  flow.seed = config.uint_or<std::uint64_t>(
      "flow.seed", flow.seed);
}

void to_config(const Flow& flow, Config& config) {
  config.set("noc.buffer_depth", std::to_string(flow.depth));
  config.set("flow.seed", std::to_string(flow.seed));
}

}  // namespace fixture
