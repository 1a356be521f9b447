// Fixture: schema coverage for every key config_io touches.
// "noc.buffer_depth", "noc.max_cycles", "flow.seed", "energy.link_hop_pj"
