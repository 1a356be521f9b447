#include "obs/stats_json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/stats.hpp"

namespace snnmap::obs {
namespace {

/// JSON has no NaN/inf; degenerate doubles serialize as null.
void json_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

/// Comma-managed JSON object scope.
class Obj {
 public:
  explicit Obj(std::ostream& os) : os_(os) { os_ << "{"; }
  ~Obj() { os_ << "}"; }
  Obj(const Obj&) = delete;
  Obj& operator=(const Obj&) = delete;

  std::ostream& key(const char* k) {
    if (!first_) os_ << ",";
    first_ = false;
    os_ << "\"" << k << "\":";
    return os_;
  }
  void u64(const char* k, std::uint64_t v) { key(k) << v; }
  void num(const char* k, double v) { json_double(key(k), v); }
  void boolean(const char* k, bool v) { key(k) << (v ? "true" : "false"); }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void accumulator_json(std::ostream& os, const util::Accumulator& a) {
  Obj o(os);
  o.u64("count", a.count());
  o.num("mean", a.mean());
  o.num("stddev", a.stddev());
  o.num("min", a.min());
  o.num("max", a.max());
  o.num("sum", a.sum());
}

void fault_stats_json(std::ostream& os, const noc::FaultStats& f) {
  Obj o(os);
  o.u64("link_faults", f.link_faults);
  o.u64("router_faults", f.router_faults);
  o.u64("tile_faults", f.tile_faults);
  o.u64("links_restored", f.links_restored);
  o.u64("reroutes", f.reroutes);
  o.u64("flits_dropped", f.flits_dropped);
  o.u64("copies_dropped", f.copies_dropped);
  o.u64("copies_killed", f.copies_killed);
  o.u64("copies_unroutable", f.copies_unroutable);
  o.u64("copies_blocked_at_source", f.copies_blocked_at_source);
  o.u64("packets_blocked", f.packets_blocked);
  o.u64("copies_stranded", f.copies_stranded);
  o.u64("copies_lost", f.copies_lost());
}

}  // namespace

void write_json(std::ostream& os, const noc::NocStats& stats) {
  Obj o(os);
  o.u64("packets_injected", stats.packets_injected);
  o.u64("flits_injected", stats.flits_injected);
  o.u64("copies_delivered", stats.copies_delivered);
  o.u64("link_hops", stats.link_hops);
  o.u64("offchip_link_hops", stats.offchip_link_hops);
  o.u64("router_traversals", stats.router_traversals);
  o.num("global_energy_pj", stats.global_energy_pj);
  accumulator_json(o.key("latency_cycles"), stats.latency_cycles);
  o.u64("max_latency_cycles", stats.max_latency_cycles);
  o.u64("duration_cycles", stats.duration_cycles);
  o.boolean("drained", stats.drained);
  o.u64("max_link_flits", stats.max_link_flits());
  o.num("mean_link_flits", stats.mean_link_flits());
  o.num("link_hotspot_factor", stats.link_hotspot_factor());
  fault_stats_json(o.key("fault"), stats.fault);
  std::ostream& links = o.key("link_flits");
  links << "[";
  for (std::size_t i = 0; i < stats.link_flits.size(); ++i) {
    if (i != 0) links << ",";
    const auto [key, flits] = stats.link_flits[i];
    links << "[" << (key >> 32) << "," << (key & 0xffffffffULL) << ","
          << flits << "]";
  }
  links << "]";
}

void write_json(std::ostream& os, const cosim::FidelityReport& fidelity) {
  Obj o(os);
  o.u64("steps", fidelity.steps);
  o.u64("total_spikes", fidelity.total_spikes);
  o.u64("packets_offered", fidelity.packets_offered);
  o.u64("copies_offered", fidelity.copies_offered);
  o.u64("copies_arrived", fidelity.copies_arrived);
  o.u64("copies_accepted", fidelity.copies_accepted);
  o.u64("receive_drops", fidelity.receive_drops);
  o.u64("undelivered", fidelity.undelivered);
  o.u64("deadline_misses", fidelity.deadline_misses);
  o.num("miss_fraction", fidelity.miss_fraction());
  o.num("drop_fraction", fidelity.drop_fraction());
  accumulator_json(o.key("transit_cycles"), fidelity.transit_cycles);
  o.num("fabric_energy_pj", fidelity.fabric_energy_pj);
  o.num("energy_delay_product", fidelity.energy_delay_product());
  accumulator_json(o.key("window_energy_pj"), fidelity.window_energy_pj);
  accumulator_json(o.key("freq_scale"), fidelity.freq_scale);
  accumulator_json(o.key("window_busy_cycles"), fidelity.window_busy_cycles);
  accumulator_json(o.key("window_peak_link_flits"),
                   fidelity.window_peak_link_flits);
  write_json(o.key("congestion"), fidelity.congestion);
}

void write_json(std::ostream& os, const cosim::ResilienceReport& resilience) {
  Obj o(os);
  fault_stats_json(o.key("noc_faults"), resilience.noc_faults);
  o.u64("retransmit_packets", resilience.retransmit_packets);
  o.u64("retransmit_copies", resilience.retransmit_copies);
  o.u64("retry_recoveries", resilience.retry_recoveries);
  o.u64("spikes_lost_timeout", resilience.spikes_lost_timeout);
  o.u64("stale_arrivals", resilience.stale_arrivals);
  o.u64("duplicate_arrivals", resilience.duplicate_arrivals);
  o.u64("pending_at_end", resilience.pending_at_end);
  o.num("retransmit_energy_pj", resilience.retransmit_energy_pj);
  o.u64("remap_events", resilience.remap_events);
  o.u64("neurons_migrated", resilience.neurons_migrated);
  o.u64("neurons_stranded", resilience.neurons_stranded);
}

void write_json(std::ostream& os, const CongestionReport& congestion) {
  Obj o(os);
  o.boolean("monitored", congestion.monitored);
  o.u64("windows_observed", congestion.windows_observed);
  o.u64("links_tracked", congestion.links_tracked);
  o.u64("links_ever_hot", congestion.links_ever_hot);
  o.u64("hot_links", congestion.hot_links);
  o.num("max_ewma_occupancy", congestion.max_ewma_occupancy);
  std::ostream& hot = o.key("hot");
  hot << "[";
  for (std::size_t i = 0; i < congestion.hot.size(); ++i) {
    if (i != 0) hot << ",";
    const HotLink& h = congestion.hot[i];
    Obj ho(hot);
    ho.u64("link", h.link);
    ho.u64("from_router", h.from_router);
    ho.u64("to_router", h.to_router);
    ho.num("ewma_occupancy", h.ewma_occupancy);
    ho.u64("hot_streak", h.hot_streak);
  }
  hot << "]";
}

}  // namespace snnmap::obs
