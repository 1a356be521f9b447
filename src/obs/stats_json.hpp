// Machine-readable JSON dumps of the run reports (snnmap_cli --stats-json).
//
// One compact, deterministic JSON encoding per report type so scripts stop
// scraping the CLI's human-readable tables.  Non-finite doubles (possible
// only on degenerate inputs) serialize as null — JSON has no NaN/inf.
#pragma once

#include <iosfwd>

#include "cosim/fidelity.hpp"
#include "noc/metrics.hpp"
#include "obs/congestion.hpp"

namespace snnmap::obs {

void write_json(std::ostream& os, const noc::NocStats& stats);
void write_json(std::ostream& os, const cosim::FidelityReport& fidelity);
void write_json(std::ostream& os, const cosim::ResilienceReport& resilience);
void write_json(std::ostream& os, const CongestionReport& congestion);

}  // namespace snnmap::obs
