#include "cosim/fidelity.hpp"

#include <stdexcept>
#include <string>

namespace snnmap::cosim {

double FidelityReport::miss_fraction() const noexcept {
  if (copies_offered == 0) return 0.0;
  return static_cast<double>(deadline_misses + receive_drops + undelivered) /
         static_cast<double>(copies_offered);
}

double FidelityReport::drop_fraction() const noexcept {
  if (copies_offered == 0) return 0.0;
  return static_cast<double>(receive_drops) /
         static_cast<double>(copies_offered);
}

double SpikeDivergence::fraction() const noexcept {
  const std::uint64_t uni = matched + only_ideal + only_cosim;
  if (uni == 0) return 0.0;
  return static_cast<double>(only_ideal + only_cosim) /
         static_cast<double>(uni);
}

SpikeDivergence spike_divergence(const std::vector<snn::SpikeTrain>& ideal,
                                 const std::vector<snn::SpikeTrain>& cosim) {
  if (ideal.size() != cosim.size()) {
    throw std::invalid_argument(
        "spike_divergence: neuron counts differ (" +
        std::to_string(ideal.size()) + " vs " + std::to_string(cosim.size()) +
        ")");
  }
  SpikeDivergence d;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const snn::SpikeTrain& a = ideal[i];
    const snn::SpikeTrain& b = cosim[i];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.size() && ib < b.size()) {
      if (a[ia] == b[ib]) {
        ++d.matched;
        ++ia;
        ++ib;
      } else if (a[ia] < b[ib]) {
        ++d.only_ideal;
        ++ia;
      } else {
        ++d.only_cosim;
        ++ib;
      }
    }
    d.only_ideal += a.size() - ia;
    d.only_cosim += b.size() - ib;
  }
  return d;
}

}  // namespace snnmap::cosim
