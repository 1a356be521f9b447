#include "core/batch_eval.hpp"

#include <algorithm>

namespace snnmap::core {

BatchEvaluator::BatchEvaluator(const snn::SnnGraph& graph,
                               std::uint32_t threads,
                               std::size_t max_parallelism)
    : pool_(static_cast<std::uint32_t>(std::min<std::size_t>(
          util::ThreadPool::resolve(threads),
          std::max<std::size_t>(1, max_parallelism)))) {
  models_.reserve(pool_.size());
  for (std::uint32_t w = 0; w < pool_.size(); ++w) {
    models_.push_back(std::make_unique<CostModel>(graph));
  }
}

void BatchEvaluator::evaluate(
    const std::vector<std::vector<CrossbarId>>& population,
    Objective objective, std::vector<std::uint64_t>& costs) {
  costs.resize(population.size());
  for_each(population.size(), [&](std::uint32_t worker, std::size_t i) {
    costs[i] = model(worker).objective_cost(population[i], objective);
  });
}

}  // namespace snnmap::core
