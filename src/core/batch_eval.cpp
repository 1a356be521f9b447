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

void BatchEvaluator::evaluate(std::size_t count, const AssignmentAt& at,
                              Objective objective,
                              std::vector<std::uint64_t>& costs) {
  costs.resize(count);
  pool_.parallel_blocks(
      count,
      [&](std::uint32_t worker, std::size_t begin, std::size_t end) {
        const CostModel& model = *models_[worker];
        for (std::size_t i = begin; i < end; ++i) {
          costs[i] = model.objective_cost(at(i), objective);
        }
      });
}

void BatchEvaluator::evaluate(
    const std::vector<std::vector<CrossbarId>>& population,
    Objective objective, std::vector<std::uint64_t>& costs) {
  evaluate(
      population.size(),
      [&population](std::size_t i) -> const std::vector<CrossbarId>& {
        return population[i];
      },
      objective, costs);
}

}  // namespace snnmap::core
