#include "moga/selection.hpp"

#include "common/check.hpp"

namespace anadex::moga {

std::size_t binary_tournament(const Population& population, const Preference& prefer,
                              Rng& rng) {
  ANADEX_REQUIRE(!population.empty(), "tournament over an empty population");
  const std::size_t a = rng.uniform_index(population.size());
  if (population.size() == 1) return a;
  std::size_t b = rng.uniform_index(population.size() - 1);
  if (b >= a) ++b;  // distinct second contestant
  if (prefer(population[a], population[b])) return a;
  if (prefer(population[b], population[a])) return b;
  return rng.bernoulli(0.5) ? a : b;
}

std::vector<std::vector<double>> make_offspring(const Population& population,
                                                std::span<const VariableBound> bounds,
                                                const VariationParams& params,
                                                const Preference& prefer, std::size_t count,
                                                Rng& rng) {
  std::vector<std::vector<double>> offspring;
  offspring.reserve(count + 1);
  while (offspring.size() < count) {
    const std::size_t pa = binary_tournament(population, prefer, rng);
    const std::size_t pb = binary_tournament(population, prefer, rng);
    std::vector<double> child_a = population[pa].genes;
    std::vector<double> child_b = population[pb].genes;
    sbx_crossover(bounds, params, child_a, child_b, rng);
    polynomial_mutation(bounds, params, child_a, rng);
    polynomial_mutation(bounds, params, child_b, rng);
    offspring.push_back(std::move(child_a));
    if (offspring.size() < count) offspring.push_back(std::move(child_b));
  }
  return offspring;
}

}  // namespace anadex::moga
