// Mating selection and offspring generation shared by NSGA-II and the
// partitioned (SACGA family) algorithms.
#pragma once

#include <functional>
#include <span>

#include "common/rng.hpp"
#include "moga/individual.hpp"
#include "moga/operators.hpp"

namespace anadex::moga {

/// Preference predicate: returns true when the first individual should win a
/// tournament against the second.
using Preference = std::function<bool(const Individual&, const Individual&)>;

/// Binary tournament over `population`: draws two distinct random members
/// and returns the index of the preferred one (random pick on a tie).
std::size_t binary_tournament(const Population& population, const Preference& prefer,
                              Rng& rng);

/// Produces `count` offspring genomes: repeated binary tournaments pick
/// parent pairs from `population`, then SBX + polynomial mutation are
/// applied. This is the paper's "Global Mating Pool": parents are drawn from
/// the entire population regardless of partition.
std::vector<std::vector<double>> make_offspring(const Population& population,
                                                std::span<const VariableBound> bounds,
                                                const VariationParams& params,
                                                const Preference& prefer, std::size_t count,
                                                Rng& rng);

}  // namespace anadex::moga
