#include "sacga/partitioned_evolver.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "moga/nds.hpp"
#include "moga/nsga2.hpp"
#include "moga/selection.hpp"

namespace anadex::sacga {

PartitionedEvolver::PartitionedEvolver(const moga::Problem& problem,
                                       const EvolverParams& params, Partitioner partitioner,
                                       std::uint64_t seed, const EvolverSnapshot* resume)
    : problem_(problem),
      params_(params),
      engine_(problem, params.engine, params.sink),
      partitioner_(std::move(partitioner)),
      bounds_(problem.bounds()),
      rng_(seed),
      discarded_(partitioner_.count(), false) {
  ANADEX_REQUIRE(params.population_size >= 4 && params.population_size % 2 == 0,
                 "population size must be even and >= 4");
  ANADEX_REQUIRE(partitioner_.axis_objective() < problem.num_objectives(),
                 "partition axis must be a valid objective index");
  if (resume != nullptr) {
    ANADEX_REQUIRE(resume->population.size() == params.population_size,
                   "snapshot population size does not match params");
    ANADEX_REQUIRE(resume->partitions == partitioner_.count(),
                   "snapshot partition count does not match the partitioner");
    ANADEX_REQUIRE(resume->discarded.size() == partitioner_.count(),
                   "snapshot discard flags do not match the partition count");
    population_ = resume->population;
    discarded_ = resume->discarded;
    evaluations_ = resume->evaluations;
    generation_ = resume->generation;
    rng_.set_state(resume->rng);
    // Partition membership is a pure function of the objectives, so it can
    // be rebuilt without touching the RNG (rank_pool would shuffle).
    info_.assign(population_.size(), MemberInfo{});
    for (std::size_t i = 0; i < population_.size(); ++i) {
      const std::size_t p = partitioner_.index_of(population_[i]);
      info_[i].partition = p;
      info_[i].local_rank = population_[i].rank;
      info_[i].discarded_partition = discarded_[p];
    }
    return;
  }
  population_.resize(params.population_size);
  for (auto& member : population_) member.genes = moga::random_genome(bounds_, rng_);
  engine_.evaluate_members(population_);
  evaluations_ += population_.size();
  // Pure-local initial ranking so tournaments are defined before step().
  rank_pool(population_, info_, [](std::size_t) { return 0.0; });
}

PartitionedEvolver::PartitionStats PartitionedEvolver::partition_stats() const {
  PartitionStats stats;
  stats.occupancy.assign(partitioner_.count(), 0);
  stats.feasible.assign(partitioner_.count(), 0);
  for (std::size_t i = 0; i < population_.size(); ++i) {
    const std::size_t p = info_[i].partition;
    ++stats.occupancy[p];
    if (population_[i].feasible()) ++stats.feasible[p];
  }
  for (const bool d : discarded_) {
    if (d) ++stats.discarded;
  }
  return stats;
}

EvolverSnapshot PartitionedEvolver::snapshot() const {
  EvolverSnapshot s;
  s.population = population_;
  s.discarded = discarded_;
  s.partitions = partitioner_.count();
  s.rng = rng_.state();
  s.evaluations = evaluations_;
  s.generation = generation_;
  return s;
}

void PartitionedEvolver::rank_pool(moga::Population& pool, std::vector<MemberInfo>& info,
                                   const ParticipationProbability& prob) {
  info.assign(pool.size(), MemberInfo{});

  // 1. Partition assignment.
  std::vector<std::vector<std::size_t>> members(partitioner_.count());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::size_t p = partitioner_.index_of(pool[i]);
    ANADEX_CHECK_INVARIANT(p < partitioner_.count(),
                           "partition index must lie inside the partitioner's bins");
    info[i].partition = p;
    info[i].discarded_partition = discarded_[p];
    members[p].push_back(i);
  }
  if constexpr (kCheckInvariants) {
    // Occupancy bound: the bins partition the pool — every member in
    // exactly one bin, none lost, none duplicated (Phase I/II both build
    // their local competitions from this assignment).
    std::size_t occupancy = 0;
    for (const auto& bin : members) occupancy += bin.size();
    ANADEX_ASSERT(occupancy == pool.size(),
                  "partition occupancy must sum to the pool size");
  }

  // 2. Local competition: per-partition constrained NDS + crowding.
  std::vector<std::size_t> locally_superior;  // gathered per partition below
  std::vector<std::size_t> global_candidates;
  for (std::size_t p = 0; p < members.size(); ++p) {
    if (members[p].empty()) continue;
    auto fronts = ranking_.sort(pool, members[p]);
    for (const auto& front : fronts) ranking_.crowding(pool, front);
    for (std::size_t idx : members[p]) info[idx].local_rank = pool[idx].rank;

    if (discarded_[p]) continue;  // discarded partitions never compete globally

    // 3. Probabilistic admission of this partition's locally-superior
    //    solutions, visited in a freshly randomized order (paper point 2).
    locally_superior = fronts.front();
    std::shuffle(locally_superior.begin(), locally_superior.end(), rng_);
    for (std::size_t i = 0; i < locally_superior.size(); ++i) {
      const double admit = prob(i + 1);
      if (rng_.bernoulli(admit)) global_candidates.push_back(locally_superior[i]);
    }
  }

  // 4. Global competition among the admitted candidates; their rank is
  //    revised to the global rank (non-candidates keep their local rank).
  if (!global_candidates.empty()) {
    // Note: only the RANK is revised; crowding keeps its partition-local
    // value so the survivor ordering's density estimate stays comparable
    // between participants and protected non-participants.
    std::vector<double> saved_crowding;
    saved_crowding.reserve(global_candidates.size());
    for (std::size_t idx : global_candidates) saved_crowding.push_back(pool[idx].crowding);
    ranking_.sort(pool, global_candidates);
    for (std::size_t k = 0; k < global_candidates.size(); ++k) {
      pool[global_candidates[k]].crowding = saved_crowding[k];
    }
  }
}

void PartitionedEvolver::step(const ParticipationProbability& prob) {
  // Offspring from the GLOBAL mating pool (rank-based tournament over the
  // entire current population, regardless of partition).
  auto offspring = moga::make_offspring(population_, bounds_, params_.variation,
                                        moga::crowded_less, params_.population_size, rng_);
  moga::Population pool = std::move(population_);
  pool.reserve(2 * params_.population_size);
  for (auto& genes : offspring) pool.emplace_back().genes = std::move(genes);
  // One batch per generation: all offspring evaluated together.
  engine_.evaluate_members(
      std::span<moga::Individual>(pool).subspan(params_.population_size));
  evaluations_ += params_.population_size;

  std::vector<MemberInfo> info;
  rank_pool(pool, info, prob);

  // Survivor selection: (discarded-last, revised rank, crowding).
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (info[a].discarded_partition != info[b].discarded_partition) {
      return !info[a].discarded_partition;
    }
    if (pool[a].rank != pool[b].rank) return pool[a].rank < pool[b].rank;
    return pool[a].crowding > pool[b].crowding;
  });

  moga::Population next;
  std::vector<MemberInfo> next_info;
  next.reserve(params_.population_size);
  next_info.reserve(params_.population_size);
  for (std::size_t k = 0; k < params_.population_size; ++k) {
    next.push_back(std::move(pool[order[k]]));
    next_info.push_back(info[order[k]]);
  }
  population_ = std::move(next);
  info_ = std::move(next_info);
  ++generation_;
  if constexpr (kCheckInvariants) {
    ANADEX_ASSERT(population_.size() == params_.population_size,
                  "survivor selection must preserve the population size");
    for (std::size_t i = 0; i < population_.size(); ++i) {
      // The cached membership is what global competition and the phase-I
      // feasibility scan trust; it must match a fresh assignment.
      ANADEX_ASSERT(info_[i].partition == partitioner_.index_of(population_[i]),
                    "cached partition membership must match the partitioner");
    }
  }
}

void PartitionedEvolver::set_partitioner(Partitioner partitioner) {
  ANADEX_REQUIRE(partitioner.axis_objective() < problem_.num_objectives(),
                 "partition axis must be a valid objective index");
  partitioner_ = std::move(partitioner);
  discarded_.assign(partitioner_.count(), false);
  rank_pool(population_, info_, [](std::size_t) { return 0.0; });
}

bool PartitionedEvolver::all_active_partitions_feasible() const {
  std::vector<bool> has_feasible(partitioner_.count(), false);
  std::vector<bool> populated(partitioner_.count(), false);
  for (std::size_t i = 0; i < population_.size(); ++i) {
    populated[info_[i].partition] = true;
    if (population_[i].feasible()) has_feasible[info_[i].partition] = true;
  }
  bool any = false;
  for (std::size_t p = 0; p < partitioner_.count(); ++p) {
    if (discarded_[p]) continue;
    if (!has_feasible[p]) return false;  // empty partitions also count as infeasible
    any = true;
  }
  return any;
}

std::size_t PartitionedEvolver::discard_infeasible_partitions() {
  std::vector<bool> has_feasible(partitioner_.count(), false);
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (population_[i].feasible()) has_feasible[info_[i].partition] = true;
  }
  std::size_t count = 0;
  for (std::size_t p = 0; p < partitioner_.count(); ++p) {
    if (!discarded_[p] && !has_feasible[p]) {
      discarded_[p] = true;
      ++count;
    }
  }
  for (std::size_t i = 0; i < population_.size(); ++i) {
    info_[i].discarded_partition = discarded_[info_[i].partition];
  }
  return count;
}

moga::Population PartitionedEvolver::global_front() const {
  return moga::extract_global_front(population_);
}

}  // namespace anadex::sacga
