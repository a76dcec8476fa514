#include "hypermapper/grid_search.hpp"

#include <gtest/gtest.h>

#include <set>

namespace hm::hypermapper {
namespace {

DesignSpace small_space() {
  DesignSpace space;
  space.add(Parameter::ordinal("a", {1, 2, 4, 8, 16}));
  space.add(Parameter::boolean("b"));
  space.add(Parameter::integer_range("c", 0, 9));
  return space;
}

class CountingEvaluator final : public Evaluator {
 public:
  [[nodiscard]] std::size_t objective_count() const override { return 2; }
  [[nodiscard]] std::vector<double> evaluate(const Configuration& config) override {
    ++calls;
    return {config[0] + config[2], 16.0 - config[0] + config[1]};
  }
  std::size_t calls = 0;
};

TEST(GridSearch, SubgridSizeIsProductOfLevels) {
  const DesignSpace space = small_space();
  // levels=3: a -> 3 of 5, b -> 2 of 2, c -> 3 of 10.
  const auto configs = grid_configurations(space, 3);
  EXPECT_EQ(configs.size(), 3u * 2u * 3u);
}

TEST(GridSearch, SubgridIncludesExtremes) {
  const DesignSpace space = small_space();
  const auto configs = grid_configurations(space, 3);
  bool has_min = false, has_max = false;
  for (const Configuration& config : configs) {
    has_min |= config[0] == 1 && config[1] == 0 && config[2] == 0;
    has_max |= config[0] == 16 && config[1] == 1 && config[2] == 9;
  }
  EXPECT_TRUE(has_min);
  EXPECT_TRUE(has_max);
}

TEST(GridSearch, SubgridConfigsAreDistinct) {
  const DesignSpace space = small_space();
  const auto configs = grid_configurations(space, 4);
  std::set<std::uint64_t> keys;
  for (const Configuration& config : configs) keys.insert(space.key(config));
  EXPECT_EQ(keys.size(), configs.size());
}

TEST(GridSearch, SmallCardinalityUsesAllValues) {
  DesignSpace space;
  space.add(Parameter::boolean("flag"));
  const auto configs = grid_configurations(space, 5);
  EXPECT_EQ(configs.size(), 2u);
}

TEST(GridSearch, SingleLevelCollapsesToOnePointPerAxis) {
  const DesignSpace space = small_space();
  const auto configs = grid_configurations(space, 1);
  EXPECT_EQ(configs.size(), 1u);
}

TEST(GridSearch, EvaluatesWholeSubgridWithoutBudget) {
  const DesignSpace space = small_space();
  CountingEvaluator evaluator;
  const auto result = grid_search(space, evaluator, {3, 0});
  EXPECT_EQ(result.samples.size(), 18u);
  EXPECT_EQ(evaluator.calls, 18u);
  EXPECT_FALSE(result.pareto.empty());
}

TEST(GridSearch, BudgetStridesTheSubgrid) {
  const DesignSpace space = small_space();
  CountingEvaluator evaluator;
  GridSearchConfig config;
  config.levels = 4;
  config.max_evaluations = 10;
  const auto result = grid_search(space, evaluator, config);
  EXPECT_EQ(result.samples.size(), 10u);
  EXPECT_EQ(evaluator.calls, 10u);
}

TEST(GridSearch, ParetoFrontIsNonDominated) {
  const DesignSpace space = small_space();
  CountingEvaluator evaluator;
  const auto result = grid_search(space, evaluator, {3, 0});
  for (const std::size_t i : result.pareto) {
    for (const std::size_t j : result.pareto) {
      if (i != j) {
        EXPECT_FALSE(dominates(result.samples[j].objectives,
                               result.samples[i].objectives));
      }
    }
  }
}

TEST(GridSearch, AllSamplesAreIterationZero) {
  const DesignSpace space = small_space();
  CountingEvaluator evaluator;
  const auto result = grid_search(space, evaluator, {2, 0});
  for (const auto& sample : result.samples) EXPECT_EQ(sample.iteration, 0u);
  EXPECT_EQ(result.random_sample_count(), result.samples.size());
}

}  // namespace
}  // namespace hm::hypermapper
