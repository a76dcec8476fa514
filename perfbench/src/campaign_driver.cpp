#include "campaign_driver.hpp"

#include <cstdio>
#include <filesystem>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "hypermapper/report.hpp"
#include "rf/forest.hpp"

namespace perfbench {

namespace hh = hm::hypermapper;

double CampaignRun::unattributed() const {
  std::vector<Interval> attributed = propose;
  attributed.push_back(finish);
  for (const BatchRecord& b : batches) attributed.push_back(b.wall);
  return unattributed_seconds(wall, attributed);
}

std::size_t eval_threads(const hm::common::ThreadPool* pool) {
  if (pool == nullptr || pool->thread_count() <= 1) return 1;
  return pool->thread_count() + 1;
}

CampaignRun drive_campaign(hh::Optimizer& optimizer,
                           hm::common::ThreadPool* pool, bool traced) {
  CampaignRun run;
  const hm::common::SchedulerStats before =
      pool != nullptr ? pool->stats() : hm::common::SchedulerStats{};
  hh::ResilientEvaluator& evaluator = optimizer.supervised_evaluator();

  run.wall.start = now_seconds();
  auto session = optimizer.start_async();
  while (true) {
    Interval propose{now_seconds(), 0.0};
    std::optional<hh::BatchProposal> batch = session->next_batch();
    propose.end = now_seconds();
    run.propose.push_back(propose);
    if (!batch) break;

    const std::size_t n = batch->pending.size();
    std::vector<double> busy(traced ? n : 0, 0.0);
    auto evaluate_one = [&](std::size_t j) {
      const std::size_t slot = batch->pending[j];
      const double start = traced ? now_seconds() : 0.0;
      hh::EvaluationOutcome outcome =
          evaluator.evaluate_outcome(batch->configs[slot]);
      if (traced) busy[j] = now_seconds() - start;
      session->ingest(slot, std::move(outcome));
    };
    BatchRecord record;
    record.wall.start = now_seconds();
    if (pool != nullptr) {
      pool->parallel_for(0, n, evaluate_one);
    } else {
      for (std::size_t j = 0; j < n; ++j) evaluate_one(j);
    }
    record.wall.end = now_seconds();
    for (const double b : busy) record.busy_seconds += b;
    run.eval_seconds.insert(run.eval_seconds.end(), busy.begin(), busy.end());
    run.evals_attempted += n;
    run.batches.push_back(record);
  }
  run.finish.start = now_seconds();
  run.result = session->finish();
  run.finish.end = now_seconds();
  run.wall.end = run.finish.end;

  if (pool != nullptr) {
    const hm::common::SchedulerStats after = pool->stats();
    run.scheduler.tasks_executed = after.tasks_executed - before.tasks_executed;
    run.scheduler.steals = after.steals - before.steals;
    run.scheduler.help_joins = after.help_joins - before.help_joins;
    run.scheduler.parallel_regions =
        after.parallel_regions - before.parallel_regions;
  }
  return run;
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string samples_csv(const hh::DesignSpace& space,
                        const hh::OptimizationResult& result,
                        const std::vector<std::string>& objective_names) {
  return hm::common::to_csv(hh::samples_to_csv(space, result, objective_names));
}

void replay_surrogate(const hh::DesignSpace& space,
                      const hh::OptimizerConfig& config,
                      const hh::OptimizationResult& result,
                      hm::common::ThreadPool* pool, double& fit_s,
                      double& predict_s) {
  if (result.samples.empty()) return;
  const std::size_t objectives = result.samples.front().objectives.size();
  hm::rf::FeatureMatrix train_x(space.parameter_count());
  std::vector<std::vector<double>> train_y(objectives);
  for (const hh::SampleRecord& s : result.samples) {
    train_x.add_row(space.features(s.config));
    for (std::size_t o = 0; o < objectives; ++o) {
      train_y[o].push_back(s.objectives[o]);
    }
  }
  hm::common::Rng rng(config.seed);
  const std::vector<hh::Configuration> pool_configs =
      space.sample_distinct(config.pool_size, rng);
  hm::rf::FeatureMatrix pool_x(space.parameter_count());
  for (const hh::Configuration& c : pool_configs) {
    pool_x.add_row(space.features(c));
  }
  const std::size_t iteration = config.max_iterations;
  for (std::size_t o = 0; o < objectives; ++o) {
    hm::rf::ForestConfig forest = config.forest;
    forest.seed = config.seed ^
                  (0x9e3779b97f4a7c15ULL * (iteration * objectives + o + 1));
    hm::rf::RandomForest model(forest);
    double start = now_seconds();
    model.fit(train_x, train_y[o], pool);
    fit_s += now_seconds() - start;
    start = now_seconds();
    const std::vector<double> predicted = model.predict_batch(pool_x, pool);
    predict_s += now_seconds() - start;
    if (predicted.size() != pool_configs.size()) {
      std::printf("surrogate replay: predict_batch returned %zu rows for %zu\n",
                  predicted.size(), pool_configs.size());
    }
  }
}

bool replay_journal(const std::string& wal_path,
                    const std::string& scratch_path, JournalReplay& totals,
                    std::string* error) {
  const hm::common::JournalReadResult journal =
      hm::common::read_journal(wal_path);
  if (!journal.usable()) {
    *error = std::string("unreadable journal ") + wal_path + ": " +
             hm::common::to_string(journal.status);
    return false;
  }
  std::error_code ec;
  totals.records += journal.records.size();
  totals.bytes += static_cast<std::size_t>(std::filesystem::file_size(wal_path, ec));
  std::filesystem::remove(scratch_path, ec);
  hm::common::JournalWriter writer;
  if (!writer.open(scratch_path, error)) return false;
  for (const hm::common::JournalRecord& record : journal.records) {
    const double start = now_seconds();
    if (!writer.append(record.type, record.payload)) {
      *error = "journal replay append failed at " + scratch_path;
      return false;
    }
    totals.append_seconds.push_back(now_seconds() - start);
  }
  writer.close();
  std::filesystem::remove(scratch_path, ec);
  return true;
}

}  // namespace perfbench
