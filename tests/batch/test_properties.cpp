// Randomized property tests of the batch subsystem: under arbitrary
// workloads (mixed sizes, overruns, cancellations, failures) the node
// accounting stays consistent and every job reaches a terminal state.
// The pinned digests at the end fix the exact schedule of seeded
// workloads, so a change to the scheduler's internals cannot move a
// single start, finish or failure draw unnoticed.
#include <gtest/gtest.h>

#include "batch/subsystem.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace unicore::batch {
namespace {

struct WorkloadResult {
  std::int64_t min_free = 0;
  std::int64_t max_free = 0;
  int completions = 0;
  int submitted_ok = 0;
};

class RandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkload, NodeAccountingInvariantsHold) {
  sim::Engine engine;
  SystemConfig config;
  config.vsite = "prop";
  config.architecture = resources::Architecture::kGenericUnix;
  config.nodes = 32;
  config.gflops_per_processor = 1.0;
  config.queues = {{"default", 32, 10'000, 1 << 20}};
  config.use_backfill = (GetParam() % 2) == 0;
  config.node_mtbf_hours = (GetParam() % 3) == 0 ? 5.0 : 0.0;
  BatchSubsystem batch(engine, util::Rng(GetParam()), config);

  util::Rng rng(GetParam() ^ 0xfeed);
  WorkloadResult result;
  result.min_free = config.nodes;
  std::vector<BatchJobId> ids;

  for (int i = 0; i < 120; ++i) {
    engine.at(sim::sec(rng.range(0, 2'000)), [&, i] {
      BatchRequest request;
      request.queue = "default";
      request.processors = 1 + static_cast<std::int64_t>(rng.below(32));
      request.wallclock_seconds = 10 + static_cast<std::int64_t>(rng.below(2'000));
      request.memory_mb = 64;
      request.job_name = "p" + std::to_string(i);
      ExecutionSpec spec;
      // Some jobs overrun their limit on purpose.
      spec.nominal_seconds =
          static_cast<double>(request.wallclock_seconds) *
          (rng.chance(0.2) ? 2.0 : rng.uniform());
      auto id = batch.submit(
          render_directives(config.architecture, request), "user",
          std::move(spec),
          [&result](BatchJobId, const BatchResult&) { ++result.completions; });
      if (id.ok()) {
        ++result.submitted_ok;
        ids.push_back(id.value());
      }
    });
  }
  // Random cancellations mid-flight.
  for (int i = 0; i < 10; ++i) {
    engine.at(sim::sec(rng.range(100, 3'000)), [&] {
      if (!ids.empty()) (void)batch.cancel(ids[rng.below(ids.size())]);
    });
  }
  // Observe free-node bounds continuously.
  for (int t = 0; t < 400; ++t) {
    engine.at(sim::sec(t * 10), [&] {
      result.min_free = std::min(result.min_free, batch.free_nodes());
      result.max_free = std::max(result.max_free, batch.free_nodes());
    });
  }
  engine.run();

  // Invariants: free nodes never negative, never above the machine
  // size; every submitted job reported exactly one completion; queues
  // drained; all nodes returned.
  EXPECT_GE(result.min_free, 0);
  EXPECT_LE(result.max_free, config.nodes);
  EXPECT_EQ(result.completions, result.submitted_ok);
  EXPECT_EQ(batch.queued_jobs(), 0u);
  EXPECT_EQ(batch.running_jobs(), 0u);
  EXPECT_EQ(batch.free_nodes(), config.nodes);

  // Stats are internally consistent.
  const SubsystemStats& stats = batch.stats();
  EXPECT_EQ(stats.jobs_completed + stats.jobs_failed + stats.jobs_killed +
                stats.jobs_cancelled,
            static_cast<std::uint64_t>(result.submitted_ok));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Range<std::uint64_t>(0, 12));

// FNV-1a over every job's (id, state, exit code, submit/start/finish
// instants) in id order, then over the order the completion handlers
// fired in (which fixes the start order within one instant, and with it
// the failure-injection draws).
class ScheduleDigest {
 public:
  void add(std::int64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= static_cast<std::uint64_t>(value >> shift) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t schedule_digest(const BatchSubsystem& batch,
                              const std::vector<BatchJobId>& ids,
                              const std::vector<BatchJobId>& completion_order) {
  ScheduleDigest digest;
  for (BatchJobId id : ids) {
    auto result = batch.result(id);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) continue;
    const BatchResult& r = result.value();
    digest.add(static_cast<std::int64_t>(id));
    digest.add(static_cast<std::int64_t>(r.state));
    digest.add(r.exit_code);
    digest.add(r.submitted_at);
    digest.add(r.started_at);
    digest.add(r.finished_at);
  }
  for (BatchJobId id : completion_order)
    digest.add(static_cast<std::int64_t>(id));
  return digest.value();
}

// bench_scheduler's generator: 64 single-processor nodes, power-of-two
// jobs of 1..64 processors arriving within the first hour.
std::uint64_t scheduler_bench_digest(bool backfill, int jobs) {
  sim::Engine engine;
  SystemConfig config;
  config.vsite = "bench";
  config.architecture = resources::Architecture::kGenericUnix;
  config.nodes = 64;
  config.processors_per_node = 1;
  config.gflops_per_processor = 1.0;
  config.queues = {{"default", 64, 86'400, 1 << 20}};
  config.use_backfill = backfill;
  BatchSubsystem batch(engine, util::Rng(1), config);

  util::Rng workload(999);
  std::vector<BatchJobId> ids, completion_order;
  for (int i = 0; i < jobs; ++i) {
    std::int64_t procs = 1LL << workload.below(7);
    double runtime = workload.exponential(600.0);
    std::int64_t requested = static_cast<std::int64_t>(runtime * 2) + 600;
    engine.at(sim::sec(workload.range(0, 3'600)), [&, procs, requested,
                                                   runtime] {
      BatchRequest request;
      request.queue = "default";
      request.processors = procs;
      request.wallclock_seconds = requested;
      request.memory_mb = 64;
      ExecutionSpec spec;
      spec.nominal_seconds = runtime;
      auto id = batch.submit(
          render_directives(config.architecture, request), "user",
          std::move(spec), [&completion_order](BatchJobId id,
                                               const BatchResult&) {
            completion_order.push_back(id);
          });
      EXPECT_TRUE(id.ok());
      if (id.ok()) ids.push_back(id.value());
    });
  }
  engine.run();
  EXPECT_EQ(completion_order.size(), static_cast<std::size_t>(jobs));
  return schedule_digest(batch, ids, completion_order);
}

// RandomWorkload's mix without the cancellations: overruns that the
// limit kills, node failures, mixed sizes on 32 nodes.
std::uint64_t random_workload_digest(std::uint64_t seed, bool backfill) {
  sim::Engine engine;
  SystemConfig config;
  config.vsite = "prop";
  config.architecture = resources::Architecture::kGenericUnix;
  config.nodes = 32;
  config.gflops_per_processor = 1.0;
  config.queues = {{"default", 32, 10'000, 1 << 20}};
  config.use_backfill = backfill;
  config.node_mtbf_hours = 5.0;
  BatchSubsystem batch(engine, util::Rng(seed), config);

  util::Rng rng(seed ^ 0xfeed);
  std::vector<BatchJobId> ids, completion_order;
  for (int i = 0; i < 120; ++i) {
    engine.at(sim::sec(rng.range(0, 2'000)), [&, i] {
      BatchRequest request;
      request.queue = "default";
      request.processors = 1 + static_cast<std::int64_t>(rng.below(32));
      request.wallclock_seconds =
          10 + static_cast<std::int64_t>(rng.below(2'000));
      request.memory_mb = 64;
      request.job_name = "p" + std::to_string(i);
      ExecutionSpec spec;
      spec.nominal_seconds =
          static_cast<double>(request.wallclock_seconds) *
          (rng.chance(0.2) ? 2.0 : rng.uniform());
      auto id = batch.submit(
          render_directives(config.architecture, request), "user",
          std::move(spec), [&completion_order](BatchJobId id,
                                               const BatchResult&) {
            completion_order.push_back(id);
          });
      if (id.ok()) ids.push_back(id.value());
    });
  }
  engine.run();
  EXPECT_EQ(completion_order.size(), ids.size());
  EXPECT_GT(batch.stats().jobs_killed, 0u);
  EXPECT_GT(batch.stats().jobs_failed, 0u);
  return schedule_digest(batch, ids, completion_order);
}

TEST(SchedulePin, SchedulerBenchWorkload) {
  EXPECT_EQ(scheduler_bench_digest(false, 100), 0x068af60ded0d1622ULL);
  EXPECT_EQ(scheduler_bench_digest(false, 400), 0xc001521851ff7019ULL);
  EXPECT_EQ(scheduler_bench_digest(true, 100), 0x265a0d428bcd032eULL);
  EXPECT_EQ(scheduler_bench_digest(true, 400), 0x5334a4eb121556c7ULL);
}

TEST(SchedulePin, RandomWorkloadWithOverrunsAndFailures) {
  EXPECT_EQ(random_workload_digest(3, true), 0x1952c02b3cf78cb5ULL);
  EXPECT_EQ(random_workload_digest(3, false), 0x5b8866b106539ac4ULL);
  EXPECT_EQ(random_workload_digest(11, true), 0x6eac3aafe72c5e46ULL);
  EXPECT_EQ(random_workload_digest(11, false), 0x2145b7798cf8c692ULL);
}

TEST(BatchDeterminism, IdenticalSeedsIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    SystemConfig config;
    config.vsite = "det";
    config.nodes = 16;
    config.queues = {{"default", 16, 10'000, 1 << 20}};
    BatchSubsystem batch(engine, util::Rng(seed), config);
    util::Rng rng(99);
    std::vector<sim::Time> finish_times;
    for (int i = 0; i < 40; ++i) {
      BatchRequest request;
      request.queue = "default";
      request.processors = 1 + static_cast<std::int64_t>(rng.below(16));
      request.wallclock_seconds = 1'000;
      request.memory_mb = 8;
      ExecutionSpec spec;
      spec.nominal_seconds = 10 + rng.uniform() * 500;
      (void)batch.submit(
          render_directives(config.architecture, request), "u",
          std::move(spec),
          [&finish_times, &engine](BatchJobId, const BatchResult&) {
            finish_times.push_back(engine.now());
          });
    }
    engine.run();
    return finish_times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_EQ(run(6), run(6));
}

}  // namespace
}  // namespace unicore::batch
