// The simulated batch subsystem: admission, FCFS, EASY backfill, limit
// kills, cancellation, file semantics, failure injection, accounting.
#include "batch/subsystem.h"

#include <gtest/gtest.h>

#include "batch/target_system.h"
#include "obs/metrics.h"

namespace unicore::batch {
namespace {

struct SubsystemFixture : public ::testing::Test {
  sim::Engine engine;

  SystemConfig small_system(bool backfill = true) {
    SystemConfig config;
    config.vsite = "test";
    config.architecture = resources::Architecture::kGenericUnix;
    config.nodes = 8;
    config.processors_per_node = 1;
    config.gflops_per_processor = 1.0;  // nominal seconds == real seconds
    config.memory_mb_per_node = 1'024;
    config.queues = {{"default", 8, 86'400, 8 * 1'024}};
    config.use_backfill = backfill;
    return config;
  }

  std::string script(std::int64_t procs, std::int64_t wallclock,
                     const std::string& name = "job") {
    BatchRequest request;
    request.queue = "default";
    request.processors = procs;
    request.wallclock_seconds = wallclock;
    request.memory_mb = 64;
    request.job_name = name;
    return render_directives(resources::Architecture::kGenericUnix, request);
  }

  ExecutionSpec spec(double seconds) {
    ExecutionSpec s;
    s.nominal_seconds = seconds;
    s.stdout_text = "out";
    return s;
  }
};

TEST_F(SubsystemFixture, JobRunsAndCompletes) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  BatchResult final_result;
  auto id = batch.submit(script(2, 100), "user1", spec(10),
                         [&](BatchJobId, const BatchResult& r) {
                           final_result = r;
                         });
  ASSERT_TRUE(id.ok()) << id.error().to_string();
  engine.run();
  EXPECT_EQ(final_result.state, BatchJobState::kCompleted);
  EXPECT_EQ(final_result.exit_code, 0);
  EXPECT_EQ(final_result.stdout_text, "out");
  EXPECT_EQ(final_result.finished_at - final_result.started_at, sim::sec(10));
  EXPECT_EQ(batch.stats().jobs_completed, 1u);
}

TEST_F(SubsystemFixture, SubmissionWithoutLoginRejected) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  auto id = batch.submit(script(1, 10), "", spec(1), nullptr);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(SubsystemFixture, QueueLimitsEnforced) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  // Too many processors for the queue.
  EXPECT_FALSE(batch.submit(script(16, 10), "u", spec(1), nullptr).ok());
  // Too much wallclock.
  EXPECT_FALSE(batch.submit(script(1, 100'000), "u", spec(1), nullptr).ok());
  // Unknown queue.
  std::string bad = script(1, 10);
  bad.replace(bad.find("default"), 7, "nosuchq");
  EXPECT_FALSE(batch.submit(bad, "u", spec(1), nullptr).ok());
}

TEST_F(SubsystemFixture, FcfsOrderWithoutBackfill) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(false));
  std::vector<int> start_order;
  auto submit = [&](int tag, std::int64_t procs, double seconds) {
    (void)batch.submit(script(procs, 1'000, "j" + std::to_string(tag)), "u",
                       spec(seconds),
                       [&start_order, tag](BatchJobId,
                                           const BatchResult&) {
                         start_order.push_back(tag);
                       });
  };
  // 8 nodes: job1 takes all; job2 (8 nodes) blocks; job3 (1 node, tiny)
  // must NOT jump ahead without backfill.
  submit(1, 8, 10);
  submit(2, 8, 10);
  submit(3, 1, 1);
  engine.run();
  ASSERT_EQ(start_order.size(), 3u);
  EXPECT_EQ(start_order[0], 1);
  EXPECT_EQ(start_order[1], 2);
  EXPECT_EQ(start_order[2], 3);
}

TEST_F(SubsystemFixture, EasyBackfillLetsSmallJobsThrough) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  std::vector<std::pair<int, sim::Time>> finishes;
  auto submit = [&](int tag, std::int64_t procs, std::int64_t wallclock,
                    double seconds) {
    (void)batch.submit(script(procs, wallclock), "u", spec(seconds),
                       [&finishes, tag, this](BatchJobId,
                                              const BatchResult&) {
                         finishes.emplace_back(tag, engine.now());
                       });
  };
  // Job1: 6 nodes for 100 s. Job2 wants 8 nodes -> waits for job1.
  // Job3 wants 2 nodes for 50 s (within job2's shadow) -> backfills now.
  submit(1, 6, 1'000, 100);
  submit(2, 8, 1'000, 100);
  submit(3, 2, 50, 40);
  engine.run();
  ASSERT_EQ(finishes.size(), 3u);
  // Job3 finished before job1 (it started immediately on the spare nodes).
  sim::Time t1 = -1, t3 = -1;
  for (auto& [tag, at] : finishes) {
    if (tag == 1) t1 = at;
    if (tag == 3) t3 = at;
  }
  EXPECT_LT(t3, t1);
  EXPECT_EQ(batch.stats().backfilled_starts, 1u);
}

TEST_F(SubsystemFixture, BackfillNeverDelaysQueueHead) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  sim::Time head_started = -1;
  // Job1: 6 nodes, 100 s. Head (job2): 8 nodes.
  (void)batch.submit(script(6, 100), "u", spec(100), nullptr);
  (void)batch.submit(script(8, 100), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) {
                       head_started = r.started_at;
                     });
  // Job3: 2 nodes but 1000 s requested — would outlive the shadow and
  // does not fit the spare nodes (8-8=0) => must NOT backfill.
  (void)batch.submit(script(2, 1'000), "u", spec(999), nullptr);
  engine.run();
  // Head started right when job1 freed its nodes (~100 s), not ~1000 s.
  EXPECT_EQ(head_started, sim::sec(100) + sim::usec(0));
  EXPECT_EQ(batch.stats().backfilled_starts, 0u);
}

TEST_F(SubsystemFixture, SmallJobBackfillsAtItsSubmitInstant) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  // Job1 leaves 2 nodes free; the 8-node head blocks behind it, so the
  // smallest queued demand is 8 when the 1-node job arrives at t=10.
  (void)batch.submit(script(6, 1'000), "u", spec(500), nullptr);
  (void)batch.submit(script(8, 1'000), "u", spec(10), nullptr);
  engine.run_until(sim::sec(5));
  ASSERT_EQ(batch.free_nodes(), 2);
  ASSERT_EQ(batch.queued_jobs(), 1u);
  BatchResult small;
  engine.at(sim::sec(10), [&] {
    (void)batch.submit(script(1, 50), "u", spec(20),
                       [&](BatchJobId, const BatchResult& r) { small = r; });
  });
  engine.run();
  EXPECT_EQ(small.started_at, sim::sec(10));
  EXPECT_EQ(batch.stats().backfilled_starts, 1u);
}

TEST_F(SubsystemFixture, PassBelowEveryQueuedDemandStartsNothing) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  // 3 nodes stay free while the queue holds 8- and 4-node jobs.
  (void)batch.submit(script(5, 1'000), "u", spec(100), nullptr);
  (void)batch.submit(script(8, 1'000), "u", spec(10), nullptr);
  auto four = batch.submit(script(4, 20), "u", spec(10), nullptr);
  engine.run_until(sim::sec(5));
  // A later submission triggers another pass with 0 < free < demand.
  auto another = batch.submit(script(4, 20), "u", spec(10), nullptr);
  engine.run_until(sim::sec(50));
  EXPECT_EQ(batch.free_nodes(), 3);
  EXPECT_EQ(batch.queued_jobs(), 3u);
  EXPECT_EQ(batch.state(four.value()).value(), BatchJobState::kQueued);
  EXPECT_EQ(batch.state(another.value()).value(), BatchJobState::kQueued);
  EXPECT_EQ(batch.stats().backfilled_starts, 0u);
  engine.run();
  EXPECT_EQ(batch.result(four.value()).value().started_at, sim::sec(110));
}

TEST_F(SubsystemFixture, ShadowTiesAtOneDeadlineReleaseSmallestFirst) {
  BatchSubsystem batch(engine, util::Rng(1), small_system(true));
  // Two running jobs share the deadline t=100: 5 nodes (started first)
  // and 2 nodes. One node is free; the head needs 3. Releasing the
  // 2-node job first meets the head exactly, so no node is spare at the
  // shadow and a 1-node job outliving it must not backfill. (Releasing
  // the 5-node job first would leave 3 spare and let it through.)
  (void)batch.submit(script(5, 100), "u", spec(90), nullptr);
  (void)batch.submit(script(2, 100), "u", spec(90), nullptr);
  BatchResult head, tail;
  (void)batch.submit(script(3, 1'000), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) { head = r; });
  (void)batch.submit(script(1, 500), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) { tail = r; });
  engine.run();
  EXPECT_EQ(batch.stats().backfilled_starts, 0u);
  EXPECT_EQ(head.started_at, sim::sec(90));
  EXPECT_EQ(tail.started_at, sim::sec(90));
}

TEST_F(SubsystemFixture, WallclockLimitKillsJob) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  BatchResult result;
  // Requests 10 s but actually needs 100 s.
  (void)batch.submit(script(1, 10), "u", spec(100),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kKilled);
  EXPECT_EQ(result.exit_code, 137);
  EXPECT_NE(result.stderr_text.find("wallclock limit"), std::string::npos);
  EXPECT_EQ(result.finished_at - result.started_at, sim::sec(10));
  EXPECT_EQ(batch.stats().jobs_killed, 1u);
}

TEST_F(SubsystemFixture, MissingInputFilesFailFast) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(100);
  s.workspace = std::make_shared<uspace::Uspace>("job", 0);
  s.required_files = {"solver.f90"};
  BatchResult result;
  (void)batch.submit(script(1, 1'000), "u", std::move(s),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCompleted);
  EXPECT_EQ(result.exit_code, 127);
  EXPECT_NE(result.stderr_text.find("missing input file"),
            std::string::npos);
  // Failed within a fraction of a second, not after 100 s.
  EXPECT_LT(result.finished_at - result.started_at, sim::sec(1));
}

TEST_F(SubsystemFixture, OutputFilesMaterialiseInWorkspace) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(5);
  s.workspace = std::make_shared<uspace::Uspace>("job", 0);
  s.output_files = {{"result.dat", 4096}, {"log.txt", 128}};
  auto workspace = s.workspace;
  (void)batch.submit(script(1, 100), "u", std::move(s), nullptr);
  engine.run();
  EXPECT_TRUE(workspace->exists("result.dat"));
  EXPECT_TRUE(workspace->exists("log.txt"));
  EXPECT_EQ(workspace->read("result.dat").value().size(), 4096u);
}

TEST_F(SubsystemFixture, FullWorkspaceTurnsIntoJobError) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  ExecutionSpec s = spec(5);
  s.workspace = std::make_shared<uspace::Uspace>("job", 100);  // tiny quota
  s.output_files = {{"huge.dat", 1 << 20}};
  BatchResult result;
  (void)batch.submit(script(1, 100), "u", std::move(s),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCompleted);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("quota"), std::string::npos);
}

TEST_F(SubsystemFixture, CancelQueuedJob) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  (void)batch.submit(script(8, 100), "u", spec(50), nullptr);  // occupies all
  BatchResult result;
  auto id = batch.submit(script(8, 100), "u", spec(50),
                         [&](BatchJobId, const BatchResult& r) {
                           result = r;
                         });
  engine.run_until(sim::sec(1));
  ASSERT_EQ(batch.state(id.value()).value(), BatchJobState::kQueued);
  ASSERT_TRUE(batch.cancel(id.value()).ok());
  engine.run();
  EXPECT_EQ(result.state, BatchJobState::kCancelled);
  EXPECT_EQ(batch.stats().jobs_cancelled, 1u);
}

TEST_F(SubsystemFixture, CancellingQueuedHeadStartsJobsBehindIt) {
  SystemConfig config = small_system(false);
  config.nodes = 16;
  config.queues = {{"default", 16, 86'400, 16 * 1'024}};
  BatchSubsystem batch(engine, util::Rng(1), config);
  // 8 of 16 nodes busy; the 16-node head blocks a 4-node job (FCFS).
  (void)batch.submit(script(8, 1'000), "u", spec(500), nullptr);
  auto head = batch.submit(script(16, 1'000), "u", spec(10), nullptr);
  BatchResult behind;
  (void)batch.submit(script(4, 100), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) { behind = r; });
  engine.run_until(sim::sec(20));
  ASSERT_EQ(batch.queued_jobs(), 2u);
  ASSERT_TRUE(batch.cancel(head.value()).ok());
  engine.run();
  EXPECT_EQ(behind.started_at, sim::sec(20));
}

TEST_F(SubsystemFixture, CancelRunningJobFreesNodes) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  auto id = batch.submit(script(8, 1'000), "u", spec(900), nullptr);
  engine.run_until(sim::sec(1));
  ASSERT_EQ(batch.state(id.value()).value(), BatchJobState::kRunning);
  EXPECT_EQ(batch.free_nodes(), 0);
  ASSERT_TRUE(batch.cancel(id.value()).ok());
  EXPECT_EQ(batch.free_nodes(), 8);
  EXPECT_FALSE(batch.cancel(id.value()).ok());  // already finished
}

TEST_F(SubsystemFixture, NodeFailureInjection) {
  SystemConfig config = small_system();
  config.node_mtbf_hours = 0.01;  // absurdly flaky: ~36 s MTBF per node
  BatchSubsystem batch(engine, util::Rng(7), config);
  int failed = 0, completed = 0;
  for (int i = 0; i < 50; ++i) {
    (void)batch.submit(script(4, 3'600), "u", spec(600),
                       [&](BatchJobId, const BatchResult& r) {
                         if (r.state == BatchJobState::kFailed)
                           ++failed;
                         else
                           ++completed;
                       });
  }
  engine.run();
  EXPECT_EQ(failed + completed, 50);
  EXPECT_GT(failed, 25);  // with nodes*10min vs 36s MTBF, most jobs die
}

TEST_F(SubsystemFixture, NoFailuresWhenMtbfZero) {
  BatchSubsystem batch(engine, util::Rng(7), small_system());
  for (int i = 0; i < 20; ++i)
    (void)batch.submit(script(4, 3'600), "u", spec(600), nullptr);
  engine.run();
  EXPECT_EQ(batch.stats().jobs_failed, 0u);
  EXPECT_EQ(batch.stats().jobs_completed, 20u);
}

TEST_F(SubsystemFixture, UtilizationAccounting) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  // 4 nodes busy for 100 s on an 8-node machine, then idle to t=200.
  (void)batch.submit(script(4, 200), "u", spec(100), nullptr);
  engine.run();
  engine.run_until(sim::sec(200));
  EXPECT_NEAR(batch.utilization(), 4.0 * 100 / (8.0 * 200), 0.01);
  EXPECT_NEAR(batch.stats().busy_node_seconds, 400.0, 1.0);
}

TEST_F(SubsystemFixture, PerformanceScalesRuntime) {
  SystemConfig fast = small_system();
  fast.gflops_per_processor = 2.0;
  BatchSubsystem batch(engine, util::Rng(1), fast);
  BatchResult result;
  (void)batch.submit(script(1, 100), "u", spec(10),
                     [&](BatchJobId, const BatchResult& r) { result = r; });
  engine.run();
  // 10 nominal seconds on a 2-GFLOPS processor -> 5 s wallclock.
  EXPECT_EQ(result.finished_at - result.started_at, sim::sec(5));
}

TEST_F(SubsystemFixture, OutcomeCountersFollowTheRegistry) {
  BatchSubsystem batch(engine, util::Rng(1), small_system());
  auto outcomes = [](const obs::MetricsRegistry& registry,
                     const char* outcome) -> double {
    obs::MetricsSnapshot snapshot = registry.snapshot();
    const obs::MetricPoint* point = snapshot.find(
        "unicore_batch_jobs_total",
        {{"usite", "site"}, {"vsite", "test"}, {"outcome", outcome}});
    return point == nullptr ? -1.0 : point->value;
  };
  obs::MetricsRegistry first, second;
  batch.set_metrics(&first, "site");
  (void)batch.submit(script(1, 100), "u", spec(5), nullptr);
  engine.run();
  EXPECT_EQ(outcomes(first, "COMPLETED"), 1.0);
  // Only outcomes that happened have a series.
  EXPECT_EQ(first.snapshot().total("unicore_batch_jobs_total"), 1.0);
  EXPECT_EQ(outcomes(first, "KILLED"), -1.0);

  batch.set_metrics(nullptr, "site");
  (void)batch.submit(script(1, 100), "u", spec(5), nullptr);
  engine.run();
  EXPECT_EQ(outcomes(first, "COMPLETED"), 1.0);

  batch.set_metrics(&second, "site");
  (void)batch.submit(script(1, 100), "u", spec(5), nullptr);
  (void)batch.submit(script(1, 10), "u", spec(50), nullptr);  // overruns
  engine.run();
  EXPECT_EQ(outcomes(first, "COMPLETED"), 1.0);
  EXPECT_EQ(outcomes(second, "COMPLETED"), 1.0);
  EXPECT_EQ(outcomes(second, "KILLED"), 1.0);
}

TEST_F(SubsystemFixture, VendorConfigsHaveConsistentQueues) {
  for (const SystemConfig& config :
       {make_cray_t3e("a"), make_fujitsu_vpp700("b"), make_ibm_sp2("c"),
        make_nec_sx4("d")}) {
    EXPECT_FALSE(config.queues.empty());
    for (const QueueConfig& queue : config.queues) {
      EXPECT_LE(queue.max_processors, config.total_processors());
      EXPECT_GT(queue.max_wallclock_seconds, 0);
      EXPECT_NE(config.find_queue(queue.name), nullptr);
    }
    EXPECT_EQ(config.find_queue("no-such-queue"), nullptr);
  }
}

}  // namespace
}  // namespace unicore::batch
