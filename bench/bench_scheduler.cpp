// Batch-subsystem scheduling ablation: FCFS vs EASY backfill on a
// synthetic workload (the design-choice knob DESIGN.md §5 calls out for
// the third tier). Reported in virtual time: mean wait, makespan,
// utilisation, and how many jobs backfilled.
#include <benchmark/benchmark.h>

#include "batch/subsystem.h"
#include "batch/target_system.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using namespace unicore;

// Every iteration would simulate the identical workload, so each point
// runs exactly once: the counters are that run's values, comparable
// across builds to the last digit (no averaging over an iteration
// count Google Benchmark picks).
void BM_ScheduleWorkload(benchmark::State& state) {
  bool backfill = state.range(0) != 0;
  int jobs = static_cast<int>(state.range(1));

  for (auto _ : state) {
    sim::Engine engine;
    batch::SystemConfig config;
    config.vsite = "bench";
    config.architecture = resources::Architecture::kGenericUnix;
    config.nodes = 64;
    config.processors_per_node = 1;
    config.gflops_per_processor = 1.0;
    config.queues = {{"default", 64, 86'400, 1 << 20}};
    config.use_backfill = backfill;
    batch::BatchSubsystem batch(engine, util::Rng(1), config);

    util::Rng workload(999);
    int remaining = jobs;
    // A bursty arrival pattern: all jobs arrive within the first hour.
    for (int i = 0; i < jobs; ++i) {
      // Log-uniform-ish size mix: mostly small jobs, a few very wide.
      std::int64_t procs = 1LL << workload.below(7);  // 1..64
      double runtime = workload.exponential(600.0);
      std::int64_t requested = static_cast<std::int64_t>(runtime * 2) + 600;
      engine.at(sim::sec(workload.range(0, 3'600)), [&, procs, requested,
                                                     runtime] {
        batch::BatchRequest request;
        request.queue = "default";
        request.processors = procs;
        request.wallclock_seconds = requested;
        request.memory_mb = 64;
        batch::ExecutionSpec spec;
        spec.nominal_seconds = runtime;
        (void)batch.submit(
            batch::render_directives(config.architecture, request), "user",
            std::move(spec),
            [&remaining](batch::BatchJobId, const batch::BatchResult&) {
              --remaining;
            });
      });
    }
    engine.run();
    if (remaining != 0) state.SkipWithError("jobs did not drain");

    const batch::SubsystemStats& stats = batch.stats();
    state.counters["mean_wait_s"] = stats.total_wait_seconds / jobs;
    state.counters["makespan_s"] = sim::to_seconds(engine.now());
    state.counters["utilization"] = batch.utilization();
    state.counters["backfilled"] =
        static_cast<double>(stats.backfilled_starts);
  }
  state.SetLabel(backfill ? "EASY backfill" : "pure FCFS");
}
BENCHMARK(BM_ScheduleWorkload)
    ->ArgsProduct({{0, 1}, {100, 400, 1600}})
    ->ArgNames({"backfill", "jobs"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
