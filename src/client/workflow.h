// WorkflowManager — the portal convenience layer over UnicoreClient,
// modelled on the PyUnicoreManager wrapper around PyUNICORE: one_run()
// takes a list of steps, compiles them into an AJO
// DAG, consigns it (over a gateway session token by default), waits for
// completion, and hands back the per-step stdout/stderr — one call
// instead of a hand-written submit/poll/fetch chain.
//
// Every submission owns a managed working storage at the Usite; with
// Options::clean_job_storages the manager reaps it after collecting the
// results, the way the Python manager "would check if the jobs storage
// list is full, in that case would clean it up".
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "client/client.h"
#include "resources/resource_set.h"
#include "util/result.h"

namespace unicore::client {

/// One node of the workflow DAG: a script plus the names of the steps
/// it must run after. Steps with an empty `after` start immediately.
struct WorkflowStep {
  std::string name;
  std::string script;              // shell text; runs as ExecuteScriptTask
  std::vector<std::string> after;  // predecessor step names
  /// Uspace files the predecessors must hand to this step (§5.7 file
  /// carriage; applied to every `after` edge).
  std::vector<std::string> files;
  resources::ResourceSet resources;   // §5.4 resource request
  ajo::TaskBehavior behavior;         // simulated runtime / output
};

/// Per-run knobs — the `parameters` argument of one_run.
struct WorkflowParameters {
  std::string job_name = "workflow";
  std::string usite;   // destination UNICORE site
  std::string vsite;   // destination virtual site
  std::string account_group;
  sim::Time poll_interval = sim::sec(5);
};

/// Result of one finished step, lifted out of the outcome tree.
struct StepResult {
  ajo::ActionStatus status = ajo::ActionStatus::kPending;
  std::int32_t exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
};

/// What one_run resolves to: the consigned job's token (the handle for
/// later fetch_output / storage calls), the full outcome tree, and the
/// per-step results keyed by step name. With wait=false only `token`
/// is populated.
struct WorkflowRun {
  ajo::JobToken token = 0;
  ajo::Outcome outcome;
  std::map<std::string, StepResult> steps;
  bool storage_reaped = false;  // Options::clean_job_storages did run
};

/// Manager-wide knobs (the PyUnicoreManager constructor flags).
struct WorkflowOptions {
  /// Open a gateway session before the first consign and ride the
  /// token envelope (docs/PORTAL.md); false keeps signed-AJO
  /// certificate consigns.
  bool use_session = true;
  /// Requested session TTL in seconds; 0 accepts the broker default.
  std::int64_t session_ttl = 0;
  /// Reap the job's working storage once the results are collected.
  bool clean_job_storages = false;
};

class WorkflowManager {
 public:
  using Options = WorkflowOptions;
  using RunHandler = std::function<void(util::Result<WorkflowRun>)>;

  explicit WorkflowManager(UnicoreClient& client, Options options = {});

  /// Compiles `steps` into an AJO DAG, consigns it, and — with wait —
  /// polls until terminal and collects per-step results; `done` fires
  /// once with the run or the first error. The client must already be
  /// connected.
  void one_run(const std::vector<WorkflowStep>& steps,
               const WorkflowParameters& parameters, RunHandler done,
               bool wait = true);

  /// The PyUnicoreManager shorthand: a plain list of command lines,
  /// run as a sequential chain (each line one step, ordered).
  void one_run(const std::vector<std::string>& command_lines,
               const WorkflowParameters& parameters, RunHandler done,
               bool wait = true);

  /// The DAG compiler alone (what one_run consigns); exposed so tests
  /// can check the graph without a server.
  util::Result<ajo::AbstractJobObject> compile(
      const std::vector<WorkflowStep>& steps,
      const WorkflowParameters& parameters) const;

  UnicoreClient& client() { return client_; }
  const Options& options() const { return options_; }

 private:
  UnicoreClient& client_;
  Options options_;
};

}  // namespace unicore::client
