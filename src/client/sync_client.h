// Blocking facade over UnicoreClient for tests and examples: each call
// starts the callback operation and steps the simulation engine until
// its completion fires, turning the asynchronous protocol into plain
// return values. Only usable from code that owns the engine loop — i.e.
// drivers, never from inside an event handler.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/workflow.h"
#include "sim/engine.h"

namespace unicore::client {

class SyncClient {
 public:
  SyncClient(sim::Engine& engine, UnicoreClient& client)
      : engine_(engine), client_(client) {}

  /// The bridge from any callback operation to straight-line driver
  /// code: `start` receives the completion callback to pass on, and the
  /// engine is pumped until it fires. `R` is the completion's argument
  /// type — util::Result<T> or util::Status.
  template <typename R, typename Start>
  R await(Start&& start) {
    std::optional<R> result;
    start([&result](R r) { result = std::move(r); });
    while (!result.has_value() && engine_.step()) {
    }
    if (!result.has_value())
      return util::make_error(util::ErrorCode::kInternal,
                              "event queue drained before the reply");
    return std::move(*result);
  }

  util::Status connect(net::Address usite);

  util::Result<crypto::SoftwareBundle> fetch_bundle(const std::string& name);
  util::Result<std::vector<resources::ResourcePage>> fetch_resource_pages();
  util::Result<ajo::JobToken> submit(const ajo::AbstractJobObject& job);
  util::Result<ajo::JobToken> submit_with_retry(
      const ajo::AbstractJobObject& job, int attempts);
  util::Result<ajo::Outcome> query(ajo::JobToken token,
                                   ajo::QueryService::Detail detail);
  util::Result<std::vector<JobEntry>> list();
  util::Status control(ajo::JobToken token,
                       ajo::ControlService::Command command);
  util::Result<uspace::FileBlob> fetch_output(ajo::JobToken token,
                                              const std::string& name);
  /// Polls until the job is terminal, then returns its outcome.
  util::Result<ajo::Outcome> wait_for_completion(ajo::JobToken token,
                                                 sim::Time interval);
  util::Result<obs::MetricsSnapshot> fetch_metrics();
  util::Result<obs::TraceTimeline> fetch_trace(ajo::JobToken token);
  util::Result<JournalInfo> inspect_journal();

  // --- portal sessions & managed storages (docs/PORTAL.md) -------------
  util::Result<SessionGrant> open_session(std::int64_t requested_ttl = 0);
  util::Result<SessionGrant> refresh_session();
  util::Status close_session();
  util::Result<std::vector<StorageEntry>> list_storages();
  util::Result<std::vector<std::string>> storage_files(ajo::JobToken token);
  util::Result<std::uint64_t> reap_storage(ajo::JobToken token);

  /// Compiles, consigns, and waits for a whole workflow (see
  /// WorkflowManager::one_run).
  util::Result<WorkflowRun> one_run(const std::vector<WorkflowStep>& steps,
                                    const WorkflowParameters& parameters,
                                    WorkflowManager::Options options = {});
  util::Result<WorkflowRun> one_run(
      const std::vector<std::string>& command_lines,
      const WorkflowParameters& parameters,
      WorkflowManager::Options options = {});

  UnicoreClient& async() { return client_; }

 private:
  sim::Engine& engine_;
  UnicoreClient& client_;
};

}  // namespace unicore::client
