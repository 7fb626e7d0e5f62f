#include "client/sync_client.h"

namespace unicore::client {

using util::Result;
using util::Status;

Status SyncClient::connect(net::Address usite) {
  return await<Status>(
      [&](auto done) { client_.connect(usite, std::move(done)); });
}

Result<crypto::SoftwareBundle> SyncClient::fetch_bundle(
    const std::string& name) {
  return await<Result<crypto::SoftwareBundle>>(
      [&](auto done) { client_.fetch_bundle(name, std::move(done)); });
}

Result<std::vector<resources::ResourcePage>>
SyncClient::fetch_resource_pages() {
  return await<Result<std::vector<resources::ResourcePage>>>(
      [&](auto done) { client_.fetch_resource_pages(std::move(done)); });
}

Result<ajo::JobToken> SyncClient::submit(const ajo::AbstractJobObject& job) {
  return await<Result<ajo::JobToken>>(
      [&](auto done) { client_.submit(job, std::move(done)); });
}

Result<ajo::JobToken> SyncClient::submit_with_retry(
    const ajo::AbstractJobObject& job, int attempts) {
  return await<Result<ajo::JobToken>>([&](auto done) {
    client_.submit_with_retry(job, attempts, std::move(done));
  });
}

Result<ajo::Outcome> SyncClient::query(ajo::JobToken token,
                                       ajo::QueryService::Detail detail) {
  return await<Result<ajo::Outcome>>(
      [&](auto done) { client_.query(token, detail, std::move(done)); });
}

Result<std::vector<JobEntry>> SyncClient::list() {
  return await<Result<std::vector<JobEntry>>>(
      [&](auto done) { client_.list(std::move(done)); });
}

Status SyncClient::control(ajo::JobToken token,
                           ajo::ControlService::Command command) {
  return await<Status>(
      [&](auto done) { client_.control(token, command, std::move(done)); });
}

Result<uspace::FileBlob> SyncClient::fetch_output(ajo::JobToken token,
                                                  const std::string& name) {
  return await<Result<uspace::FileBlob>>(
      [&](auto done) { client_.fetch_output(token, name, std::move(done)); });
}

Result<ajo::Outcome> SyncClient::wait_for_completion(ajo::JobToken token,
                                                     sim::Time interval) {
  return await<Result<ajo::Outcome>>([&](auto done) {
    client_.wait_for_completion(token, interval, std::move(done));
  });
}

Result<obs::MetricsSnapshot> SyncClient::fetch_metrics() {
  return await<Result<obs::MetricsSnapshot>>(
      [&](auto done) { client_.fetch_metrics(std::move(done)); });
}

Result<obs::TraceTimeline> SyncClient::fetch_trace(ajo::JobToken token) {
  return await<Result<obs::TraceTimeline>>(
      [&](auto done) { client_.fetch_trace(token, std::move(done)); });
}

Result<JournalInfo> SyncClient::inspect_journal() {
  return await<Result<JournalInfo>>(
      [&](auto done) { client_.inspect_journal(std::move(done)); });
}

Result<SessionGrant> SyncClient::open_session(std::int64_t requested_ttl) {
  return await<Result<SessionGrant>>([&](auto done) {
    client_.open_session(requested_ttl, std::move(done));
  });
}

Result<SessionGrant> SyncClient::refresh_session() {
  return await<Result<SessionGrant>>(
      [&](auto done) { client_.refresh_session(std::move(done)); });
}

Status SyncClient::close_session() {
  return await<Status>(
      [&](auto done) { client_.close_session(std::move(done)); });
}

Result<std::vector<StorageEntry>> SyncClient::list_storages() {
  return await<Result<std::vector<StorageEntry>>>(
      [&](auto done) { client_.list_storages(std::move(done)); });
}

Result<std::vector<std::string>> SyncClient::storage_files(
    ajo::JobToken token) {
  return await<Result<std::vector<std::string>>>(
      [&](auto done) { client_.storage_files(token, std::move(done)); });
}

Result<std::uint64_t> SyncClient::reap_storage(ajo::JobToken token) {
  return await<Result<std::uint64_t>>(
      [&](auto done) { client_.reap_storage(token, std::move(done)); });
}

Result<WorkflowRun> SyncClient::one_run(const std::vector<WorkflowStep>& steps,
                                        const WorkflowParameters& parameters,
                                        WorkflowManager::Options options) {
  WorkflowManager manager(client_, options);
  return await<Result<WorkflowRun>>([&](auto done) {
    manager.one_run(steps, parameters, std::move(done));
  });
}

Result<WorkflowRun> SyncClient::one_run(
    const std::vector<std::string>& command_lines,
    const WorkflowParameters& parameters, WorkflowManager::Options options) {
  WorkflowManager manager(client_, options);
  return await<Result<WorkflowRun>>([&](auto done) {
    manager.one_run(command_lines, parameters, std::move(done));
  });
}

}  // namespace unicore::client
