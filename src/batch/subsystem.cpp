#include "batch/subsystem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/log.h"

namespace unicore::batch {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr std::int64_t kNoQueuedDemand =
    std::numeric_limits<std::int64_t>::max();

// The EASY shadow's release order: earliest deadline first, and at one
// deadline the smallest job first.
constexpr auto release_order = [](const auto* a, const auto* b) {
  return std::pair(a->limit_deadline, a->nodes_needed) <
         std::pair(b->limit_deadline, b->nodes_needed);
};

}  // namespace

const char* batch_job_state_name(BatchJobState s) {
  switch (s) {
    case BatchJobState::kQueued: return "QUEUED";
    case BatchJobState::kRunning: return "RUNNING";
    case BatchJobState::kCompleted: return "COMPLETED";
    case BatchJobState::kFailed: return "FAILED";
    case BatchJobState::kKilled: return "KILLED";
    case BatchJobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

BatchSubsystem::BatchSubsystem(sim::Engine& engine, util::Rng rng,
                               SystemConfig config)
    : engine_(engine),
      rng_(std::move(rng)),
      config_(std::move(config)),
      free_nodes_(config_.nodes),
      min_queued_nodes_(kNoQueuedDemand) {}

Status BatchSubsystem::validate(const BatchRequest& request) const {
  const QueueConfig* queue = config_.find_queue(request.queue);
  if (queue == nullptr)
    return util::make_error(ErrorCode::kNotFound,
                            config_.vsite + ": no such queue: " +
                                request.queue);
  if (request.processors < 1 || request.processors > queue->max_processors)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": processors " + std::to_string(request.processors) +
            " outside queue limit " + std::to_string(queue->max_processors));
  if (request.wallclock_seconds < 1 ||
      request.wallclock_seconds > queue->max_wallclock_seconds)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": wallclock " +
            std::to_string(request.wallclock_seconds) +
            "s outside queue limit " +
            std::to_string(queue->max_wallclock_seconds) + "s");
  if (request.memory_mb < 0 || request.memory_mb > queue->max_memory_mb)
    return util::make_error(
        ErrorCode::kResourceExhausted,
        config_.vsite + ": memory " + std::to_string(request.memory_mb) +
            "MB outside queue limit " + std::to_string(queue->max_memory_mb) +
            "MB");
  return Status::ok_status();
}

Result<BatchJobId> BatchSubsystem::submit(const std::string& script,
                                          const std::string& owner,
                                          ExecutionSpec spec,
                                          CompletionHandler on_complete) {
  if (offline_)
    return util::make_error(ErrorCode::kUnavailable,
                            config_.vsite + ": batch subsystem offline");
  if (owner.empty())
    return util::make_error(ErrorCode::kPermissionDenied,
                            config_.vsite + ": submission without a login");
  auto request = parse_directives(config_.architecture, script);
  if (!request) return request.error();
  if (auto status = validate(request.value()); !status.ok())
    return status.error();

  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->owner = owner;
  job->request = std::move(request.value());
  job->script = script;
  job->spec = std::move(spec);
  job->on_complete = std::move(on_complete);
  job->nodes_needed =
      (job->request.processors + config_.processors_per_node - 1) /
      config_.processors_per_node;
  job->result.submitted_at = engine_.now();

  BatchJobId id = job->id;
  min_queued_nodes_ = std::min(min_queued_nodes_, job->nodes_needed);
  queue_.push_back(job.get());
  jobs_[id] = std::move(job);
  ++stats_.jobs_submitted;
  if (submitted_counter_) submitted_counter_->increment();
  update_gauges();

  // Scheduling runs as its own event so submit() stays non-reentrant.
  engine_.after(0, [this] { schedule_pass(); });
  return id;
}

BatchSubsystem::Shadow BatchSubsystem::compute_shadow(
    std::int64_t head_nodes) const {
  // Walk running jobs in order of their wallclock deadlines, accumulating
  // freed nodes until the head job fits; that instant is the shadow time.
  std::int64_t available = free_nodes_;
  Shadow shadow{engine_.now(), 0};
  for (const Job* job : by_deadline_) {
    if (available >= head_nodes) break;
    available += job->nodes_needed;
    shadow.at = job->limit_deadline;
  }
  // Nodes the head job will not need at its (estimated) start.
  shadow.extra_nodes = std::max<std::int64_t>(0, available - head_nodes);
  return shadow;
}

void BatchSubsystem::schedule_pass() {
  // FCFS: start from the front while jobs fit.
  while (!queue_.empty() && queue_.front()->nodes_needed <= free_nodes_) {
    Job& head = *queue_.front();
    queue_.pop_front();
    start_job(head, /*backfilled=*/false);
  }
  if (queue_.empty()) {
    min_queued_nodes_ = kNoQueuedDemand;
    return;
  }
  if (!config_.use_backfill || free_nodes_ < min_queued_nodes_) return;

  // EASY backfill: jobs behind the head may start now if they do not
  // delay the head's estimated start.
  const Job& head = *queue_.front();
  Shadow shadow;
  bool shadow_stale = true;  // again after every start
  std::int64_t min_left = head.nodes_needed;
  for (auto it = std::next(queue_.begin()); it != queue_.end();) {
    Job& candidate = **it;
    if (candidate.nodes_needed <= free_nodes_) {
      if (shadow_stale) {
        shadow = compute_shadow(head.nodes_needed);
        shadow_stale = false;
      }
      bool ends_before_shadow =
          engine_.now() + sim::sec(candidate.request.wallclock_seconds) <=
          shadow.at;
      bool within_spare = candidate.nodes_needed <= shadow.extra_nodes;
      if (ends_before_shadow || within_spare) {
        it = queue_.erase(it);
        start_job(candidate, /*backfilled=*/true);
        // Spare capacity shrinks as backfilled jobs take nodes.
        shadow_stale = true;
        if (free_nodes_ < min_queued_nodes_) return;
        continue;
      }
    }
    min_left = std::min(min_left, candidate.nodes_needed);
    ++it;
  }
  min_queued_nodes_ = min_left;
}

void BatchSubsystem::start_job(Job& job, bool backfilled) {
  free_nodes_ -= job.nodes_needed;
  job.state = BatchJobState::kRunning;
  job.backfilled = backfilled;
  if (backfilled) ++stats_.backfilled_starts;
  job.result.started_at = engine_.now();
  double wait_seconds =
      sim::to_seconds(job.result.started_at - job.result.submitted_at);
  stats_.total_wait_seconds += wait_seconds;
  if (queue_wait_hist_) queue_wait_hist_->observe(wait_seconds);
  job.limit_deadline =
      engine_.now() + sim::sec(job.request.wallclock_seconds);
  running_.push_back(&job);
  by_deadline_.insert(
      std::upper_bound(by_deadline_.begin(), by_deadline_.end(), &job,
                       release_order),
      &job);
  update_gauges();

  // Missing input files fail the job immediately (the script's first
  // command would have died the same way).
  std::vector<std::string> missing;
  for (const std::string& file : job.spec.required_files)
    if (job.spec.workspace == nullptr || !job.spec.workspace->exists(file))
      missing.push_back(file);
  if (!missing.empty()) {
    std::string message = "missing input file(s):";
    for (const std::string& file : missing) message += " " + file;
    engine_.after(sim::msec(100), [this, &job, message] {
      if (job.state == BatchJobState::kRunning)
        finish_job(job, BatchJobState::kCompleted, 127, message);
    });
    return;
  }

  double actual_seconds =
      job.spec.nominal_seconds / config_.gflops_per_processor;
  sim::Time actual_runtime = sim::from_seconds(actual_seconds);

  // Node failure injection: the chance any of the job's nodes dies
  // during the run, with the failure instant uniform over the runtime.
  if (config_.node_mtbf_hours > 0) {
    double runtime_hours = actual_seconds / 3600.0;
    double failure_probability =
        1.0 - std::exp(-runtime_hours * static_cast<double>(job.nodes_needed) /
                       config_.node_mtbf_hours);
    if (rng_.chance(failure_probability)) {
      sim::Time failure_at = static_cast<sim::Time>(
          rng_.uniform() * static_cast<double>(actual_runtime));
      job.finish_event = engine_.after(failure_at, [this, &job] {
        if (job.state == BatchJobState::kRunning)
          finish_job(job, BatchJobState::kFailed, 139,
                     "node failure during execution");
      });
      return;
    }
  }

  if (actual_runtime <= sim::sec(job.request.wallclock_seconds)) {
    job.finish_event = engine_.after(actual_runtime, [this, &j = job] {
      if (j.state == BatchJobState::kRunning) {
        // Materialise output files; a full Uspace turns into a job error.
        std::string io_error;
        if (j.spec.workspace) {
          for (const auto& [name, size] : j.spec.output_files) {
            auto status = j.spec.workspace->write(
                name, uspace::FileBlob::synthetic(
                          size, j.id ^ crypto::digest_prefix64(
                                           crypto::sha256(name))));
            if (!status.ok()) {
              io_error = status.error().message;
              break;
            }
          }
        }
        if (!io_error.empty())
          finish_job(j, BatchJobState::kCompleted, 1, io_error);
        else
          finish_job(j, BatchJobState::kCompleted, j.spec.exit_code, "");
      }
    });
  } else {
    // The batch system kills the job at its requested wallclock limit.
    job.limit_event = engine_.after(
        sim::sec(job.request.wallclock_seconds), [this, &job] {
          if (job.state == BatchJobState::kRunning)
            finish_job(job, BatchJobState::kKilled, 137,
                       "job killed: wallclock limit exceeded");
        });
  }
}

void BatchSubsystem::finish_job(Job& job, BatchJobState state,
                                std::int32_t exit_code,
                                std::string stderr_extra) {
  if (job.finish_event) engine_.cancel(*job.finish_event);
  if (job.limit_event) engine_.cancel(*job.limit_event);
  job.finish_event.reset();
  job.limit_event.reset();

  free_nodes_ += job.nodes_needed;
  std::erase(running_, &job);
  auto [first, last] = std::equal_range(by_deadline_.begin(),
                                        by_deadline_.end(), &job,
                                        release_order);
  by_deadline_.erase(std::find(first, last, &job));

  job.state = state;
  job.result.state = state;
  job.result.exit_code = exit_code;
  job.result.finished_at = engine_.now();
  double run_seconds =
      sim::to_seconds(job.result.finished_at - job.result.started_at);
  stats_.total_run_seconds += run_seconds;
  stats_.busy_node_seconds +=
      run_seconds * static_cast<double>(job.nodes_needed);
  if (run_time_hist_) run_time_hist_->observe(run_seconds);
  count_outcome(state);
  update_gauges();

  switch (state) {
    case BatchJobState::kCompleted: ++stats_.jobs_completed; break;
    case BatchJobState::kFailed: ++stats_.jobs_failed; break;
    case BatchJobState::kKilled: ++stats_.jobs_killed; break;
    case BatchJobState::kCancelled: ++stats_.jobs_cancelled; break;
    default: break;
  }

  job.result.stdout_text =
      (state == BatchJobState::kCompleted && exit_code == job.spec.exit_code)
          ? job.spec.stdout_text
          : "";
  job.result.stderr_text = job.spec.stderr_text;
  if (!stderr_extra.empty()) {
    if (!job.result.stderr_text.empty()) job.result.stderr_text += "\n";
    job.result.stderr_text += stderr_extra;
  }

  UNICORE_DEBUG("batch/" + config_.vsite)
      << "job " << job.id << " (" << job.request.job_name << ") "
      << batch_job_state_name(state) << " exit=" << exit_code;

  if (job.on_complete) {
    auto handler = std::move(job.on_complete);
    job.on_complete = nullptr;
    handler(job.id, job.result);
  }
  engine_.after(0, [this] { schedule_pass(); });
}

Status BatchSubsystem::reattach(BatchJobId id, CompletionHandler on_complete) {
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  Job& job = *it->second;
  if (job.state == BatchJobState::kQueued ||
      job.state == BatchJobState::kRunning) {
    job.on_complete = std::move(on_complete);
    return Status::ok_status();
  }
  // Already terminal: deliver the stored result asynchronously so the
  // caller sees the same once-at-completion contract as submit().
  engine_.after(0, [this, id, handler = std::move(on_complete)] {
    auto jt = jobs_.find(id);
    if (jt != jobs_.end() && handler) handler(id, jt->second->result);
  });
  return Status::ok_status();
}

Status BatchSubsystem::cancel(BatchJobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  Job& job = *it->second;
  switch (job.state) {
    case BatchJobState::kQueued: {
      std::erase(queue_, &job);
      job.result.started_at = engine_.now();
      job.state = BatchJobState::kCancelled;
      job.result.state = BatchJobState::kCancelled;
      job.result.exit_code = 130;
      job.result.finished_at = engine_.now();
      ++stats_.jobs_cancelled;
      count_outcome(BatchJobState::kCancelled);
      update_gauges();
      if (job.on_complete) {
        auto handler = std::move(job.on_complete);
        job.on_complete = nullptr;
        handler(id, job.result);
      }
      // Jobs the cancelled one blocked may fit now.
      engine_.after(0, [this] { schedule_pass(); });
      return Status::ok_status();
    }
    case BatchJobState::kRunning:
      finish_job(job, BatchJobState::kCancelled, 130, "job cancelled");
      return Status::ok_status();
    default:
      return util::make_error(ErrorCode::kFailedPrecondition,
                              "batch job already finished");
  }
}

Result<BatchJobState> BatchSubsystem::state(BatchJobId id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  return it->second->state;
}

Result<BatchResult> BatchSubsystem::result(BatchJobId id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    return util::make_error(ErrorCode::kNotFound,
                            "no such batch job: " + std::to_string(id));
  return it->second->result;
}

double BatchSubsystem::backlog_node_seconds() const {
  double backlog = 0;
  for (const Job* job : queue_)
    backlog += static_cast<double>(job->nodes_needed) *
               static_cast<double>(job->request.wallclock_seconds);
  for (const Job* job : running_) {
    sim::Time remaining = job->limit_deadline - engine_.now();
    if (remaining > 0)
      backlog += static_cast<double>(job->nodes_needed) *
                 sim::to_seconds(remaining);
  }
  return backlog;
}

double BatchSubsystem::utilization() const {
  double elapsed = sim::to_seconds(engine_.now());
  if (elapsed <= 0) return 0;
  return stats_.busy_node_seconds /
         (elapsed * static_cast<double>(config_.nodes));
}

void BatchSubsystem::set_metrics(obs::MetricsRegistry* registry,
                                 const std::string& usite) {
  metrics_ = registry;
  outcome_counters_.fill(nullptr);
  if (!metrics_) {
    submitted_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    run_time_hist_ = nullptr;
    queued_gauge_ = nullptr;
    running_gauge_ = nullptr;
    free_nodes_gauge_ = nullptr;
    return;
  }
  metric_labels_ = {{"usite", usite}, {"vsite", config_.vsite}};
  submitted_counter_ =
      &metrics_->counter("unicore_batch_jobs_submitted_total", metric_labels_);
  queue_wait_hist_ = &metrics_->histogram("unicore_batch_queue_wait_seconds",
                                          metric_labels_,
                                          obs::duration_buckets());
  run_time_hist_ = &metrics_->histogram("unicore_batch_run_seconds",
                                        metric_labels_,
                                        obs::duration_buckets());
  queued_gauge_ = &metrics_->gauge("unicore_batch_queued_jobs", metric_labels_);
  running_gauge_ =
      &metrics_->gauge("unicore_batch_running_jobs", metric_labels_);
  free_nodes_gauge_ =
      &metrics_->gauge("unicore_batch_free_nodes", metric_labels_);
  update_gauges();
}

void BatchSubsystem::update_gauges() {
  if (!metrics_) return;
  queued_gauge_->set(static_cast<double>(queue_.size()));
  running_gauge_->set(static_cast<double>(running_.size()));
  free_nodes_gauge_->set(static_cast<double>(free_nodes_));
}

void BatchSubsystem::count_outcome(BatchJobState state) {
  if (!metrics_) return;
  obs::Counter*& counter = outcome_counters_[static_cast<std::size_t>(state)];
  if (counter == nullptr) {
    obs::Labels labels = metric_labels_;
    labels.emplace_back("outcome", batch_job_state_name(state));
    counter = &metrics_->counter("unicore_batch_jobs_total", std::move(labels));
  }
  counter->increment();
}

}  // namespace unicore::batch
