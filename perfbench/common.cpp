// Helpers the workloads share: percentiles, span output, the layer
// counters read from the grid, and the batch-task recording.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "store/chunk_store.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %lld, \"trace_id\": %llu}\n",
                  i, span.name.c_str(), span.start, span.end,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.trace_id));
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

/// Upper bound of the histogram bucket holding quantile `q` of every
/// series called `name` (bucket counts summed across label sets).
double histogram_quantile(const obs::MetricsSnapshot& snapshot,
                          std::string_view name, double q) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  for (const obs::MetricPoint& point : snapshot.points) {
    if (point.name != name || point.kind != obs::MetricKind::kHistogram)
      continue;
    if (bounds.empty()) {
      bounds = point.bounds;
      buckets.assign(point.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < buckets.size() && i < point.buckets.size();
         ++i)
      buckets[i] += point.buckets[i];
    count += point.count;
  }
  if (count == 0) return 0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target) return i < bounds.size() ? bounds[i] : bounds.back();
  }
  return bounds.empty() ? 0 : bounds.back();
}

double labelled(const obs::MetricsSnapshot& snapshot, std::string_view name,
                std::string_view key, std::string_view value) {
  double total = 0;
  for (const obs::MetricPoint& point : snapshot.points) {
    if (point.name != name) continue;
    for (const auto& [k, v] : point.labels)
      if (k == key && v == value) total += point.value;
  }
  return total;
}

}  // namespace

Counters read_counters(grid::Grid& grid) {
  obs::MetricsSnapshot snap = grid.metrics()->snapshot();
  Counters c;
  c["auth_hits"] =
      labelled(snap, "unicore_gateway_auth_cache_total", "result", "hit");
  c["auth_misses"] =
      labelled(snap, "unicore_gateway_auth_cache_total", "result", "miss");
  c["auth_calls"] = snap.total("unicore_gateway_auth_total");
  c["handshakes"] =
      labelled(snap, "unicore_channel_handshakes_total", "result", "ok");
  c["resumptions"] =
      labelled(snap, "unicore_channel_resumptions_total", "result", "ok");
  c["consigns"] = snap.total("unicore_njs_jobs_consigned_total");
  c["batch_retries"] = snap.total("unicore_njs_batch_retries_total");
  c["messages_sent"] = snap.total("unicore_net_messages_sent_total");
  c["bytes_sent"] = snap.total("unicore_net_bytes_sent_total");
  c["dropped"] = snap.total("unicore_net_messages_dropped_total");
  c["server_requests"] = snap.total("unicore_server_requests_total");
  c["retransmits"] = snap.total("unicore_xfer_retransmits_total");
  c["opens"] = snap.total("unicore_xfer_opens_total");
  c["rtts_saved"] = snap.total("unicore_xfer_rtts_saved_total");
  for (const std::string& name : grid.sites()) {
    server::UsiteServer* site = grid.site(name);
    for (std::size_t r = 0; r < site->config().njs_replicas; ++r) {
      xfer::Service& service = site->xfer_service_replica(r);
      c["chunks_applied"] += static_cast<double>(service.chunks_applied());
      c["chunks_deduped"] += static_cast<double>(service.chunks_deduped());
    }
    njs::Njs& njs = site->njs();
    for (const std::string& vsite : njs.vsites()) {
      const batch::SubsystemStats& s = njs.subsystem(vsite)->stats();
      c["batch_submitted"] += static_cast<double>(s.jobs_submitted);
      c["batch_backfilled"] += static_cast<double>(s.backfilled_starts);
    }
    if (const auto& chunk_store = site->chunk_store()) {
      store::StoreStats s = chunk_store->stats();
      c["store_inserted"] +=
          static_cast<double>(s.chunks + s.reclaimed_chunks);
      c["store_physical"] += static_cast<double>(s.physical_bytes);
      c["store_logical"] += static_cast<double>(s.logical_bytes);
      c["store_dedup_hits"] += static_cast<double>(s.dedup_hits);
      c["store_spills"] += static_cast<double>(s.spills);
    }
  }
  c["dispatch_wait_p50"] = histogram_quantile(
      snap, "unicore_njs_dispatch_latency_seconds", 0.50);
  return c;
}

namespace {

void collect_counts(grid::Grid& grid, const Counters& before, double ops,
                    RoundResult& round) {
  if (ops <= 0) ops = 1;
  Counters after = read_counters(grid);
  auto delta = [&](const char* name) {
    auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };
  auto ratio = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  auto& c = round.counts;

  double submitted = delta("batch_submitted");
  c["batch.jobs_submitted"] = submitted;
  c["batch.backfill_ratio"] = ratio(delta("batch_backfilled"), submitted);
  double utilization_sum = 0, vsites = 0;
  for (const std::string& name : grid.sites()) {
    njs::Njs& njs = grid.site(name)->njs();
    for (const std::string& vsite : njs.vsites()) {
      batch::BatchSubsystem* subsystem = njs.subsystem(vsite);
      if (subsystem->stats().jobs_submitted == 0) continue;
      utilization_sum += subsystem->utilization();
      vsites += 1;
    }
  }
  c["batch.utilization"] = ratio(utilization_sum, vsites);
  c["batch.queue_wait_vs_p50"] = percentile(round.queue_wait_vs, 0.50);
  c["batch.queue_wait_vs_p99"] = percentile(round.queue_wait_vs, 0.99);

  double hits = delta("auth_hits");
  c["gateway.auth_calls"] = delta("auth_calls");
  c["gateway.auth_cache_hit_ratio"] =
      ratio(hits, hits + delta("auth_misses"));
  // Both ends of a channel count its handshake in the grid's one
  // registry; only the server end counts a resumption.
  double resumed = delta("resumptions");
  c["net.handshakes_full"] = delta("handshakes") / 2 - resumed;
  c["net.handshakes_resumed"] = resumed;

  c["njs.consigns"] = delta("consigns");
  c["njs.batch_retries"] = delta("batch_retries");
  c["njs.dispatch_wait_vms_p50"] = 1e3 * after["dispatch_wait_p50"];

  c["net.messages_sent"] = delta("messages_sent");
  c["net.bytes_sent"] = delta("bytes_sent");
  c["net.messages_per_op"] = delta("messages_sent") / ops;
  c["net.bytes_per_op"] = delta("bytes_sent") / ops;
  c["net.dropped"] = delta("dropped");
  c["server.requests"] = delta("server_requests");
  c["server.requests_per_op"] = delta("server_requests") / ops;

  c["xfer.payload_chunks"] = delta("chunks_applied");
  c["xfer.dedup_chunks"] = delta("chunks_deduped");
  c["xfer.retransmits"] = delta("retransmits");
  c["xfer.opens"] = delta("opens");
  c["xfer.rtts_saved"] = delta("rtts_saved");

  double dedup_hits = delta("store_dedup_hits");
  c["store.dedup_hit_ratio"] =
      ratio(dedup_hits, dedup_hits + delta("store_inserted"));
  c["store.physical_over_logical"] =
      ratio(after["store_physical"], after["store_logical"]);
  c["store.spills"] = delta("store_spills");
}

}  // namespace

void reply(RoundResult& round, sim::Time sent, sim::Time now, bool staging) {
  double seconds = sim::to_seconds(now - sent);
  ++round.requests;
  round.reply_vms.push_back(seconds * 1e3);
  if (staging) round.stage_vs += seconds;
}

void finish_counts(grid::Grid& grid, const Counters& before,
                   std::uint64_t events, RoundResult& round) {
  net::Network& network = grid.network();
  round.check(network.messages_sent() ==
                  network.messages_delivered() + network.messages_dropped(),
              "network sent != delivered + dropped");
  auto ops = static_cast<double>(round.requests);
  collect_counts(grid, before, ops, round);
  round.counts["sim.events_per_op"] =
      static_cast<double>(events) / std::max(ops, 1.0);
}

void record_site(grid::Grid& grid, server::UsiteServer& server,
                 std::uint64_t events, Recording* recording) {
  if (recording == nullptr) return;
  recording->usite = server.config().name;
  gateway::Gateway& gateway = server.gateway();
  recording->trust = gateway.shared_trust_store();
  recording->uudb = gateway.shared_uudb();
  recording->now_epoch = grid.now_epoch();
  recording->server_certificate =
      server.njs().server_credential().certificate;
  recording->engine_events = events;
}

namespace {

bool is_batch_task(ajo::ActionType type) {
  return type == ajo::ActionType::kCompileTask ||
         type == ajo::ActionType::kLinkTask ||
         type == ajo::ActionType::kUserTask ||
         type == ajo::ActionType::kExecuteScriptTask;
}

}  // namespace

sim::Time latest_finish(const ajo::Outcome& outcome) {
  sim::Time latest = outcome.finished_at;
  for (const ajo::Outcome& child : outcome.children)
    latest = std::max(latest, latest_finish(child));
  return latest;
}

std::size_t count_batch_tasks(const ajo::AbstractJobObject& job) {
  std::size_t tasks = 0;
  job.visit([&tasks](const ajo::AbstractAction& action) {
    tasks += is_batch_task(action.type()) ? 1 : 0;
  });
  return tasks;
}

void record_batch_tasks(grid::Grid& grid, const ajo::AbstractJobObject& job,
                        const ajo::Outcome& outcome, Recording* recording,
                        std::vector<double>& queue_wait_vs) {
  const batch::SystemConfig* system = nullptr;
  if (server::UsiteServer* site = grid.site(job.usite))
    if (batch::BatchSubsystem* subsystem = site->njs().subsystem(job.vsite))
      system = &subsystem->config();
  for (const auto& child : job.children()) {
    const ajo::Outcome* result = outcome.find(child->id());
    if (result == nullptr) continue;
    if (child->is_job()) {
      record_batch_tasks(grid,
                         static_cast<const ajo::AbstractJobObject&>(*child),
                         *result, recording, queue_wait_vs);
      continue;
    }
    if (!is_batch_task(child->type()) || result->started_at < 0) continue;
    queue_wait_vs.push_back(
        sim::to_seconds(result->started_at - result->submitted_at));
    if (recording != nullptr && system != nullptr)
      recording->batch_tasks.push_back(
          {*system, child->clone(), job.account_group, result->submitted_at});
  }
}

}  // namespace perfbench
