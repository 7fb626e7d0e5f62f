// The seeded benchmark program: runs one named workload for a wall-clock
// budget and prints every metric by name and unit, then one JSON line.
//
//   perfbench --workload grid_dag --seed 1 --seconds 35 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// workload and seed untraced, then once traced, then replays each
// layer's share of that round through the layer's public functions and
// prints the per-layer ledger. --spans PATH writes the traced run's
// spans as JSON lines.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args.trace = std::atoi(value);
    else if (key == "--spans") args.spans_path = value;
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

RoundFn workload_fn(const std::string& name) {
  if (name == "grid_dag") return run_grid_dag;
  if (name == "data_staging") return run_data_staging;
  if (name == "portal_sessions") return run_portal_sessions;
  return nullptr;
}

/// Everything a round reports on the virtual clock or as a count; two
/// rounds of one seed must produce the same string.
std::string virtual_fingerprint(const RoundResult& round) {
  std::ostringstream out;
  out.precision(17);
  out << round.virt_s << '|' << round.stage_vs << '|' << round.jobs_ok << '|'
      << round.requests << '|' << round.payload_bytes << '|';
  for (double v : round.reply_vms) out << v << ',';
  out << '|';
  for (double v : round.turnaround_vs) out << v << ',';
  out << '|';
  for (double v : round.queue_wait_vs) out << v << ',';
  for (const auto& [name, value] : round.counts)
    out << '|' << name << '=' << value;
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics)
    std::printf("  %-30s %16.6f %-6s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Round 0 warms allocator and caches; wall figures come from the rest.
std::size_t first_measured(const std::vector<RoundResult>& rounds) {
  return rounds.size() > 1 ? 1 : 0;
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds,
                               double rss_mb) {
  // Throughputs are the measured rounds' work over their summed timed
  // CPU. The host's speed shifts for seconds to minutes at a time, so a
  // run's rounds can mix a fast and a slow mode; the median jumps with
  // whichever mode has more rounds, the total moves with the mix.
  std::vector<double> setup;
  double timed = 0, jobs = 0, requests = 0, megabytes = 0;
  for (std::size_t i = first_measured(rounds); i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    setup.push_back(r.setup_s);
    timed += r.timed_s;
    jobs += static_cast<double>(r.jobs_ok);
    requests += static_cast<double>(r.requests);
    megabytes += static_cast<double>(r.payload_bytes) / 1e6;
  }
  const RoundResult& first = rounds.front();
  return {
      {"setup_s", median(setup), "s", "wall"},
      {"jobs_per_s", jobs / timed, "1/s", "wall"},
      {"requests_per_s", requests / timed, "1/s", "wall"},
      {"stage_MBps", megabytes / timed, "MB/s", "wall"},
      {"stage_virtual_MBps",
       static_cast<double>(first.payload_bytes) / 1e6 / first.stage_vs, "MB/s",
       "virt"},
      {"reply_vms_p50", percentile(first.reply_vms, 0.50), "ms", "virt"},
      {"reply_vms_p99", percentile(first.reply_vms, 0.99), "ms", "virt"},
      {"turnaround_vs_p50", percentile(first.turnaround_vs, 0.50), "s",
       "virt"},
      {"turnaround_vs_p99", percentile(first.turnaround_vs, 0.99), "s",
       "virt"},
      {"peak_rss_mb", rss_mb, "MB", "wall"},
  };
}

std::vector<Metric> per_layer(const RoundResult& untraced, double wall_s,
                              const RoundResult& traced,
                              const std::map<std::string, double>& busy,
                              const Tracer& tracer) {
  auto count = [&untraced](const char* name) {
    auto it = untraced.counts.find(name);
    return it == untraced.counts.end() ? 0.0 : it->second;
  };
  auto spent = [&busy](const char* name) {
    auto it = busy.find(name);
    return it == busy.end() ? 0.0 : it->second;
  };
  double client = 0;
  for (const auto& span : tracer.spans())
    if (span.name.rfind("client.", 0) == 0) client += span.end - span.start;

  std::vector<Metric> m = {
      {"batch.busy_s", spent("batch.busy_s"), "s", "wall"},
      {"batch.jobs_submitted", count("batch.jobs_submitted"), "count", ""},
      {"batch.backfill_ratio", count("batch.backfill_ratio"), "ratio", ""},
      {"batch.queue_wait_vs_p50", count("batch.queue_wait_vs_p50"), "s",
       "virt"},
      {"batch.queue_wait_vs_p99", count("batch.queue_wait_vs_p99"), "s",
       "virt"},
      {"batch.utilization", count("batch.utilization"), "ratio", "virt"},
      {"gateway.busy_s", spent("gateway.busy_s"), "s", "wall"},
      {"gateway.auth_calls", count("gateway.auth_calls"), "count", ""},
      {"gateway.auth_cache_hit_ratio", count("gateway.auth_cache_hit_ratio"),
       "ratio", ""},
      {"crypto.pk_busy_s", spent("crypto.pk_busy_s"), "s", "wall"},
      {"net.handshakes_full", count("net.handshakes_full"), "count", ""},
      {"net.handshakes_resumed", count("net.handshakes_resumed"), "count",
       ""},
      {"ajo.codec_busy_s", spent("ajo.codec_busy_s"), "s", "wall"},
      {"njs.incarnation_busy_s", spent("njs.incarnation_busy_s"), "s",
       "wall"},
      {"njs.consigns", count("njs.consigns"), "count", ""},
      {"njs.batch_retries", count("njs.batch_retries"), "count", ""},
      {"njs.dispatch_wait_vms_p50", count("njs.dispatch_wait_vms_p50"), "ms",
       "virt"},
      {"net.record_busy_s", spent("net.record_busy_s"), "s", "wall"},
      {"net.messages_per_op", count("net.messages_per_op"), "count", ""},
      {"net.bytes_per_op", count("net.bytes_per_op"), "B", ""},
      {"net.dropped", count("net.dropped"), "count", ""},
      {"server.requests_per_op", count("server.requests_per_op"), "count",
       ""},
      {"client.busy_s", client, "s", "wall"},
      {"xfer.codec_busy_s", spent("xfer.codec_busy_s"), "s", "wall"},
      {"xfer.payload_chunks", count("xfer.payload_chunks"), "count", ""},
      {"xfer.dedup_chunks", count("xfer.dedup_chunks"), "count", ""},
      {"xfer.retransmits", count("xfer.retransmits"), "count", ""},
      {"xfer.opens", count("xfer.opens"), "count", ""},
      {"xfer.rtts_saved", count("xfer.rtts_saved"), "count", ""},
      {"store.intern_busy_s", spent("store.intern_busy_s"), "s", "wall"},
      {"store.dedup_hit_ratio", count("store.dedup_hit_ratio"), "ratio", ""},
      {"store.physical_over_logical", count("store.physical_over_logical"),
       "ratio", ""},
      {"store.spills", count("store.spills"), "count", ""},
      {"crypto.sha_busy_s", spent("crypto.sha_busy_s"), "s", "wall"},
      {"sim.busy_s", spent("sim.busy_s"), "s", "wall"},
      {"sim.events_per_op", count("sim.events_per_op"), "count", ""},
  };
  double substrate = spent("batch.busy_s") + spent("sim.busy_s");
  double middleware = client;
  for (const char* layer :
       {"gateway.busy_s", "crypto.pk_busy_s", "ajo.codec_busy_s",
        "njs.incarnation_busy_s", "net.record_busy_s", "xfer.codec_busy_s",
        "store.intern_busy_s", "crypto.sha_busy_s"})
    middleware += spent(layer);
  m.push_back({"ledger.substrate_frac", substrate / wall_s, "ratio", "wall"});
  m.push_back(
      {"ledger.middleware_frac", middleware / wall_s, "ratio", "wall"});
  m.push_back({"ledger.unattributed_frac",
               1.0 - (substrate + middleware) / wall_s, "ratio", "wall"});
  m.push_back({"trace.overhead_frac", traced.timed_s / wall_s - 1.0, "ratio",
               "wall"});
  m.push_back({"gateway.cpu_us_per_msg", spent("gateway.cpu_us_per_msg"),
               "us", "wall"});
  m.push_back({"njs.cpu_us_per_consign", spent("njs.cpu_us_per_consign"),
               "us", "wall"});
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  RoundFn run = workload_fn(args.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build_type=%s compiler=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  // Untraced rounds fill the budget (half of it when a traced round and
  // the replay follow): a warm-up round, then at least three more so
  // set-up has a median.
  double budget = args.trace == 1 ? args.seconds / 2 : args.seconds;
  std::size_t min_rounds = args.trace == 1 ? 2 : 4;
  Tracer untraced_tracer;
  std::vector<RoundResult> rounds;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto absorb = [&](const RoundResult& round) {
    attempted += round.attempted;
    failed += round.failed;
    failures.insert(failures.end(), round.failures.begin(),
                    round.failures.end());
  };
  std::string fingerprint;
  double rss_mb = 0;
  double start = wall_now();
  while (rounds.size() < min_rounds || wall_now() - start < budget) {
    RoundResult round = run(args.seed, untraced_tracer, nullptr);
    absorb(round);
    std::string print = virtual_fingerprint(round);
    if (rounds.empty()) {
      fingerprint = print;
    } else if (print != fingerprint) {
      ++failed;
      failures.push_back("round " + std::to_string(rounds.size()) +
                         " differs on the virtual clock from round 0");
    }
    // Peak memory once the warm-up round and one measured round are done:
    // later rounds only add allocator noise to the high-water mark.
    if (rounds.size() <= 1) rss_mb = peak_rss_mb();
    std::printf("round %zu: setup %.3f s, timed %.3f s, %llu jobs, %llu "
                "requests, %.1f virtual s\n",
                rounds.size(), round.setup_s, round.timed_s,
                static_cast<unsigned long long>(round.jobs_ok),
                static_cast<unsigned long long>(round.requests), round.virt_s);
    rounds.push_back(std::move(round));
  }
  const RoundResult& first = rounds.front();
  std::printf("samples: %zu rounds, %zu replies, %zu turnarounds, %zu "
              "batch tasks per round\n",
              rounds.size(), first.reply_vms.size(),
              first.turnaround_vs.size(), first.queue_wait_vs.size());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(rounds, rss_mb);
  } else {
    std::vector<double> walls;
    for (std::size_t i = first_measured(rounds); i < rounds.size(); ++i)
      walls.push_back(rounds[i].timed_s);
    double wall_s = median(walls);

    Tracer tracer;
    tracer.set_enabled(true);
    Recording recording;
    RoundResult traced = run(args.seed, tracer, &recording);
    absorb(traced);
    if (virtual_fingerprint(traced) != fingerprint) {
      ++failed;
      failures.push_back("traced round differs on the virtual clock");
    }
    std::map<std::string, double> busy =
        replay_layers(recording, traced, tracer);
    metrics = per_layer(first, wall_s, traced, busy, tracer);

    // The layer with the largest share of the untraced wall time.
    const Metric* top = nullptr;
    for (const Metric& m : metrics)
      if (m.unit == "s" && m.clock == "wall" &&
          (top == nullptr || m.value > top->value))
        top = &m;
    if (top != nullptr)
      std::printf("ledger: top layer %s = %.4f s of %.4f s untraced wall "
                  "(%.1f%%)\n",
                  top->name.c_str(), top->value, wall_s,
                  100.0 * top->value / wall_s);
    std::printf("calibration: gateway.cpu_us_per_msg %.2f us (model 2000 "
                "us), njs.cpu_us_per_consign %.2f us (model 3000 us)\n",
                busy["gateway.cpu_us_per_msg"],
                busy["njs.cpu_us_per_consign"]);
    if (!args.spans_path.empty() && !tracer.write_jsonl(args.spans_path))
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_path.c_str());
  }
  for (const std::string& failure : failures)
    std::printf("FAILED: %s\n", failure.c_str());
  print_result(metrics, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}
