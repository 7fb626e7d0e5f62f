// data_staging: payload-heavy staging on the German testbed.
//
// Three clients at FZ-Juelich, starting 25 virtual seconds apart so
// their transfers rarely collide, each run two jobs in a closed loop:
// consign, push the job's input tree as a bundle, wait for the job,
// fetch its outputs. A tree mixes many 16 KiB files, one file just
// under the 4 MiB rail threshold and one just over it. Each job's
// "produce" task writes outputs of the same three sizes; a sub-job at
// LRZ depends on all of them, so they cross an inter-site stage edge
// whole, inside the forwarded consignment. The client fetches them back:
// the small ones as one bundle, the two large ones one file at a time
// through the chunked single-file pull. A client's second job restages
// its first job's input content under new names, so cold pushes, warm
// (deduplicated) restages and fetches run side by side. The batch tier
// is nearly idle.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "client/client.h"
#include "client/job_builder.h"
#include "crypto/sha256.h"
#include "grid/grid.h"
#include "grid/testbed.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kUsite = "FZ-Juelich";
constexpr const char* kVsite = "T3E-600";
constexpr const char* kRemoteUsite = "LRZ";
constexpr const char* kRemoteVsite = "VPP700";
constexpr std::size_t kClients = 3;
constexpr std::size_t kJobsPerClient = 2;
constexpr std::size_t kSmallFiles = 32;
constexpr std::uint64_t kSmallBytes = 16 << 10;
constexpr std::uint64_t kRail = 4 << 20;
constexpr std::uint64_t kUnderRail = kRail - (64 << 10);
constexpr std::uint64_t kOverRail = kRail + (64 << 10);
constexpr sim::Time kPollInterval = sim::sec(20);
/// Clients start this far apart, so their transfers rarely collide.
constexpr sim::Time kClientStagger = sim::sec(25);

using Tree = std::vector<std::pair<std::string, uspace::FileBlob>>;

/// One input dataset: file contents shared by a cold push and its warm
/// restage.
struct Dataset {
  std::vector<std::shared_ptr<const util::Bytes>> files;
  std::vector<crypto::Digest> digests;  // SHA-256 of each file
};

std::vector<std::string> small_output_names() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kSmallFiles / 2; ++i)
    names.push_back("out_s" + std::to_string(i));
  return names;
}

ajo::AbstractJobObject make_job(const crypto::DistinguishedName& user,
                                std::size_t sequence, double produce_seconds) {
  std::vector<std::string> outputs = small_output_names();
  client::TaskOptions produce;
  produce.resources = {4, 3'600, 256, 0, 64};
  produce.behavior.nominal_seconds = produce_seconds;
  for (const std::string& name : outputs)
    produce.behavior.output_files.emplace_back(name, kSmallBytes);
  produce.behavior.output_files.emplace_back("out_mid", kUnderRail);
  produce.behavior.output_files.emplace_back("out_big", kOverRail);
  outputs.push_back("out_mid");
  outputs.push_back("out_big");

  client::JobBuilder archive("archive-" + std::to_string(sequence));
  archive.destination(kRemoteUsite, kRemoteVsite).account_group("project-a");
  client::TaskOptions archive_options;
  archive_options.resources = {1, 600, 64, 0, 16};
  archive_options.behavior.nominal_seconds = 5;
  archive.script("archive", "./archive out_*\n", archive_options);

  client::JobBuilder root("stage-" + std::to_string(sequence));
  root.destination(kUsite, kVsite).account_group("project-a");
  auto task = root.script("produce", "./solver in*/\n", produce);
  auto remote = root.add_subjob(archive.build(user).value());
  root.after(task, remote, outputs);
  return root.build(user).value();
}

struct Job {
  std::size_t sequence = 0;
  std::size_t client = 0;
  std::size_t dataset = 0;
  bool warm = false;
  ajo::JobToken token = 0;
  sim::Time submitted_at = 0;
  std::vector<std::pair<std::string, crypto::Digest>> fetched;
  bool done = false;
};

struct Client {
  std::unique_ptr<client::UnicoreClient> client;
  crypto::Credential user;
  std::size_t next_job = 0;
};

struct Loop {
  grid::Grid& grid;
  Tracer& tracer;
  Recording* recording;
  RoundResult& round;
  std::vector<Dataset> datasets;
  std::vector<double> produce_seconds;
  std::vector<Client> clients;
  std::vector<Job> jobs;
};

sim::Time now(Loop& loop) { return loop.grid.engine().now(); }

void next_job(Loop& loop, std::size_t c);

/// Fetches the two large outputs one file at a time, from `index` on.
void fetch_large(Loop& loop, Job& job, std::size_t index) {
  static const char* const kLarge[] = {"out_mid", "out_big"};
  if (index == 2) {
    job.done = true;
    ++loop.round.jobs_ok;
    next_job(loop, job.client);
    return;
  }
  sim::Time sent = now(loop);
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.fetch_output", job.sequence + 1);
  loop.clients[job.client].client->fetch_output(
      job.token, kLarge[index],
      [&loop, &job, index, sent](util::Result<uspace::FileBlob> blob) {
        if (!blob) {
          loop.round.fail("fetch_output " + std::string(kLarge[index]));
          next_job(loop, job.client);
          return;
        }
        reply(loop.round, sent, now(loop), /*staging=*/true);
        loop.round.payload_bytes += blob.value().size();
        job.fetched.emplace_back(kLarge[index], blob.value().checksum());
        fetch_large(loop, job, index + 1);
      });
}

void fetch_outputs(Loop& loop, Job& job) {
  std::vector<std::string> names = small_output_names();
  sim::Time sent = now(loop);
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.fetch_tree", job.sequence + 1);
  loop.clients[job.client].client->fetch_tree(
      job.token, names,
      [&loop, &job, names,
       sent](util::Result<std::vector<uspace::FileBlob>> blobs) {
        if (!blobs || blobs.value().size() != names.size()) {
          loop.round.fail("fetch_tree of job " + std::to_string(job.token));
          next_job(loop, job.client);
          return;
        }
        reply(loop.round, sent, now(loop), /*staging=*/true);
        for (std::size_t i = 0; i < names.size(); ++i) {
          loop.round.payload_bytes += blobs.value()[i].size();
          job.fetched.emplace_back(names[i], blobs.value()[i].checksum());
        }
        fetch_large(loop, job, 0);
      });
}

void await_job(Loop& loop, Job& job) {
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.wait_for_completion",
                     job.sequence + 1);
  loop.clients[job.client].client->wait_for_completion(
      job.token, kPollInterval,
      [&loop, &job](util::Result<ajo::Outcome> outcome) {
        if (!outcome ||
            outcome.value().status != ajo::ActionStatus::kSuccessful) {
          loop.round.fail("job " + std::to_string(job.token) +
                          " did not succeed");
          next_job(loop, job.client);
          return;
        }
        // Counted as an operation, not as a reply: it is a series of polls.
        fetch_outputs(loop, job);
      });
}

void push_inputs(Loop& loop, Job& job) {
  const Dataset& dataset = loop.datasets[job.dataset];
  std::string prefix = "in" + std::to_string(job.sequence) + "_";
  Tree tree;
  for (std::size_t i = 0; i < dataset.files.size(); ++i)
    tree.emplace_back(prefix + std::to_string(i),
                      uspace::FileBlob::from_bytes(*dataset.files[i]));
  sim::Time sent = now(loop);
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.push_tree", job.sequence + 1);
  loop.clients[job.client].client->push_tree(
      job.token, std::move(tree),
      [&loop, &job, sent](util::Result<xfer::BundleStats> stats) {
        if (!stats) {
          loop.round.fail("push_tree of job " + std::to_string(job.token) +
                          ": " + stats.error().to_string());
          next_job(loop, job.client);
          return;
        }
        reply(loop.round, sent, now(loop), /*staging=*/true);
        const Dataset& dataset = loop.datasets[job.dataset];
        for (const auto& file : dataset.files)
          loop.round.payload_bytes += file->size();
        loop.round.check(stats.value().files == dataset.files.size(),
                         "push_tree staged a partial tree");
        if (job.warm)
          loop.round.check(stats.value().chunks == 0,
                           "warm restage of job " + std::to_string(job.token) +
                               " moved " +
                               std::to_string(stats.value().chunks) +
                               " payload chunks");
        await_job(loop, job);
      });
}

void next_job(Loop& loop, std::size_t c) {
  Client& client = loop.clients[c];
  if (client.next_job >= kJobsPerClient) return;
  std::size_t k = client.next_job++;
  Job& job = loop.jobs[c * kJobsPerClient + k];
  ajo::AbstractJobObject ajo = make_job(client.user.certificate.subject,
                                        job.sequence,
                                        loop.produce_seconds[job.sequence]);
  job.submitted_at = now(loop);
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.submit", job.sequence + 1);
  client.client->submit(ajo, [&loop, &job](util::Result<ajo::JobToken> token) {
    if (!token) {
      loop.round.fail("submit: " + token.error().to_string());
      next_job(loop, job.client);
      return;
    }
    reply(loop.round, job.submitted_at, now(loop));
    job.token = token.value();
    push_inputs(loop, job);
  });
}

Dataset make_dataset(util::Rng& rng) {
  Dataset dataset;
  std::vector<std::uint64_t> sizes(kSmallFiles, kSmallBytes);
  sizes.push_back(kUnderRail);
  sizes.push_back(kOverRail);
  for (std::uint64_t size : sizes) {
    util::Bytes bytes(size);
    for (std::size_t i = 0; i + 8 <= bytes.size(); i += 8) {
      std::uint64_t word = rng.next();
      for (int b = 0; b < 8; ++b)
        bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    dataset.digests.push_back(crypto::sha256(util::ByteView(bytes)));
    dataset.files.push_back(
        std::make_shared<const util::Bytes>(std::move(bytes)));
  }
  return dataset;
}

}  // namespace

RoundResult run_data_staging(std::uint64_t seed, Tracer& tracer,
                             Recording* recording) {
  RoundResult round;
  // The datasets and their reference digests are the benchmark's own
  // inputs, drawn before the set-up clock starts. Cold datasets come from
  // the seed; every second job restages the previous job's dataset under
  // new names.
  util::Rng inputs(seed ^ 0x5bd1e9955bd1e995ULL);
  std::vector<Dataset> datasets;
  std::vector<Job> jobs;
  std::vector<double> produce_seconds;
  std::size_t sequence = 0;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t k = 0; k < kJobsPerClient; ++k) {
      Job job;
      job.sequence = sequence++;
      job.client = c;
      job.warm = k % 2 == 1;
      if (!job.warm) datasets.push_back(make_dataset(inputs));
      job.dataset = datasets.size() - 1;
      jobs.push_back(std::move(job));
      produce_seconds.push_back(60 + 10 * inputs.uniform());
    }

  double setup_start = cpu_now();
  grid::Grid grid(seed);
  grid::make_german_testbed(grid);
  crypto::TrustStore trust = grid.make_trust_store();
  Loop loop{grid,
            tracer,
            recording,
            round,
            std::move(datasets),
            std::move(produce_seconds),
            {},
            std::move(jobs)};
  server::UsiteServer* home = grid.site(kUsite);
  for (std::size_t c = 0; c < kClients; ++c) {
    std::string id = std::to_string(c);
    Client client;
    client.user = grid::add_testbed_user(grid, "Stage User " + id,
                                         "stage" + id + "@example.de");
    client::UnicoreClient::Config config;
    config.host = "ws" + id + ".fz-juelich.de";
    config.user = client.user;
    config.trust = &trust;
    net::LinkProfile link;
    link.latency = sim::msec(1) + static_cast<sim::Time>(inputs.below(100));
    link.bandwidth_bytes_per_sec = 100e6 * (1 + 0.02 * inputs.uniform());
    grid.network().set_link(config.host, home->address().host, link);
    client.client = std::make_unique<client::UnicoreClient>(
        grid.engine(), grid.network(), grid.rng(), std::move(config));
    loop.clients.push_back(std::move(client));
  }
  // Connect every client before the timed phase: this workload measures
  // staging, not handshakes.
  std::size_t connected = 0;
  for (Client& client : loop.clients)
    client.client->connect(home->address(), [&connected](util::Status s) {
      connected += s.ok() ? 1 : 0;
    });
  grid.engine().run();
  round.setup_s = cpu_now() - setup_start;
  round.check(connected == kClients, "client connect failed");

  sim::Engine& engine = grid.engine();
  Counters before = read_counters(grid);
  std::uint64_t events_before = engine.events_fired();
  sim::Time virtual_start = engine.now();
  double timed_start = cpu_now();
  for (std::size_t c = 0; c < kClients; ++c)
    engine.after(static_cast<sim::Time>(c) * kClientStagger,
                 [&loop, c] { next_job(loop, c); });
  {
    Tracer::Scope span(tracer, "sim.run");
    engine.run();
  }
  round.timed_s = cpu_now() - timed_start;
  std::uint64_t events = engine.events_fired() - events_before;
  round.virt_s = sim::to_seconds(engine.now() - virtual_start);

  // Output checks: inputs as pushed, outputs as produced at FZJ, and the
  // forwarded copies at LRZ equal to them.
  njs::Njs& njs = home->njs();
  njs::Njs& remote = grid.site(kRemoteUsite)->njs();
  for (Job& job : loop.jobs) {
    round.check(job.done, "job " + std::to_string(job.sequence) +
                              " did not finish its staging loop");
    if (!job.done) continue;
    const Dataset& dataset = loop.datasets[job.dataset];
    std::string prefix = "in" + std::to_string(job.sequence) + "_";
    for (std::size_t i = 0; i < dataset.files.size(); ++i) {
      auto staged =
          njs.fetch_file_shared(job.token, prefix + std::to_string(i));
      round.check(staged && staged.value()->checksum() == dataset.digests[i],
                  "staged input differs from what was pushed");
    }
    std::vector<njs::JobSummary> forwarded =
        remote.list(loop.clients[job.client].user.certificate.subject);
    ajo::JobToken remote_token = 0;
    for (const njs::JobSummary& summary : forwarded)
      if (summary.name == "archive-" + std::to_string(job.sequence))
        remote_token = summary.token;
    round.check(remote_token != 0, "no forwarded sub-job at LRZ");
    for (const auto& [name, digest] : job.fetched) {
      auto produced = njs.fetch_file_shared(job.token, name);
      round.check(produced && produced.value()->checksum() == digest,
                  "fetched " + name + " differs from what was produced");
      auto copy = remote.fetch_file_shared(remote_token, name);
      round.check(copy && copy.value()->checksum() == digest,
                  "forwarded " + name + " differs at LRZ");
    }
    auto outcome = njs.query(job.token, ajo::QueryService::Detail::kTasks);
    if (!outcome) continue;
    round.turnaround_vs.push_back(
        sim::to_seconds(latest_finish(outcome.value()) - job.submitted_at));
    ajo::AbstractJobObject ajo =
        make_job(loop.clients[job.client].user.certificate.subject,
                 job.sequence, loop.produce_seconds[job.sequence]);
    std::size_t waits_before = round.queue_wait_vs.size();
    record_batch_tasks(grid, ajo, outcome.value(), recording,
                       round.queue_wait_vs);
    round.check(round.queue_wait_vs.size() - waits_before ==
                    count_batch_tasks(ajo),
                "job " + std::to_string(job.token) +
                    " has a task that never started");
    if (recording != nullptr)
      recording->consigns.push_back({std::move(ajo), job.client});
  }
  for (const std::string& name : grid.sites())
    if (const auto& chunk_store = grid.site(name)->chunk_store()) {
      store::StoreStats stats = chunk_store->stats();
      round.check(stats.physical_bytes <= stats.logical_bytes,
                  "store at " + name + " holds more than its logical bytes");
    }
  finish_counts(grid, before, events, round);

  record_site(grid, *home, events, recording);
  if (recording != nullptr) {
    for (Client& client : loop.clients) {
      recording->handshakes.push_back(recording->users.size());
      recording->users.push_back(client.user);
    }
    for (const Job& job : loop.jobs)
      for (const auto& file : loop.datasets[job.dataset].files)
        recording->payloads.push_back({file, !job.warm});
    // Outputs are synthetic (identity-only) files: each moves once over
    // the stage edge and once back to the client.
    std::uint64_t output_chunks =
        kSmallFiles / 2 + (kUnderRail + kOverRail + (1 << 20) - 1) / (1 << 20);
    recording->synthetic_chunks = 2 * output_chunks * loop.jobs.size();
  }
  return round;
}

}  // namespace perfbench
