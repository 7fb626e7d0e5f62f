// grid_dag: the paper's submit path end to end with almost no payload.
//
// One Usite (1 gateway x 1 NJS) in front of a 16-node T3E Vsite, with
// the hand-set M/D/1 service model of the scale-out experiment (2 ms per
// gateway message, 3 ms per NJS admission). 10^4 certificate identities
// sit in the UUDB. 64 closed-loop submitters, with a 30 ms mean think
// time, each consign prepare -> analyse DAGs, 8 per identity, then
// reconnect under a fresh identity: a full handshake and an auth-cache
// miss. Each DAG also carries a small
// workstation import inside the AJO (the paper's in-AJO staging path),
// so the staging metrics are defined here too. The round ends when the
// engine is idle, i.e. when every job is terminal.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "client/client.h"
#include "ajo/tasks.h"
#include "client/job_builder.h"
#include "grid/grid.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kUsite = "FZ-Juelich";
constexpr const char* kVsite = "T3E-small";
constexpr std::size_t kIdentities = 10'000;
constexpr std::size_t kSubmitters = 64;
constexpr std::size_t kJobsPerIdentity = 8;
constexpr std::size_t kJobsPerRound = 2'048;
/// Mean virtual think time between a reply and the submitter's next
/// request, so the closed loop does not lock into one fixed cycle.
constexpr double kThinkSeconds = 0.03;

struct Site {
  grid::Grid grid;
  crypto::TrustStore trust;
  server::UsiteServer* server = nullptr;
  std::vector<crypto::Credential> identities;

  explicit Site(std::uint64_t seed) : grid(seed) {
    grid::Grid::SiteSpec spec;
    spec.config.name = kUsite;
    spec.config.gateway_host = "gw.fz-juelich.de";
    spec.config.port = 4433;
    njs::Njs::VsiteConfig vsite;
    vsite.system = batch::make_cray_t3e(kVsite, 16);
    spec.vsites.push_back(std::move(vsite));
    server = &grid.add_site(std::move(spec));
    server->set_gateway_service_time(sim::msec(2));
    server->set_njs_admission_cost(sim::msec(3));

    identities.reserve(kIdentities);
    for (std::size_t i = 0; i < kIdentities; ++i) {
      std::string id = std::to_string(i);
      crypto::Credential user = grid.create_user(
          "Grid User " + id, "Bench Org", "u" + id + "@example.de");
      (void)grid.map_user(user.certificate.subject, kUsite, "uc" + id,
                          {"project-a"});
      identities.push_back(std::move(user));
    }
    trust = grid.make_trust_store();
  }
};

/// One DAG's inputs, drawn from the workload seed.
struct DagSpec {
  double prepare_seconds = 1;
  double analyse_seconds = 1;
  std::size_t input_bytes = 0;
  std::uint64_t input_seed = 0;
};

ajo::AbstractJobObject make_dag(const crypto::DistinguishedName& user,
                                std::size_t sequence, const DagSpec& spec) {
  client::JobBuilder builder("grid-dag-" + std::to_string(sequence));
  builder.destination(kUsite, kVsite).account_group("project-a");
  util::Rng bytes_rng(spec.input_seed);
  util::Bytes input(spec.input_bytes);
  for (auto& byte : input) byte = static_cast<std::uint8_t>(bytes_rng.next());
  auto import = builder.import_from_workstation("input.dat", std::move(input));
  client::TaskOptions prepare_options;
  prepare_options.resources = {1, 600, 64, 0, 16};
  prepare_options.behavior.nominal_seconds = spec.prepare_seconds;
  auto prepare = builder.script("prepare", "./prepare input.dat\n",
                                prepare_options);
  client::TaskOptions analyse_options = prepare_options;
  analyse_options.behavior.nominal_seconds = spec.analyse_seconds;
  auto analyse = builder.script("analyse", "./analyse\n", analyse_options);
  builder.after(import, prepare, {"input.dat"});
  builder.after(prepare, analyse);
  return builder.build(user).value();
}

struct Submitter {
  std::unique_ptr<client::UnicoreClient> client;
  std::size_t identity = 0;
  std::size_t jobs_on_identity = 0;
};

struct Acked {
  std::size_t sequence = 0;
  ajo::JobToken token = 0;
  std::size_t identity = 0;
  sim::Time submitted_at = 0;
  bool operator<(const Acked& other) const { return sequence < other.sequence; }
};

struct Loop {
  Site& site;
  Tracer& tracer;
  Recording* recording;
  RoundResult& round;
  std::vector<DagSpec> specs;
  /// One-way latency of each identity's workstation link, from the seed.
  std::vector<sim::Time> link_latency;
  std::size_t submitted = 0;
  std::size_t next_identity = 0;
  std::vector<Acked> acked;
  std::vector<std::size_t> used_identities;
  util::Rng think{0};
};

void pump(Loop& loop, Submitter& submitter);

void start_client(Loop& loop, Submitter& submitter) {
  if (loop.submitted >= loop.specs.size()) return;
  std::size_t id = loop.next_identity++ % loop.site.identities.size();
  submitter.identity = id;
  submitter.jobs_on_identity = 0;
  loop.used_identities.push_back(id);

  client::UnicoreClient::Config config;
  config.host = "ws" + std::to_string(id) + ".example.de";
  config.user = loop.site.identities[id];
  config.trust = &loop.site.trust;
  config.transfer_streams = 0;  // submit-only clients
  net::Address address =
      loop.site.server->route_address(config.user.certificate.subject);
  net::LinkProfile link;
  link.latency = loop.link_latency[id];
  loop.site.grid.network().set_link(config.host, address.host, link);
  Tracer::Scope span(loop.tracer, "client.connect");
  submitter.client = std::make_unique<client::UnicoreClient>(
      loop.site.grid.engine(), loop.site.grid.network(),
      loop.site.grid.rng(), std::move(config));
  ++loop.round.attempted;
  sim::Time sent = loop.site.grid.engine().now();
  submitter.client->connect(address, [&loop, &submitter,
                                      sent](util::Status status) {
    if (!status.ok()) {
      loop.round.fail("connect: " + status.error().to_string());
      return;
    }
    reply(loop.round, sent, loop.site.grid.engine().now());
    pump(loop, submitter);
  });
}

void pump(Loop& loop, Submitter& submitter) {
  if (loop.submitted >= loop.specs.size()) return;
  if (submitter.jobs_on_identity >= kJobsPerIdentity) {
    // Retire the identity one event later, outside its own callback.
    loop.site.grid.engine().after(0, [&loop, &submitter] {
      if (submitter.client) submitter.client->disconnect();
      submitter.client.reset();
      start_client(loop, submitter);
    });
    return;
  }
  std::size_t sequence = loop.submitted++;
  ++submitter.jobs_on_identity;
  const crypto::Credential& user = loop.site.identities[submitter.identity];
  ajo::AbstractJobObject job =
      make_dag(user.certificate.subject, sequence, loop.specs[sequence]);
  sim::Time sent = loop.site.grid.engine().now();
  ++loop.round.attempted;
  {
    Tracer::Scope span(loop.tracer, "client.submit", sequence + 1);
    submitter.client->submit(
        job, [&loop, &submitter, sequence, identity = submitter.identity,
              sent](util::Result<ajo::JobToken> result) {
          if (!result) {
            loop.round.fail("submit: " + result.error().to_string());
          } else {
            // The AJO carries the import, so the consign stages payload.
            reply(loop.round, sent, loop.site.grid.engine().now(),
                  /*staging=*/true);
            loop.acked.push_back({sequence, result.value(), identity, sent});
          }
          loop.site.grid.engine().after(
              sim::from_seconds(loop.think.exponential(kThinkSeconds)),
              [&loop, &submitter] { pump(loop, submitter); });
        });
  }
}

}  // namespace

RoundResult run_grid_dag(std::uint64_t seed, Tracer& tracer,
                         Recording* recording) {
  RoundResult round;
  double setup_start = cpu_now();
  Site site(seed);
  round.setup_s = cpu_now() - setup_start;

  util::Rng inputs(seed ^ 0x9e3779b97f4a7c15ULL);
  Loop loop{site, tracer, recording, round, {}, {}, 0, 0, {}, {},
            util::Rng(inputs.next())};
  loop.specs.resize(kJobsPerRound);
  for (DagSpec& spec : loop.specs) {
    spec.prepare_seconds = 0.5 + 1.5 * inputs.uniform();
    spec.analyse_seconds = 0.5 + 2.5 * inputs.uniform();
    spec.input_bytes = 256 + inputs.below(1792);
    spec.input_seed = inputs.next();
  }
  for (const DagSpec& spec : loop.specs)
    round.payload_bytes += spec.input_bytes;
  loop.link_latency.resize(kIdentities);
  for (sim::Time& latency : loop.link_latency)
    latency = sim::msec(5) + static_cast<sim::Time>(inputs.below(45'000));

  sim::Engine& engine = site.grid.engine();
  Counters before = read_counters(site.grid);
  std::uint64_t events_before = engine.events_fired();
  sim::Time virtual_start = engine.now();
  std::vector<Submitter> submitters(kSubmitters);
  double timed_start = cpu_now();
  for (Submitter& submitter : submitters) start_client(loop, submitter);
  {
    Tracer::Scope span(tracer, "sim.run");
    engine.run();
  }
  round.timed_s = cpu_now() - timed_start;
  std::uint64_t events = engine.events_fired() - events_before;
  round.virt_s = sim::to_seconds(engine.now() - virtual_start);

  // Output checks, outside the timed phase.
  njs::Njs& njs = site.server->njs();
  round.check(loop.acked.size() == loop.specs.size(),
              "acked " + std::to_string(loop.acked.size()) + " of " +
                  std::to_string(loop.specs.size()) + " DAGs");
  std::sort(loop.acked.begin(), loop.acked.end());
  std::uint64_t tasks = 0;
  for (const Acked& acked : loop.acked) {
    ajo::AbstractJobObject job =
        make_dag(site.identities[acked.identity].certificate.subject,
                 acked.sequence, loop.specs[acked.sequence]);
    auto outcome = njs.query(acked.token, ajo::QueryService::Detail::kTasks);
    if (!outcome || outcome.value().status != ajo::ActionStatus::kSuccessful) {
      round.check(false,
                  "job " + std::to_string(acked.token) + " not successful");
      continue;
    }
    const ajo::Outcome& root = outcome.value();
    ++round.jobs_ok;
    round.turnaround_vs.push_back(
        sim::to_seconds(latest_finish(root) - acked.submitted_at));
    std::size_t waits_before = round.queue_wait_vs.size();
    record_batch_tasks(site.grid, job, root, recording, round.queue_wait_vs);
    std::size_t job_tasks = round.queue_wait_vs.size() - waits_before;
    round.check(job_tasks == count_batch_tasks(job),
                "job " + std::to_string(acked.token) +
                    " has a task that never started");
    tasks += job_tasks;
    if (recording != nullptr)
      recording->consigns.push_back({std::move(job), acked.identity});
  }
  const batch::SubsystemStats& batch = njs.subsystem(kVsite)->stats();
  round.check(batch.jobs_submitted == tasks,
              "batch submissions " + std::to_string(batch.jobs_submitted) +
                  " != tasks " + std::to_string(tasks));
  finish_counts(site.grid, before, events, round);
  // Every connect is a full handshake under a fresh identity.
  round.check(round.counts["net.handshakes_full"] ==
                      static_cast<double>(loop.used_identities.size()) &&
                  round.counts["net.handshakes_resumed"] == 0,
              "full handshakes " +
                  std::to_string(round.counts["net.handshakes_full"]) +
                  " != connects " +
                  std::to_string(loop.used_identities.size()));

  record_site(site.grid, *site.server, events, recording);
  if (recording != nullptr) {
    // Users in first-use order; consigns hold identity numbers, which
    // become positions in the recording's user list.
    std::map<std::size_t, std::size_t> position;
    for (std::size_t id : loop.used_identities) {
      if (position.count(id) == 0) {
        position[id] = recording->users.size();
        recording->users.push_back(site.identities[id]);
      }
      recording->handshakes.push_back(position[id]);
    }
    for (auto& consign : recording->consigns)
      consign.user = position[consign.user];
    for (const auto& consign : recording->consigns)
      for (const auto& child : consign.job.children())
        if (child->type() == ajo::ActionType::kImportTask)
          recording->payloads.push_back(
              {std::make_shared<const util::Bytes>(
                   static_cast<const ajo::ImportTask&>(*child).inline_content),
               true});
  }
  return round;
}

}  // namespace perfbench
