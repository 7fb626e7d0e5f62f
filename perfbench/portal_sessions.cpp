// portal_sessions: the gateway, server and NJS layers the other way
// round from grid_dag.
//
// One Usite with 2 gateway x 2 NJS replicas and 10^3 users. Set-up
// gives every user a bearer-token session (one certificate handshake
// each). In the timed phase every user runs a closed loop of requests,
// with a 1 s mean think time, that ride its token over a pooled portal
// channel: one channel per gateway replica, each user routed to the
// replica the consistent-hash ring assigns. Most requests are small
// reads (query, list_storages, storage_files); about one in ten is a
// one_run-style submit of a small step DAG with a workstation import,
// polled until terminal. Sessions live 12 s; each user refreshes its
// session 4 s before it expires, alongside its operations, so nearly
// every session is refreshed during its run, most more than once. When
// a user's operations are done, the user reaps every job storage and
// closes the session.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "client/client.h"
#include "client/job_builder.h"
#include "gateway/session_broker.h"
#include "grid/grid.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kUsite = "FZ-Juelich";
constexpr const char* kVsite = "T3E-600";
constexpr std::size_t kUsers = 1'000;
constexpr std::size_t kOpsPerUser = 12;
/// Session lifetime, shorter than a user's run, and the remaining
/// lifetime at which a user refreshes.
constexpr std::int64_t kSessionTtl = 12;
constexpr std::int64_t kRefreshMargin = 4;
constexpr sim::Time kPollInterval = sim::sec(2);
/// Mean virtual think time between a user's operations.
constexpr double kThinkSeconds = 1.0;

struct User {
  crypto::Credential credential;
  std::size_t pool = 0;  // gateway replica the ring routes this user to
  util::Bytes token;
  std::int64_t expires_at = 0;
  bool closing = false;  // close sent: no further refreshes
  util::Rng rng;
  std::size_t ops_done = 0;
  std::vector<ajo::JobToken> jobs;
  std::vector<sim::Time> submitted_at;
  std::vector<std::pair<double, double>> step_seconds;
  std::vector<util::Bytes> inputs;  // workstation import of each job
};

struct Loop {
  grid::Grid& grid;
  server::UsiteServer& server;
  Tracer& tracer;
  Recording* recording;
  RoundResult& round;
  std::vector<User> users;
  std::vector<std::unique_ptr<client::UnicoreClient>> pool;
  std::size_t refreshed = 0;
  std::size_t reaped = 0;
  std::size_t closed = 0;
};

sim::Time now(Loop& loop) { return loop.grid.engine().now(); }

/// Points the user's pooled channel at the user's token.
client::UnicoreClient& channel(Loop& loop, std::size_t u) {
  User& user = loop.users[u];
  client::UnicoreClient& pooled = *loop.pool[user.pool];
  pooled.set_session_token(user.token);
  if (loop.recording != nullptr) loop.recording->token_requests.push_back(u);
  return pooled;
}

ajo::AbstractJobObject make_steps(const User& user, std::size_t u,
                                  std::size_t n) {
  client::JobBuilder builder("portal-" + std::to_string(u) + "-" +
                             std::to_string(n));
  builder.destination(kUsite, kVsite).account_group("project-a");
  auto import = builder.import_from_workstation("input.dat", user.inputs[n]);
  client::TaskOptions options;
  options.resources = {1, 600, 64, 0, 16};
  options.behavior.nominal_seconds = user.step_seconds[n].first;
  auto prepare = builder.script("prepare", "./prepare input.dat\n", options);
  options.behavior.nominal_seconds = user.step_seconds[n].second;
  options.behavior.stdout_text = "done\n";
  options.behavior.output_files = {{"result.dat", 4096}};
  auto analyse = builder.script("analyse", "./analyse\n", options);
  builder.after(import, prepare, {"input.dat"});
  builder.after(prepare, analyse);
  return builder.build(user.credential.certificate.subject).value();
}

void step(Loop& loop, std::size_t u);

/// Counts the operation and starts the user's next one after a think
/// time drawn from the user's own stream.
void finish_op(Loop& loop, std::size_t u) {
  User& user = loop.users[u];
  ++user.ops_done;
  loop.grid.engine().after(
      sim::from_seconds(user.rng.exponential(kThinkSeconds)),
      [&loop, u] { step(loop, u); });
}

void poll(Loop& loop, std::size_t u, ajo::JobToken token) {
  sim::Time sent = now(loop);
  Tracer::Scope span(loop.tracer, "client.query", u + 1);
  channel(loop, u).query(
      token, ajo::QueryService::Detail::kJobGroups,
      [&loop, u, token, sent](util::Result<ajo::Outcome> outcome) {
        if (!outcome) {
          loop.round.fail("one_run poll: " + outcome.error().to_string());
          finish_op(loop, u);
          return;
        }
        reply(loop.round, sent, now(loop));
        ajo::ActionStatus status = outcome.value().status;
        if (!ajo::is_terminal(status)) {
          loop.grid.engine().after(kPollInterval, [&loop, u, token] {
            poll(loop, u, token);
          });
          return;
        }
        loop.round.check(status == ajo::ActionStatus::kSuccessful,
                         "one_run " + std::to_string(token) + " ended " +
                             ajo::action_status_name(status));
        finish_op(loop, u);
      });
}

void one_run(Loop& loop, std::size_t u) {
  User& user = loop.users[u];
  std::size_t n = user.jobs.size();
  user.step_seconds.emplace_back(0.5 + user.rng.uniform(),
                                 0.5 + 2 * user.rng.uniform());
  util::Bytes input(128 + user.rng.below(896));
  for (auto& byte : input) byte = static_cast<std::uint8_t>(user.rng.next());
  loop.round.payload_bytes += input.size();
  user.inputs.push_back(std::move(input));
  ajo::AbstractJobObject job = make_steps(user, u, n);
  sim::Time sent = now(loop);
  Tracer::Scope span(loop.tracer, "client.submit", u + 1);
  channel(loop, u).submit(
      job, [&loop, u, sent](util::Result<ajo::JobToken> token) {
        if (!token) {
          loop.round.fail("one_run submit: " + token.error().to_string());
          finish_op(loop, u);
          return;
        }
        reply(loop.round, sent, now(loop), /*staging=*/true);
        User& user = loop.users[u];
        user.jobs.push_back(token.value());
        user.submitted_at.push_back(sent);
        poll(loop, u, token.value());
      });
}

void list_storages(Loop& loop, std::size_t u) {
  sim::Time sent = now(loop);
  Tracer::Scope span(loop.tracer, "client.list_storages", u + 1);
  channel(loop, u).list_storages(
      [&loop, u, sent](util::Result<std::vector<client::StorageEntry>> list) {
        if (!list) {
          loop.round.fail("list_storages: " + list.error().to_string());
          finish_op(loop, u);
          return;
        }
        reply(loop.round, sent, now(loop));
        std::set<ajo::JobToken> listed, expected(loop.users[u].jobs.begin(),
                                                 loop.users[u].jobs.end());
        for (const client::StorageEntry& entry : list.value())
          listed.insert(entry.token);
        loop.round.check(listed == expected,
                         "list_storages of user " + std::to_string(u) +
                             " does not match the user's jobs");
        finish_op(loop, u);
      });
}

void read_job(Loop& loop, std::size_t u, bool files) {
  User& user = loop.users[u];
  ajo::JobToken token = user.jobs[user.rng.below(user.jobs.size())];
  sim::Time sent = now(loop);
  if (files) {
    Tracer::Scope span(loop.tracer, "client.storage_files", u + 1);
    channel(loop, u).storage_files(
        token, [&loop, u, sent](util::Result<std::vector<std::string>> names) {
          if (!names) {
            loop.round.fail("storage_files: " + names.error().to_string());
          } else {
            reply(loop.round, sent, now(loop));
            const std::vector<std::string>& listed = names.value();
            loop.round.check(
                std::find(listed.begin(), listed.end(), "result.dat") !=
                    listed.end(),
                "storage_files does not list the job's result.dat");
          }
          finish_op(loop, u);
        });
    return;
  }
  Tracer::Scope span(loop.tracer, "client.query", u + 1);
  channel(loop, u).query(
      token, ajo::QueryService::Detail::kJobGroups,
      [&loop, u, token, sent](util::Result<ajo::Outcome> outcome) {
        if (!outcome) {
          loop.round.fail("query: " + outcome.error().to_string());
        } else {
          reply(loop.round, sent, now(loop));
          loop.round.check(outcome.value().status ==
                               ajo::ActionStatus::kSuccessful,
                           "query of finished job " + std::to_string(token) +
                               " is not successful");
        }
        finish_op(loop, u);
      });
}

void refresh(Loop& loop, std::size_t u);

/// Schedules the user's next refresh kRefreshMargin seconds before the
/// session expires.
void schedule_refresh(Loop& loop, std::size_t u) {
  std::int64_t due = loop.users[u].expires_at - kRefreshMargin;
  sim::Time delay = sim::sec(std::max<std::int64_t>(
      0, due - loop.grid.now_epoch()));
  loop.grid.engine().after(delay, [&loop, u] {
    if (!loop.users[u].closing) refresh(loop, u);
  });
}

void refresh(Loop& loop, std::size_t u) {
  sim::Time sent = now(loop);
  ++loop.round.attempted;
  Tracer::Scope span(loop.tracer, "client.refresh_session", u + 1);
  channel(loop, u).refresh_session(
      [&loop, u, sent](util::Result<client::SessionGrant> grant) {
        if (!grant) {
          loop.round.fail("refresh_session: " + grant.error().to_string());
          return;
        }
        reply(loop.round, sent, now(loop));
        ++loop.refreshed;
        User& user = loop.users[u];
        if (!grant.value().token.empty()) user.token = grant.value().token;
        user.expires_at = grant.value().expires_at;
        schedule_refresh(loop, u);
      });
}

/// Reaps the user's job storages from the `n`th on, then closes the
/// user's session.
void log_out(Loop& loop, std::size_t u, std::size_t n) {
  User& user = loop.users[u];
  ++loop.round.attempted;
  sim::Time sent = now(loop);
  if (n < user.jobs.size()) {
    Tracer::Scope span(loop.tracer, "client.reap_storage", u + 1);
    channel(loop, u).reap_storage(
        user.jobs[n],
        [&loop, u, n, sent](util::Result<std::uint64_t> freed) {
          if (!freed) {
            loop.round.fail("reap_storage: " + freed.error().to_string());
          } else {
            reply(loop.round, sent, now(loop));
            ++loop.reaped;
          }
          log_out(loop, u, n + 1);
        });
    return;
  }
  user.closing = true;
  Tracer::Scope span(loop.tracer, "client.close_session", u + 1);
  channel(loop, u).close_session([&loop, sent](util::Status status) {
    if (!status.ok()) {
      loop.round.fail("close_session: " + status.error().to_string());
      return;
    }
    reply(loop.round, sent, now(loop));
    ++loop.closed;
  });
}

void step(Loop& loop, std::size_t u) {
  User& user = loop.users[u];
  if (user.ops_done >= kOpsPerUser) {
    log_out(loop, u, 0);
    return;
  }
  ++loop.round.attempted;
  std::uint64_t pick = user.rng.below(100);
  if (pick < 10) one_run(loop, u);
  else if (pick < 55 && !user.jobs.empty()) read_job(loop, u, false);
  else if (pick >= 70 && !user.jobs.empty()) read_job(loop, u, true);
  else list_storages(loop, u);
}

}  // namespace

RoundResult run_portal_sessions(std::uint64_t seed, Tracer& tracer,
                                Recording* recording) {
  RoundResult round;
  double setup_start = cpu_now();
  grid::Grid grid(seed);
  grid::Grid::SiteSpec spec;
  spec.config.name = kUsite;
  spec.config.gateway_host = "gw.fz-juelich.de";
  spec.config.port = 4433;
  spec.config.gateway_replicas = 2;
  spec.config.njs_replicas = 2;
  njs::Njs::VsiteConfig vsite;
  vsite.system = batch::make_cray_t3e(kVsite, 512);
  spec.vsites.push_back(std::move(vsite));
  server::UsiteServer& server = grid.add_site(std::move(spec));
  server.session_broker().set_ttl(kSessionTtl);
  crypto::TrustStore trust = grid.make_trust_store();
  std::vector<net::Address> gateways = server.gateway_addresses();

  util::Rng inputs(seed ^ 0xc2b2ae3d27d4eb4fULL);
  Loop loop{grid, server, tracer, recording, round, {}, {}};
  loop.users.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    std::string id = std::to_string(u);
    User user;
    user.credential = grid.create_user("Portal User " + id, "Portal Org",
                                       "p" + id + "@example.de");
    (void)grid.map_user(user.credential.certificate.subject, kUsite,
                        "pu" + id, {"project-a"});
    net::Address route =
        server.route_address(user.credential.certificate.subject);
    user.pool = static_cast<std::size_t>(
        std::find(gateways.begin(), gateways.end(), route) -
        gateways.begin());
    user.rng = util::Rng(inputs.next());
    round.check(user.pool < gateways.size(),
                "user routed to an unknown gateway replica");
    user.pool = std::min(user.pool, gateways.size() - 1);
    loop.users.push_back(std::move(user));
  }

  // Every user authenticates once with its certificate and takes a
  // session; the minting channels are closed again before timing.
  {
    std::vector<std::unique_ptr<client::UnicoreClient>> minting;
    std::size_t opened = 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      User& user = loop.users[u];
      client::UnicoreClient::Config config;
      config.host = "pc" + std::to_string(u) + ".example.de";
      config.user = user.credential;
      config.trust = &trust;
      config.transfer_streams = 0;
      auto client = std::make_unique<client::UnicoreClient>(
          grid.engine(), grid.network(), grid.rng(), std::move(config));
      client::UnicoreClient* raw = client.get();
      raw->connect(gateways[user.pool], [raw, &user,
                                         &opened](util::Status status) {
        if (!status.ok()) return;
        raw->open_session(0, [&user, &opened](
                                 util::Result<client::SessionGrant> grant) {
          if (!grant) return;
          user.token = grant.value().token;
          user.expires_at = grant.value().expires_at;
          ++opened;
        });
      });
      minting.push_back(std::move(client));
    }
    grid.engine().run();
    round.check(opened == kUsers, "only " + std::to_string(opened) +
                                      " sessions opened in set-up");
    for (auto& client : minting) client->disconnect();
    grid.engine().run();
  }
  crypto::Credential portal =
      grid.create_user("Portal Service", "Portal Org", "portal@example.de");
  (void)grid.map_user(portal.certificate.subject, kUsite, "portal",
                      {"project-a"});
  std::size_t pooled = 0;
  for (std::size_t g = 0; g < gateways.size(); ++g) {
    client::UnicoreClient::Config config;
    config.host = "portal" + std::to_string(g) + ".example.de";
    config.user = portal;
    config.trust = &trust;
    config.transfer_streams = 0;
    net::LinkProfile link;
    link.latency = sim::msec(2) + static_cast<sim::Time>(inputs.below(200));
    grid.network().set_link(config.host, gateways[g].host, link);
    loop.pool.push_back(std::make_unique<client::UnicoreClient>(
        grid.engine(), grid.network(), grid.rng(), std::move(config)));
    loop.pool.back()->connect(gateways[g], [&pooled](util::Status status) {
      pooled += status.ok() ? 1 : 0;
    });
  }
  grid.engine().run();
  round.check(pooled == gateways.size(), "pooled channel connect failed");
  round.setup_s = cpu_now() - setup_start;

  sim::Engine& engine = grid.engine();
  Counters before = read_counters(grid);
  std::uint64_t events_before = engine.events_fired();
  sim::Time virtual_start = engine.now();
  double timed_start = cpu_now();
  for (std::size_t u = 0; u < kUsers; ++u) {
    schedule_refresh(loop, u);
    step(loop, u);
  }
  {
    Tracer::Scope span(tracer, "sim.run");
    engine.run();
  }
  round.timed_s = cpu_now() - timed_start;
  std::uint64_t events = engine.events_fired() - events_before;
  round.virt_s = sim::to_seconds(engine.now() - virtual_start);

  // Output checks.
  std::size_t jobs = 0;
  for (std::size_t u = 0; u < kUsers; ++u) {
    User& user = loop.users[u];
    round.check(user.ops_done == kOpsPerUser,
                "user " + std::to_string(u) + " finished " +
                    std::to_string(user.ops_done) + " operations");
    for (std::size_t n = 0; n < user.jobs.size(); ++n) {
      ++jobs;
      njs::Njs* njs = server.njs_cluster().replica_for_token(user.jobs[n]);
      auto outcome = njs == nullptr
                         ? util::Result<ajo::Outcome>(util::make_error(
                               util::ErrorCode::kNotFound, "no replica"))
                         : njs->query(user.jobs[n],
                                      ajo::QueryService::Detail::kTasks);
      if (!outcome ||
          outcome.value().status != ajo::ActionStatus::kSuccessful) {
        round.check(false, "portal job " + std::to_string(user.jobs[n]) +
                               " not successful");
        continue;
      }
      ++round.jobs_ok;
      round.turnaround_vs.push_back(sim::to_seconds(
          latest_finish(outcome.value()) - user.submitted_at[n]));
      ajo::AbstractJobObject job = make_steps(user, u, n);
      record_batch_tasks(grid, job, outcome.value(), recording,
                         round.queue_wait_vs);
      if (recording != nullptr) {
        recording->payloads.push_back(
            {std::make_shared<const util::Bytes>(user.inputs[n]), true});
        recording->consigns.push_back({std::move(job), u});
      }
    }
  }
  round.check(loop.reaped == jobs, "reaped " + std::to_string(loop.reaped) +
                                       " of " + std::to_string(jobs) +
                                       " storages");
  round.check(loop.closed == kUsers, "closed " + std::to_string(loop.closed) +
                                         " of " + std::to_string(kUsers) +
                                         " sessions");
  const gateway::SessionBroker& broker = server.session_broker();
  round.check(broker.active() == 0, std::to_string(broker.active()) +
                                        " sessions still active after close");
  round.check(loop.refreshed > 0 && broker.refreshed() == loop.refreshed &&
                  broker.expired() == 0,
              "sessions refreshed " + std::to_string(loop.refreshed) +
                  " (broker " + std::to_string(broker.refreshed()) +
                  "), expired " + std::to_string(broker.expired()));
  finish_counts(grid, before, events, round);

  record_site(grid, server, events, recording);
  if (recording != nullptr) {
    // Certificate handshakes happen in set-up; the timed phase rides
    // tokens only, so the replay has no handshakes to repeat.
    for (const User& user : loop.users)
      recording->users.push_back(user.credential);
  }
  return round;
}

}  // namespace perfbench
