// C5 — the §5.6 file-transfer picture, and the chunked transfer engine
// that answers it:
//
// "Imports from Xspace to Uspace and exports from Uspace to Xspace are
//  always local operations performed at a Vsite. ... The file transfer
//  between Uspaces has to be accomplished through NJS–NJS communication
//  via the gateway ... As this solution has disadvantages with respect
//  to transfer rates especially for huge data sets UNICORE is working
//  on alternatives."
//
// Series:
//   - the local Xspace->Uspace copy (the paper's fast case),
//   - UsiteServer::deliver_files of one file, on whichever path it
//     picks (one whole-blob kDeliverFile message below
//     kWholeBlobLimit, a one-file bundle above),
//   - a one-file bundle through the chunked engine (src/xfer/) at
//     1/2/4/8 parallel streams, at every size,
//   - whole-blob vs one-file bundle head to head below kWholeBlobLimit
//     (the evidence that keeps the whole-blob fast path),
//   - pulls of one file through the engine.
//
// `virtual_ms` is the simulated elapsed time; `virtual_MBps` the
// effective rate the user observes. The simulated network serialises
// bandwidth per connection direction, so N rails ≈ N lanes.
#include <benchmark/benchmark.h>

#include "common/test_env.h"
#include "grid/testbed.h"

namespace {

using namespace unicore;

struct TwoSites {
  grid::Grid grid{5};
  crypto::Credential user;
  ajo::JobToken receiver_token = 0;  // a parked job at LRZ whose Uspace
                                     // receives the remote deliveries

  TwoSites() {
    grid::make_german_testbed(grid);
    user = grid::add_testbed_user(grid, "Bench User", "bench@example.de");

    // Park a long-running job at LRZ so its Uspace exists.
    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "VPP700";
    job.user = user.certificate.subject;
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("sleeper");
    task->script = "sleep forever\n";
    task->set_resource_request({1, 86'400, 64, 0, 8});
    task->behavior.nominal_seconds = 1e7;
    job.add(std::move(task));

    gateway::AuthenticatedUser auth{user.certificate.subject, "xbench",
                                    {"project-a"}};
    auto token = grid.site("LRZ")->njs().consign(job, auth,
                                                 user.certificate);
    receiver_token = token.value();
    grid.engine().run_until(grid.engine().now() + sim::sec(1));
  }
};

void BM_LocalImportXspaceToUspace(benchmark::State& state) {
  TwoSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  auto* njs = &env.grid.site("FZ-Juelich")->njs();
  auto* home = njs->xspace("T3E-600")->find_volume("home");
  (void)home->write("data/in.bin", uspace::FileBlob::synthetic(bytes, 1));

  gateway::AuthenticatedUser auth{env.user.certificate.subject, "ucbench",
                                  {"project-a"}};
  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    ajo::AbstractJobObject job;
    job.set_name("import");
    job.vsite = "T3E-600";
    job.user = env.user.certificate.subject;
    auto import = std::make_unique<ajo::ImportTask>();
    import->source = ajo::ImportTask::Source::kXspace;
    import->xspace_source = {"home", "data/in.bin"};
    import->uspace_name = "in.bin";
    job.add(std::move(import));

    sim::Time start = env.grid.engine().now();
    bool done = false;
    bool ok = false;
    auto token = njs->consign(
        job, auth, env.user.certificate,
        [&done, &ok](ajo::JobToken, const ajo::Outcome& outcome) {
          done = true;
          ok = outcome.status == ajo::ActionStatus::kSuccessful;
        });
    if (!token.ok()) state.SkipWithError("consign failed");
    while (!done && env.grid.engine().step()) {
    }
    if (!ok) state.SkipWithError("import failed");
    virtual_ms_total +=
        sim::to_seconds(env.grid.engine().now() - start) * 1e3;
    ++runs;
  }
  double mean_ms = virtual_ms_total / runs;
  state.counters["virtual_ms"] = mean_ms;
  state.counters["virtual_MBps"] =
      static_cast<double>(bytes) / 1e6 / (mean_ms / 1e3);
  state.SetLabel("local copy (Xspace->Uspace)");
}
BENCHMARK(BM_LocalImportXspaceToUspace)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20);

using Files = std::vector<
    std::pair<std::string, std::shared_ptr<const uspace::FileBlob>>>;

/// How one file crosses from FZJ to LRZ.
enum class Path {
  kPicked,  // deliver_files: whole-blob below kWholeBlobLimit, else bundle
  kBundle,  // a one-file bundle through the chunked engine, at any size
};

/// Delivers `files` along `path` and returns the simulated ms it took
/// (negative on failure).
double deliver_ms(TwoSites& env, Path path, Files files) {
  auto* juelich = env.grid.site("FZ-Juelich");
  njs::RemoteJobHandle handle{"LRZ", env.receiver_token};
  sim::Time start = env.grid.engine().now();
  bool replied = false;
  bool ok = false;
  if (path == Path::kPicked) {
    juelich->deliver_files(handle, std::move(files), [&](util::Status status) {
      replied = true;
      ok = status.ok();
    });
  } else {
    std::vector<xfer::BundleFile> bundle;
    for (auto& [name, blob] : files) bundle.push_back({name, std::move(blob)});
    juelich->transfer_manager().push_bundle(
        juelich->peer_rails("LRZ"),
        xfer::BundlePushSpec{"FZ-Juelich", env.receiver_token},
        std::move(bundle), juelich->transfer_options(),
        [&](util::Result<xfer::BundleStats> result) {
          replied = true;
          ok = result.ok();
        });
  }
  while (!replied && env.grid.engine().step()) {
  }
  if (!ok) return -1;
  return sim::to_seconds(env.grid.engine().now() - start) * 1e3;
}

/// Warms the peer channel and the rails so handshakes are not measured.
bool warm_up(TwoSites& env) {
  auto tiny = [](std::uint64_t seed) {
    return std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::synthetic(8, seed));
  };
  return deliver_ms(env, Path::kPicked, {{"warmup", tiny(3)}}) >= 0 &&
         deliver_ms(env, Path::kBundle, {{"warmup-rails", tiny(4)}}) >= 0;
}

/// Shared driver for the remote-delivery series: fresh content every
/// round, because the receiver's content-addressed store would satisfy
/// a repeated blob out of the open's digest manifest without moving a
/// byte, and these series measure the cold path (the dedup-warm path is
/// bench_store's subject).
void run_remote_delivery(benchmark::State& state, std::uint64_t bytes,
                         Path path, std::size_t streams) {
  TwoSites env;
  env.grid.site("FZ-Juelich")->set_transfer_streams(streams);
  if (!warm_up(env)) state.SkipWithError("peer link failed");

  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    auto blob = std::make_shared<const uspace::FileBlob>(
        uspace::FileBlob::synthetic(bytes, 10 + runs));
    double ms =
        deliver_ms(env, path, {{"chunk" + std::to_string(runs), blob}});
    if (ms < 0) state.SkipWithError("delivery failed");
    virtual_ms_total += ms;
    ++runs;
  }
  double mean_ms = virtual_ms_total / runs;
  state.counters["virtual_ms"] = mean_ms;
  state.counters["virtual_MBps"] =
      static_cast<double>(bytes) / 1e6 / (mean_ms / 1e3);
}

void BM_RemoteUspaceToUspaceViaGateway(benchmark::State& state) {
  run_remote_delivery(state, static_cast<std::uint64_t>(state.range(0)),
                      Path::kPicked, 4);
  state.SetLabel("deliver_files, one file (FZJ->LRZ)");
}
BENCHMARK(BM_RemoteUspaceToUspaceViaGateway)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Arg(64 << 20);

void BM_RemoteChunkedDeliver(benchmark::State& state) {
  run_remote_delivery(state, static_cast<std::uint64_t>(state.range(0)),
                      Path::kBundle,
                      static_cast<std::size_t>(state.range(1)));
  state.SetLabel("one-file bundle x" + std::to_string(state.range(1)) +
                 " streams (FZJ->LRZ)");
}
BENCHMARK(BM_RemoteChunkedDeliver)
    ->ArgsProduct({{64 << 10, 1 << 20, 8 << 20, 64 << 20}, {1, 2, 4, 8}});

/// Below kWholeBlobLimit deliver_files sends one file as a single
/// whole-blob kDeliverFile message instead of a one-file bundle. This
/// series measures both legs at the default 4 rails on the same sizes;
/// `bundle_over_whole_blob` > 1 means the whole-blob message wins.
void BM_WholeBlobVsOneFileBundle(benchmark::State& state) {
  TwoSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  if (bytes >= server::UsiteServer::kWholeBlobLimit)
    state.SkipWithError("size is not below kWholeBlobLimit");
  if (!warm_up(env)) state.SkipWithError("peer link failed");
  double whole_ms = 0, bundle_ms = 0;
  int runs = 0;
  for (auto _ : state) {
    std::string tag = std::to_string(runs);
    auto fresh = [&](std::uint64_t seed) {
      return std::make_shared<const uspace::FileBlob>(
          uspace::FileBlob::synthetic(bytes, seed));
    };
    double whole =
        deliver_ms(env, Path::kPicked, {{"whole" + tag, fresh(100 + 2 * runs)}});
    double bundle = deliver_ms(env, Path::kBundle,
                               {{"bundle" + tag, fresh(101 + 2 * runs)}});
    if (whole < 0 || bundle < 0) {
      state.SkipWithError("delivery failed");
      break;
    }
    whole_ms += whole;
    bundle_ms += bundle;
    ++runs;
  }
  if (runs == 0) return;
  state.counters["whole_blob_virtual_ms"] = whole_ms / runs;
  state.counters["bundle_virtual_ms"] = bundle_ms / runs;
  state.counters["bundle_over_whole_blob"] = bundle_ms / whole_ms;
  state.SetLabel("whole-blob vs one-file bundle x4 (FZJ->LRZ)");
}
BENCHMARK(BM_WholeBlobVsOneFileBundle)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Arg(2 << 20)
    ->Arg(3 << 20);

void BM_RemoteFetchFile(benchmark::State& state) {
  // The reverse direction: pulling a dependency file from a remote
  // predecessor's Uspace as a bundle of one. range(1): stream count.
  TwoSites env;
  std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  (void)env.grid.site("LRZ")->njs().deliver_file(
      env.receiver_token, "big.out", uspace::FileBlob::synthetic(bytes, 4));
  njs::RemoteJobHandle handle{"LRZ", env.receiver_token};
  auto* juelich = env.grid.site("FZ-Juelich");
  juelich->set_transfer_streams(static_cast<std::size_t>(state.range(1)));

  auto fetch = [&] {
    bool replied = false;
    bool ok = false;
    juelich->fetch_files(
        handle, {"big.out"},
        [&](util::Result<std::vector<uspace::FileBlob>> result) {
          replied = true;
          ok = result.ok();
        });
    while (!replied && env.grid.engine().step()) {
    }
    return ok;
  };
  (void)fetch();  // warm the rails

  double virtual_ms_total = 0;
  int runs = 0;
  for (auto _ : state) {
    sim::Time start = env.grid.engine().now();
    if (!fetch()) state.SkipWithError("fetch failed");
    virtual_ms_total +=
        sim::to_seconds(env.grid.engine().now() - start) * 1e3;
    ++runs;
  }
  state.counters["virtual_ms"] = virtual_ms_total / runs;
  state.counters["virtual_MBps"] = static_cast<double>(bytes) / 1e6 /
                                   (virtual_ms_total / runs / 1e3);
  state.SetLabel("fetch one-file bundle x" + std::to_string(state.range(1)));
}
BENCHMARK(BM_RemoteFetchFile)
    ->ArgsProduct({{1 << 20, 8 << 20, 64 << 20}, {1, 4}});

}  // namespace

BENCHMARK_MAIN();
