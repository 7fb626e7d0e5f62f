// Shared pieces of the seeded benchmark program: the per-round result
// every workload returns, the recording a traced round leaves for the
// per-layer replay, and the in-memory span recorder.
//
// Two clocks appear side by side. "wall" values are the CPU time the
// C++ costs, read from the calling thread's CPU clock around the code the
// benchmark drives (the engine is single-threaded and the record pool is
// off, so that thread does all the work); "virt" values come from
// sim::Engine time and depend only on the seed.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "batch/target_system.h"
#include "crypto/x509.h"
#include "gateway/uudb.h"
#include "grid/grid.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace perfbench {

using namespace unicore;

/// Elapsed real time, for the run's time budget only.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread: what every "wall" metric measures.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Spans around the benchmark's own calls into the client and the
/// simulation engine. Disabled spans cost one branch; enabled ones are
/// appended in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t parent = -1;
    std::uint64_t trace_id = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t trace_id = 0)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, trace_id);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Records an already-timed interval (the replay phases).
  void add(const std::string& name, double start, double end) {
    spans_.push_back({name, start, end, -1, 0});
  }

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t open(const char* name, std::uint64_t trace_id) {
    std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    if (trace_id == 0 && parent >= 0) trace_id = spans_[parent].trace_id;
    spans_.push_back({name, cpu_now(), 0, parent, trace_id});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end = cpu_now();
    stack_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// What one traced round hands to the per-layer replay: the inputs the
/// workload produced, in workload order.
struct Recording {
  struct Consign {
    ajo::AbstractJobObject job;
    std::size_t user = 0;  // index into `users`
  };
  struct BatchTask {
    batch::SystemConfig system;
    std::unique_ptr<ajo::AbstractAction> task;
    std::string account;
    sim::Time submitted_at = 0;
  };
  std::string usite;  // the Usite whose gateway the clients talk to
  std::shared_ptr<crypto::TrustStore> trust;
  std::shared_ptr<gateway::UserDatabase> uudb;
  std::int64_t now_epoch = 0;
  crypto::Certificate server_certificate;
  std::vector<crypto::Credential> users;
  std::vector<Consign> consigns;
  /// User index per full handshake, in connect order.
  std::vector<std::size_t> handshakes;
  std::vector<BatchTask> batch_tasks;
  struct Payload {
    std::shared_ptr<const util::Bytes> bytes;
    bool moved = true;  // false when dedup settled it without chunks
  };
  /// Real payload bytes the clients staged, in staging order.
  std::vector<Payload> payloads;
  /// User index of every request that rode a bearer token.
  std::vector<std::size_t> token_requests;
  /// Chunks of synthetic (identity-only) files that moved.
  std::uint64_t synthetic_chunks = 0;
  std::uint64_t engine_events = 0;
};

/// Result of one round: set-up, timed phase, output checks and counts.
struct RoundResult {
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t jobs_ok = 0;
  std::uint64_t requests = 0;
  std::uint64_t payload_bytes = 0;
  /// Virtual seconds the payload-carrying operations took, summed.
  double stage_vs = 0;
  double virt_s = 0;
  std::vector<double> reply_vms;
  std::vector<double> turnaround_vs;
  /// Batch queue waits (start - submit) of every task, virtual seconds.
  std::vector<double> queue_wait_vs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Layer counters read after the round (registry + accessors).
  std::map<std::string, double> counts;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
  /// An output check: a wrong output counts as a failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// Cumulative layer counters of a deployment, from the grid's metrics
/// registry and the sites' public accessors.
using Counters = std::map<std::string, double>;
Counters read_counters(grid::Grid& grid);

/// Counts a request sent at virtual time `sent` and answered at `now`:
/// one reply sample, and with `staging` (the request carried payload)
/// its virtual time towards the staging time.
void reply(RoundResult& round, sim::Time sent, sim::Time now,
           bool staging = false);

/// Ends a round's bookkeeping: checks the network's sent = delivered +
/// dropped, fills round.counts with the layer counts of the timed phase
/// (counters read now minus `before`, per answered request where a
/// count is per operation) and sim.events_per_op from the phase's
/// `events`.
void finish_counts(grid::Grid& grid, const Counters& before,
                   std::uint64_t events, RoundResult& round);

/// Fills the recording's description of the Usite the clients talk to
/// (name, trust store, UUDB, epoch, server certificate) and the round's
/// engine event count. Does nothing when `recording` is null.
void record_site(grid::Grid& grid, server::UsiteServer& server,
                 std::uint64_t events, Recording* recording);

/// Appends every batch task of `job` (sub-jobs included) to the
/// recording, with the system of its Vsite and the submit time the
/// final outcome reports for it. Also appends the tasks' queue waits.
void record_batch_tasks(grid::Grid& grid, const ajo::AbstractJobObject& job,
                        const ajo::Outcome& outcome, Recording* recording,
                        std::vector<double>& queue_wait_vs);

/// Virtual time the last action of a finished job tree ended.
sim::Time latest_finish(const ajo::Outcome& outcome);

/// Number of batch tasks in `job`, sub-jobs included.
std::size_t count_batch_tasks(const ajo::AbstractJobObject& job);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Every workload runs one full round per call: fresh deployment
/// (timed as set-up), timed closed loop, output checks, counters.
/// With `recording` non-null the round also keeps its inputs.
using RoundFn = RoundResult (*)(std::uint64_t seed, Tracer& tracer,
                                Recording* recording);

RoundResult run_grid_dag(std::uint64_t seed, Tracer& tracer,
                         Recording* recording);
RoundResult run_data_staging(std::uint64_t seed, Tracer& tracer,
                             Recording* recording);
RoundResult run_portal_sessions(std::uint64_t seed, Tracer& tracer,
                                Recording* recording);

/// Layer costs measured by replaying `recording` through each layer's
/// public functions, in seconds, keyed by per-layer metric name.
std::map<std::string, double> replay_layers(const Recording& recording,
                                            const RoundResult& round,
                                            Tracer& tracer);

}  // namespace perfbench
