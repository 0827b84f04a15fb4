// The benchmark's shared model: a workload is a seeded script of
// steps (writes, then one closed query batch, optionally under a fault
// schedule), run against a freshly built system. Everything a workload
// feeds the system is a pure function of (workload, size, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dqp/processor.hpp"
#include "fault/schedule.hpp"
#include "obs/json.hpp"
#include "overlay/location_cache.hpp"
#include "rdf/triple.hpp"
#include "spans.hpp"
#include "workload/testbed.hpp"

namespace perfbench {

/// Seed of one generated input stream: a pure function of the run seed,
/// the stream's number and an index within the stream.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t index = 0);

/// One step of a workload script. Storage nodes are named by their index
/// in the testbed's storage_addrs(), so a script is independent of the
/// addresses a particular build allocates.
struct Step {
  std::vector<std::pair<std::size_t, std::vector<ahsw::rdf::Triple>>> shares;
  std::vector<std::pair<std::size_t, std::vector<ahsw::rdf::Triple>>> unshares;
  std::vector<std::string> queries;
  std::vector<std::size_t> initiators;  // one per query
  bool faults = false;                  // run the batch under a fault schedule
  std::uint64_t fault_seed = 0;
};

struct WorkloadSpec {
  std::string name;
  ahsw::workload::TestbedConfig testbed;
  ahsw::dqp::ExecutionPolicy policy;
  int workers = 1;
  ahsw::fault::ChurnProfile churn;        // for steps with faults
  std::vector<std::size_t> fault_victims;  // storage indexes that may fail
  std::vector<Step> script;
  /// Writes or faults change the system, so every pass needs a new build.
  bool mutates = false;
  /// Traced mode: steps replayed layer by layer on the twin, and steps
  /// run serial vs parallel for the speedup probe.
  std::size_t replay_steps = 1;
  std::size_t probe_steps = 1;
};

/// `name` is one of mixed, point-zipf, publish-churn; `tiny` selects the
/// self-test sizes. Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec make_workload(const std::string& name,
                                         std::uint64_t seed, bool tiny);

/// Host cost of share/unshare calls and the index traffic they caused.
struct WriteCost {
  std::uint64_t shared = 0;
  std::uint64_t unshared = 0;
  double share_s = 0;
  double unshare_s = 0;
  std::uint64_t index_msgs = 0;
  std::uint64_t index_bytes = 0;

  [[nodiscard]] std::uint64_t triples() const { return shared + unshared; }
  [[nodiscard]] double seconds() const { return share_s + unshare_s; }
};

/// One system under test: the testbed, its processor, and the cost of
/// sharing the initial dataset.
struct System {
  explicit System(const ahsw::workload::TestbedConfig& cfg);
  ahsw::workload::Testbed bed;
  ahsw::dqp::DistributedQueryProcessor proc;
  WriteCost setup_writes;
};

/// Share (or retract) `triples` at storage node `node` inside a span, and
/// add the host time and the index traffic it caused to `cost`. Returns
/// the completion time.
ahsw::net::SimTime write_triples(System& sys, std::size_t node,
                                 const std::vector<ahsw::rdf::Triple>& triples,
                                 bool share, WriteCost& cost, HostTrace& trace,
                                 ahsw::net::SimTime now);

/// Build ring, storage nodes and the initial share of the dataset.
[[nodiscard]] std::unique_ptr<System> build_system(const WorkloadSpec& spec,
                                                   HostTrace& trace);
/// Return a read-only workload's system to its post-build state (clears
/// the location caches, the only state its queries change).
void reset_system(System& sys, const WorkloadSpec& spec);

struct PassOptions {
  int workers = 1;
  bool traced = false;  // attach an obs::QueryTrace to the processor
  bool check = false;   // compare every answer with the centralized oracle
  bool plant_wrong_answer = false;  // corrupt one answer before the check
  std::size_t max_steps = std::numeric_limits<std::size_t>::max();
  /// Called after every step, outside every timer.
  std::function<void()> after_step;
};

/// Everything one pass over the script measured.
struct PassResult {
  std::uint64_t fingerprint = 0;  // hash of every simulated observable
  std::uint64_t queries = 0;
  double batch_s = 0;             // host time inside the batch calls
  std::vector<double> batch_ms;   // per step
  WriteCost writes;

  // Simulated sample.
  std::vector<double> responses;  // per query
  std::vector<double> makespans;  // per step
  ahsw::net::TrafficStats traffic;
  std::uint64_t index_lookups = 0;
  std::uint64_t ring_hops = 0;
  std::uint64_t providers = 0;
  std::uint64_t dead_providers = 0;
  std::uint64_t retries = 0;
  std::uint64_t relookups = 0;
  std::uint64_t incomplete = 0;
  ahsw::overlay::CacheStats query_cache;    // summed per-query reports
  ahsw::overlay::CacheStats overlay_cache;  // overlay total, writes included
  std::uint64_t faults_applied = 0;
  std::vector<double> convergence_ms;       // per faulted step
  ahsw::net::SimTime last_makespan = 0;

  // Output checks (PassOptions::check).
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;  // answer differs from the oracle or incomplete

  // Traced passes.
  std::uint64_t sim_spans = 0;
  std::map<std::string, ahsw::obs::PhaseCost> phases;
  std::uint64_t conservation_violations = 0;  // I5 over each traced batch
};

[[nodiscard]] PassResult run_pass(System& sys, const WorkloadSpec& spec,
                                  const PassOptions& opts, HostTrace& trace);

/// Layer-by-layer counts of the outside replay.
struct ReplayStats {
  std::uint64_t queries = 0;
  std::uint64_t lookups = 0;
  std::uint64_t providers = 0;  // summed over lookups
  std::uint64_t hops = 0;       // provider visits
  std::uint64_t rows = 0;       // accumulated rows after each hop's merge
  std::uint64_t wire_bytes = 0;
  std::uint64_t raw_bytes = 0;

  void add(const ReplayStats& o) {
    queries += o.queries;
    lookups += o.lookups;
    providers += o.providers;
    hops += o.hops;
    rows += o.rows;
    wire_bytes += o.wire_bytes;
    raw_bytes += o.raw_bytes;
  }
};

/// Replay the public functions of each layer on the workload's own inputs
/// against `twin`, an identically built system the measured batches never
/// touch; every call is bracketed by a span in `trace`.
[[nodiscard]] ReplayStats replay_layers(System& twin, const WorkloadSpec& spec,
                                        HostTrace& trace);

/// Run the I1-I6 auditor; returns the report's text when it is not clean,
/// an empty string otherwise.
[[nodiscard]] std::string audit_system(System& sys, const WorkloadSpec& spec,
                                       ahsw::net::SimTime now);

}  // namespace perfbench
