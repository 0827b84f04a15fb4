// The three workloads as seeded scripts, and the system they run on.
//
//   mixed          the paper's five query classes over FOAF data: scans
//                  make in-network merging and wire encoding dominate.
//   point-zipf     Zipf-skewed bound-subject point queries from a few hot
//                  initiators, location cache on, parallel driver at 2
//                  workers: per-query overheads dominate.
//   publish-churn  every step shares fresh triples and retracts the oldest
//                  slice, then runs point/conjunction queries over the
//                  fresh entities under a seeded fault schedule.
//
// perfbench/README.md gives the sizes and the reasons for each choice.
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "workload/generators.hpp"
#include "workload/queries.hpp"
#include "workload/vocab.hpp"

namespace perfbench {

using namespace ahsw;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  common::Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                  ((index + 1) * 0xbf58476d1ce4e5b9ULL));
  rng.next();
  return rng.next();
}

namespace {

constexpr std::string_view kFoafPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";
constexpr std::string_view kSensorPrologue =
    "PREFIX s: <http://example.org/sensors#>\n";

workload::TestbedConfig foaf_testbed(std::uint64_t seed, std::size_t index,
                                     std::size_t storage,
                                     std::size_t persons) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = index;
  cfg.storage_nodes = storage;
  cfg.foaf.persons = persons;
  cfg.foaf.seed = derive(seed, 1);
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = derive(seed, 2);
  return cfg;
}

/// Cut `queries` into steps of `per_step`, initiator i -> initiators[i].
void add_batches(WorkloadSpec& spec, const std::vector<std::string>& queries,
                 const std::vector<std::size_t>& initiators,
                 std::size_t per_step) {
  for (std::size_t at = 0; at < queries.size(); at += per_step) {
    Step step;
    for (std::size_t i = at; i < queries.size() && i < at + per_step; ++i) {
      step.queries.push_back(queries[i]);
      step.initiators.push_back(initiators[i]);
    }
    spec.script.push_back(std::move(step));
  }
}

WorkloadSpec mixed(std::uint64_t seed, bool tiny) {
  WorkloadSpec spec;
  spec.name = "mixed";
  const std::size_t storage = tiny ? 4 : 16;
  spec.testbed = foaf_testbed(seed, tiny ? 16 : 256, storage, tiny ? 40 : 300);
  const std::size_t steps = tiny ? 2 : 10;
  const std::size_t per_step = tiny ? 10 : 100;
  workload::QueryMixConfig mix;  // the paper's classes, 40/25/15/10/10
  mix.seed = derive(seed, 4);
  const std::vector<std::string> queries =
      workload::generate_query_mix(steps * per_step, spec.testbed.foaf, mix);
  std::vector<std::size_t> initiators(queries.size());
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    initiators[i] = i % storage;
  }
  add_batches(spec, queries, initiators, per_step);
  spec.replay_steps = 1;
  spec.probe_steps = 1;
  return spec;
}

WorkloadSpec point_zipf(std::uint64_t seed, bool tiny) {
  WorkloadSpec spec;
  spec.name = "point-zipf";
  const std::size_t storage = tiny ? 8 : 16;
  const std::size_t persons = tiny ? 40 : 300;
  spec.testbed = foaf_testbed(seed, tiny ? 32 : 1000, storage, persons);
  spec.policy.cache.enabled = true;
  spec.workers = 2;

  common::Rng rng(derive(seed, 4));
  // Eight hot initiators. Query i comes from pool[i % 8], so with 2 workers
  // (shard = i % 2) every initiator's queries, and so its cache, stay on
  // one worker.
  std::vector<std::size_t> nodes(storage);
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  rng.shuffle(nodes);
  const std::vector<std::size_t> pool(nodes.begin(), nodes.begin() + 8);
  // Each initiator has its own favourite persons: rank r of its Zipf draws
  // names person hot[k][r].
  std::vector<std::vector<std::size_t>> hot(pool.size(),
                                            std::vector<std::size_t>(persons));
  for (std::vector<std::size_t>& order : hot) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
  }

  const common::ZipfSampler zipf(persons, 1.2);
  const std::size_t steps = tiny ? 2 : 4;
  const std::size_t per_step = tiny ? 40 : 2000;
  std::vector<std::string> queries;
  std::vector<std::size_t> initiators;
  for (std::size_t i = 0; i < steps * per_step; ++i) {
    const std::size_t k = i % pool.size();
    const std::string p = "<" + std::string(workload::ex::kPerson) + "p" +
                          std::to_string(hot[k][zipf.sample(rng)]) + ">";
    if (i % 5 != 4) {  // E1: one bound-subject pattern
      queries.push_back(std::string(kFoafPrologue) + "SELECT ?o WHERE { " +
                        p + " foaf:knows ?o . }");
    } else {  // E2: two patterns on the same subject
      queries.push_back(std::string(kFoafPrologue) +
                        "SELECT ?n ?o WHERE { " + p + " foaf:name ?n . " + p +
                        " foaf:knows ?o . }");
    }
    initiators.push_back(pool[k]);
  }
  add_batches(spec, queries, initiators, per_step);
  spec.replay_steps = 1;
  spec.probe_steps = steps;
  return spec;
}

/// Rename the generated sensor and observation IRIs so every (step, node)
/// slice describes entities no other slice mentions.
std::vector<rdf::Triple> freshen(std::vector<rdf::Triple> triples,
                                 const std::string& tag) {
  auto rename = [&](rdf::Term& t) {
    if (!t.is_iri()) return;
    for (std::string_view base :
         {workload::sensor::kSensorBase, workload::sensor::kObsBase}) {
      if (t.lexical().compare(0, base.size(), base) == 0) {
        t = rdf::Term::iri(std::string(base) + tag +
                           t.lexical().substr(base.size()));
        return;
      }
    }
  };
  for (rdf::Triple& t : triples) {
    rename(t.s);
    rename(t.o);
  }
  return triples;
}

WorkloadSpec publish_churn(std::uint64_t seed, bool tiny) {
  WorkloadSpec spec;
  spec.name = "publish-churn";
  const std::size_t storage = tiny ? 6 : 16;
  spec.testbed = foaf_testbed(seed, tiny ? 16 : 64, storage, tiny ? 30 : 200);
  spec.testbed.overlay.replication_factor = 2;
  spec.policy.cache.enabled = true;
  spec.policy.retry.max_retries = 2;
  spec.policy.retry.relookup = true;
  spec.mutates = true;

  // Faults are stamped inside the batch's makespan (about 40 ms without
  // faults). Every crashed storage node recovers and rejoins 60 ms later,
  // before the 200 ms failure-detection timeout ends, so a bounded retry
  // reaches it again; one index node crashes per step (replication 2 masks
  // it) and the overlay repairs at 20 ms. The ring shrinks by one index
  // node per step.
  spec.churn.horizon_ms = 40.0;
  spec.churn.fails_per_second = 50.0;   // 2 storage failures per step
  spec.churn.recover_fraction = 1.0;
  spec.churn.recover_delay_ms = 60.0;
  spec.churn.index_fails_per_second = 25.0;  // 1 index failure per step
  spec.churn.repair_every_ms = 20.0;

  common::Rng rng(derive(seed, 4));
  std::vector<std::size_t> nodes(storage);
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  rng.shuffle(nodes);
  const std::vector<std::size_t> pool(nodes.begin(), nodes.begin() + 4);
  spec.fault_victims.assign(nodes.begin() + 4, nodes.end());

  constexpr std::size_t kWindow = 4;        // live slices per node
  constexpr std::size_t kObservations = 4;  // per fresh sensor
  const std::size_t steps = tiny ? 6 : 16;
  const std::size_t per_step = tiny ? 16 : 64;
  std::vector<std::vector<std::vector<rdf::Triple>>> slices(steps);
  for (std::size_t r = 0; r < steps; ++r) {
    Step step;
    for (std::size_t j = 0; j < storage; ++j) {
      workload::SensorConfig sc;
      sc.sensors = 1;
      sc.rooms = 4;
      sc.observations_per_sensor = kObservations;
      sc.metrics = 4;
      sc.seed = derive(seed, 5, r * storage + j);
      slices[r].push_back(freshen(workload::generate_sensors(sc),
                                  "r" + std::to_string(r) + "n" +
                                      std::to_string(j) + "-"));
      step.shares.emplace_back(j, slices[r][j]);
      if (r >= kWindow) step.unshares.emplace_back(j, slices[r - kWindow][j]);
    }
    common::Rng qrng(derive(seed, 6, r));
    for (std::size_t q = 0; q < per_step; ++q) {
      const std::string tag = "r" + std::to_string(r) + "n" +
                              std::to_string(qrng.below(storage)) + "-";
      const std::string unit =
          "<" + std::string(workload::sensor::kSensorBase) + tag + "s0>";
      const std::string obs = "<" + std::string(workload::sensor::kObsBase) +
                              tag + "o" +
                              std::to_string(qrng.below(kObservations)) + ">";
      std::string text(kSensorPrologue);
      switch (qrng.below(4)) {
        case 0:
          text += "SELECT ?v WHERE { " + obs + " s:value ?v . }";
          break;
        case 1:
          text += "SELECT ?o WHERE { ?o s:observedBy " + unit + " . }";
          break;
        case 2:
          text += "SELECT ?o ?v WHERE { ?o s:observedBy " + unit +
                  " . ?o s:value ?v . }";
          break;
        default:
          text += "SELECT ?m ?v WHERE { " + obs + " s:metric ?m . " + obs +
                  " s:value ?v . }";
      }
      step.queries.push_back(std::move(text));
      step.initiators.push_back(pool[q % pool.size()]);
    }
    step.faults = true;
    step.fault_seed = derive(seed, 7, r);
    spec.script.push_back(std::move(step));
  }
  spec.replay_steps = tiny ? 2 : 4;
  spec.probe_steps = tiny ? 2 : 4;
  return spec;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed,
                           bool tiny) {
  if (name == "mixed") return mixed(seed, tiny);
  if (name == "point-zipf") return point_zipf(seed, tiny);
  if (name == "publish-churn") return publish_churn(seed, tiny);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
