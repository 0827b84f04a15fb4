// Sensor-data sharing scenario: gateways share observation streams as RDF;
// a monitoring station runs numeric-filter queries. Demonstrates filter
// pushing (Sect. IV-G): with pushing, providers drop out-of-range readings
// locally and only the interesting rows cross the network.
//
//   $ ./sensor_sharing
#include <iostream>

#include "dqp/processor.hpp"
#include "workload/generators.hpp"
#include "workload/testbed.hpp"

int main() {
  using namespace ahsw;

  // Build a system of 4 index nodes and 6 gateways, then hand-partition a
  // sensor dataset across the gateways.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);

  workload::SensorConfig sensors;
  sensors.sensors = 30;
  sensors.observations_per_sensor = 25;
  std::vector<rdf::Triple> data = workload::generate_sensors(sensors);
  workload::PartitionConfig part;
  part.nodes = bed.storage_addrs().size();
  auto shares = workload::partition(data, part);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    bed.overlay().share_triples(bed.storage_addrs()[i], shares[i], 0);
  }
  bed.network().reset_stats();

  std::cout << "Shared " << data.size() << " observation triples across "
            << shares.size() << " gateways\n\n";

  const std::string query = R"(
    PREFIX s: <http://example.org/sensors#>
    SELECT ?obs ?sensor ?v WHERE {
      ?obs s:observedBy ?sensor .
      ?obs s:metric "temperature" .
      ?obs s:value ?v .
      FILTER(?v > 90)
    })";

  std::cout << "Query: temperature readings above 90\n\n";
  for (bool push : {false, true}) {
    dqp::ExecutionPolicy policy;
    policy.push_filters = push;
    dqp::DistributedQueryProcessor proc(bed.overlay(), policy);
    dqp::ExecutionReport rep;
    sparql::QueryResult result =
        proc.execute(query, bed.storage_addrs().front(), &rep);
    std::cout << (push ? "filter pushed " : "filter at top ") << ": "
              << rep.traffic.bytes << " B total, "
              << rep.traffic.bytes_by[static_cast<std::size_t>(
                     net::Category::kData)]
              << " B intermediate data, " << result.solutions.size()
              << " rows\n";
    if (push) {
      std::cout << "\nSample rows:\n";
      std::size_t shown = 0;
      for (const sparql::Binding& b : result.solutions.bindings()) {
        if (shown++ == 5) break;
        std::cout << "  " << b.to_string() << "\n";
      }
    }
  }

  // A second query showing OPTIONAL: which sensors have a room assignment?
  const std::string optional_query = R"(
    PREFIX s: <http://example.org/sensors#>
    SELECT ?sensor ?room WHERE {
      ?obs s:observedBy ?sensor .
      OPTIONAL { ?sensor s:locatedIn ?room . }
    })";
  dqp::DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult r =
      proc.execute(std::string(optional_query) + " LIMIT 0",
                   bed.storage_addrs().front(), nullptr);
  dqp::ExecutionReport rep;
  r = proc.execute(optional_query, bed.storage_addrs().front(), &rep);
  std::size_t with_room = 0;
  for (const sparql::Binding& b : r.solutions.bindings()) {
    if (b.bound("room")) ++with_room;
  }
  std::cout << "\nOPTIONAL query: " << r.solutions.size()
            << " sensor rows, " << with_room << " with a room binding ("
            << rep.traffic.messages << " msgs)\n";
  return 0;
}
