// Quickstart: build a small ad-hoc Semantic Web data sharing system, let
// three personal devices share their RDF triples, and run distributed
// SPARQL queries from one of them.
//
//   $ ./quickstart
#include <iostream>

#include "dqp/processor.hpp"
#include "overlay/overlay.hpp"
#include "rdf/ntriples.hpp"

int main() {
  using namespace ahsw;

  // 1. A simulated network and the hybrid overlay: index nodes form a
  //    Chord ring, storage nodes (the "personal devices") attach to them.
  net::Network network;
  overlay::HybridOverlay overlay(network);
  for (int i = 0; i < 4; ++i) overlay.add_index_node();
  overlay.ring().fix_all_fingers_oracle();

  net::NodeAddress alice_pc = overlay.add_storage_node();
  net::NodeAddress bob_laptop = overlay.add_storage_node();
  net::NodeAddress carol_phone = overlay.add_storage_node();

  // 2. Each device shares its own triples; only six small (key, address,
  //    frequency) index entries per triple go to the ring — the data itself
  //    stays with its provider.
  auto share = [&](net::NodeAddress node, const char* ntriples) {
    overlay.share_triples(node, rdf::parse_ntriples(ntriples), 0);
  };
  share(alice_pc, R"(
    <http://people/alice> <http://xmlns.com/foaf/0.1/name> "Alice Smith" .
    <http://people/alice> <http://xmlns.com/foaf/0.1/knows> <http://people/bob> .
    <http://people/alice> <http://xmlns.com/foaf/0.1/knows> <http://people/carol> .
  )");
  share(bob_laptop, R"(
    <http://people/bob> <http://xmlns.com/foaf/0.1/name> "Bob Jones" .
    <http://people/bob> <http://xmlns.com/foaf/0.1/knows> <http://people/carol> .
    <http://people/bob> <http://xmlns.com/foaf/0.1/age> "27"^^<http://www.w3.org/2001/XMLSchema#integer> .
  )");
  share(carol_phone, R"(
    <http://people/carol> <http://xmlns.com/foaf/0.1/name> "Carol Smith" .
    <http://people/carol> <http://xmlns.com/foaf/0.1/nick> "cc" .
  )");

  // 3. Query from Alice's PC. The processor resolves providers through the
  //    two-level distributed index and ships sub-queries to them.
  dqp::DistributedQueryProcessor processor(overlay);
  const char* query = R"(
    PREFIX foaf: <http://xmlns.com/foaf/0.1/>
    SELECT ?who ?name WHERE {
      ?x foaf:knows ?who .
      ?who foaf:name ?name .
    } ORDER BY ?name)";

  dqp::ExecutionReport report;
  sparql::QueryResult result = processor.execute(query, alice_pc, &report);

  std::cout << "Who do people know, and what are they called?\n";
  for (const sparql::Binding& row : result.solutions.bindings()) {
    std::cout << "  " << row.get("who")->to_string() << "  "
              << row.get("name")->to_string() << "\n";
  }

  std::cout << "\nExecution report:\n"
            << "  index lookups : " << report.index_lookups << "\n"
            << "  ring hops     : " << report.ring_hops << "\n"
            << "  providers     : " << report.providers_contacted << "\n"
            << "  messages      : " << report.traffic.messages << "\n"
            << "  bytes         : " << report.traffic.bytes << "\n"
            << "  response time : " << report.response_time << " ms (simulated)\n";
  return 0;
}
