// A guided tour of the paper, executable: reconstructs Fig. 1's topology in
// a 4-bit identifier space, the Fig. 2 / Table I two-level index, and runs
// each of the paper's example queries (Figs. 4-9), printing the algebra the
// Query Transformation stage produces and the plan decisions the Global
// Query Optimizer takes.
//
//   $ ./paper_walkthrough
#include <iostream>

#include "dqp/processor.hpp"
#include "overlay/overlay.hpp"
#include "sparql/algebra.hpp"

namespace {

constexpr const char* kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

void heading(const std::string& text) {
  std::cout << "\n=== " << text << " ===\n";
}

}  // namespace

int main() {
  using namespace ahsw;

  heading("Fig. 1 - a peer network of 9 nodes in a 4-bit identifier space");
  net::Network network;
  overlay::HybridOverlay overlay(
      network, overlay::OverlayConfig{chord::RingConfig{4, 2}, 1, 7});
  chord::Key n7 = 0, n12 = 0, n15 = 0;
  overlay.add_index_node_with_id(1);
  overlay.add_index_node_with_id(4);
  n7 = overlay.add_index_node_with_id(7);
  n12 = overlay.add_index_node_with_id(12);
  n15 = overlay.add_index_node_with_id(15);
  overlay.ring().fix_all_fingers_oracle();
  net::NodeAddress d1 = overlay.add_storage_node_attached(n7);
  net::NodeAddress d2 = overlay.add_storage_node_attached(n12);
  net::NodeAddress d3 = overlay.add_storage_node_attached(n7);
  net::NodeAddress d4 = overlay.add_storage_node_attached(n15);
  for (const auto& [id, state] : overlay.ring().nodes()) {
    std::cout << "  index node N" << id << " -> successor N"
              << state.successors.front() << "\n";
  }
  std::cout << "  storage nodes: D1=" << d1 << " D2=" << d2 << " D3=" << d3
            << " D4=" << d4 << " (addresses)\n";

  heading("Sect. III-B - publishing triples builds the two-level index");
  auto person = [](const std::string& n) {
    return rdf::Term::iri("http://example.org/people/" + n);
  };
  rdf::Term name = rdf::Term::iri("http://xmlns.com/foaf/0.1/name");
  rdf::Term knows = rdf::Term::iri("http://xmlns.com/foaf/0.1/knows");
  rdf::Term nick = rdf::Term::iri("http://xmlns.com/foaf/0.1/nick");
  rdf::Term mbox = rdf::Term::iri("http://xmlns.com/foaf/0.1/mbox");
  rdf::Term kna = rdf::Term::iri("http://example.org/ns#knowsNothingAbout");

  overlay.share_triples(
      d1,
      {{person("alice"), name, rdf::Term::literal("Alice Smith")},
       {person("alice"), knows, person("carol")},
       {person("alice"), knows, person("shrek")},
       {person("alice"), kna, person("bob")}},
      0);
  overlay.share_triples(
      d2,
      {{person("bob"), name, rdf::Term::literal("Bob Smith")},
       {person("bob"), knows, person("carol")},
       {person("bob"), kna, person("alice")},
       {person("bob"), mbox, rdf::Term::iri("mailto:abc@example.org")}},
      0);
  overlay.share_triples(
      d3,
      {{person("shrek"), nick, rdf::Term::literal("Shrek")},
       {person("dave"), name, rdf::Term::literal("Dave Jones")},
       {person("dave"), knows, person("carol")}},
      0);
  overlay.share_triples(
      d4, {{person("erin"), name, rdf::Term::literal("Erin Smith")},
           {person("erin"), knows, person("carol")}},
      0);

  for (const auto& [id, ix] : overlay.index_nodes()) {
    std::cout << "  location table of N" << id << ": " << ix.table.row_count()
              << " keys, " << ix.table.entry_count() << " entries\n";
  }

  heading("Fig. 2 - locating providers of <alice, knows, ?o>");
  overlay::HybridOverlay::Located loc = overlay.locate(
      d2, rdf::TriplePattern{person("alice"), knows, rdf::Variable{"o"}}, 0);
  std::cout << "  Hash(s,p) owned by index node N" << loc.index_node << " ("
            << loc.hops << " ring hops); providers:";
  for (const overlay::Provider& p : loc.providers) {
    std::cout << " node" << p.address << "(freq " << p.frequency << ")";
  }
  std::cout << "\n";

  dqp::DistributedQueryProcessor processor(overlay);
  auto run = [&](const std::string& title, const std::string& body) {
    heading(title);
    std::string query = std::string(kPrologue) + body;
    std::cout << "  algebra: " << processor.plan(query)->to_string() << "\n";
    dqp::ExecutionReport rep;
    sparql::QueryResult result = processor.execute(query, d2, &rep);
    std::cout << "  solutions (" << result.solutions.size() << "):\n";
    for (const sparql::Binding& b : result.solutions.bindings()) {
      std::cout << "    " << b.to_string() << "\n";
    }
    std::cout << "  cost: " << rep.traffic.messages << " msgs, "
              << rep.traffic.bytes << " B, " << rep.response_time
              << " ms; providers " << rep.providers_contacted << "\n";
    for (const std::string& note : rep.plan_notes) {
      if (note.rfind("algebra:", 0) != 0) std::cout << "  note: " << note << "\n";
    }
  };

  run("Fig. 5 - primitive query",
      "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/carol> . }");

  run("Fig. 6 - conjunction graph pattern", R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y .
      })");

  run("Fig. 7 - optional graph pattern", R"(
      SELECT ?x ?y WHERE {
        { ?x foaf:name "Alice Smith" .
          ?x foaf:knows ?y . }
        OPTIONAL { ?y foaf:nick "Shrek" . }
      })");

  run("Fig. 8 - union graph pattern", R"(
      SELECT ?x ?y ?z WHERE {
        { ?x foaf:name "Bob Smith" .
          ?x foaf:knows ?y . }
        UNION
        { ?x foaf:mbox <mailto:abc@example.org> .
          ?x foaf:knows ?z . }
      })");

  run("Fig. 9 - filter + optional (note the pushed filter in the algebra)",
      R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ;
           ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . }
      })");

  run("Fig. 4 - the flagship query", R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name .
        ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y .
        ?y foaf:knows ?z .
        FILTER regex(?name, "Smith")
      } ORDER BY DESC(?x))");

  return 0;
}
