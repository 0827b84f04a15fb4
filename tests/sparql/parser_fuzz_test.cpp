// Seeded mutation fuzzing of the SPARQL front end, through the plan
// compiler. Valid query texts — the workload generator's query mix and the
// shapes the parser tests use — are mutated with common::Rng (character
// flips, inserted grammar tokens, deleted and repeated spans, truncations,
// splices of two queries) under a fixed iteration budget. Every input must
// end in a QuerySyntaxError or a Query, never a crash or another
// exception. Every accepted query must translate (translate_pattern), go
// through filter pushing and compile to a well-formed plan whose operators
// all have a kind the compiler emits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dqp/physical_plan.hpp"
#include "optimizer/rewriter.hpp"
#include "sparql/algebra.hpp"
#include "sparql/ast.hpp"
#include "sparql/lexer.hpp"
#include "workload/queries.hpp"

namespace ahsw::sparql {
namespace {

constexpr int kIterations = 10000;

const std::string kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

/// The generator's mix plus every form and clause the grammar has.
std::vector<std::string> corpus() {
  std::vector<std::string> out =
      workload::generate_query_mix(48, workload::FoafConfig{},
                                   workload::QueryMixConfig{});
  const std::vector<std::string> shapes = {
      "SELECT ?x ?y ?z FROM <http://example.org/g> WHERE { ?x foaf:name "
      "?name . ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . ?y foaf:knows "
      "?z . FILTER regex(?name, \"Smith\") } ORDER BY DESC(?x)",
      "SELECT ?x ?y WHERE { { ?x foaf:name \"Smith\" . ?x foaf:knows ?y . } "
      "OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
      "SELECT ?x ?y ?z WHERE { { ?x foaf:mbox <mailto:abc@example.org> . ?x "
      "foaf:knows ?z . } UNION { ?x foaf:name \"Smith\" . ?x foaf:knows ?y . "
      "} }",
      "SELECT ?x ?y ?z WHERE { ?x foaf:name ?name ; ns:knowsNothingAbout ?y "
      ". FILTER regex(?name, \"Smith\") OPTIONAL { ?y foaf:knows ?z . } }",
      "SELECT ?x WHERE { ?x foaf:knows ns:a, ns:b . ?x a foaf:Person . }",
      "SELECT DISTINCT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 10 OFFSET 5",
      "SELECT REDUCED * WHERE { ?s ?p ?o . }",
      "ASK { ?s ?p ?o . }",
      "CONSTRUCT { ?x foaf:knows ?y . } WHERE { ?y foaf:knows ?x . }",
      "DESCRIBE ns:me ?x WHERE { ?x foaf:knows ns:me . }",
      "SELECT ?s FROM <http://g1> FROM NAMED <http://g2> WHERE { ?s "
      "<http://p> 42 . ?s <http://q> 3.5 . ?s <http://r> true . }",
      "SELECT ?s WHERE { ?s <http://age> ?a . FILTER(?a >= 18 && (?a < 65 "
      "|| bound(?a))) }",
      "SELECT ?x WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . "
      "OPTIONAL { ?y foaf:mbox ?m . } FILTER(!bound(?m)) } }",
      "SELECT ?x WHERE { { ?x <http://a> ?y . } UNION { ?x <http://b> ?y . } "
      "UNION { ?x <http://c> ?y . } FILTER(?y != \"v\"@en) }",
      "SELECT ?n WHERE { _:p foaf:name ?n . _:p foaf:age ?a . FILTER(?a * 2 "
      "+ 1 > -3 && str(?n) = \"x\"^^<http://www.w3.org/2001/XMLSchema#string>"
      ") } ORDER BY ASC(?n) DESC(?a + 1)",
      "SELECT * WHERE { }",
  };
  for (const std::string& s : shapes) out.push_back(kPrologue + s);
  return out;
}

/// Grammar fragments a mutation may insert, the odd malformed one included.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> kTokens = {
      "{", "}", "(", ")", ".", ";", ",", "*", "?x", "?y", "$z", "_:b",
      "<http://e/p>", "<", ">", "foaf:knows", "ns:", "a", "\"s\"",
      "\"s\"@en", "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>", "42",
      "-3.5", "1e9", "99999999999999999999999", "true", "OPTIONAL", "UNION",
      "FILTER", "regex(?x, \"a\")", "bound(?x)", "!", "&&", "||", "=", "!=",
      ">=", "+", "-", "/", "SELECT", "DISTINCT", "REDUCED", "WHERE",
      "ORDER BY", "DESC(", "ASC(", "LIMIT", "OFFSET", "ASK", "CONSTRUCT",
      "DESCRIBE", "FROM", "NAMED", "PREFIX e: <http://e/>", "#c\n", "\"",
      "@", "^^", "str(", "lang(", "isIRI("};
  return kTokens;
}

/// One random mutation of `q`; `other` is the splice partner.
std::string mutate(common::Rng& rng, std::string q, const std::string& other) {
  switch (rng.below(6)) {
    case 0:  // character flips to printable noise
      if (q.empty()) break;
      for (std::uint64_t k = rng.between(1, 3); k > 0; --k) {
        q[rng.below(q.size())] = static_cast<char>(32 + rng.below(95));
      }
      break;
    case 1: {  // insert a grammar token
      const std::vector<std::string>& t = tokens();
      q.insert(rng.below(q.size() + 1), " " + t[rng.below(t.size())] + " ");
      break;
    }
    case 2:  // delete a span
      if (!q.empty()) q.erase(rng.below(q.size()), rng.between(1, 12));
      break;
    case 3: {  // repeat a span in place
      if (q.empty()) break;
      const std::size_t at = rng.below(q.size());
      q.insert(at, q.substr(at, rng.between(1, 24)));
      break;
    }
    case 4:  // truncation
      q.resize(rng.below(q.size() + 1));
      break;
    default:  // splice: a prefix of one query, a suffix of another
      q = q.substr(0, rng.below(q.size() + 1)) +
          other.substr(rng.below(other.size() + 1));
      break;
  }
  return q;
}

/// The kinds compile_physical_plan emits (every one the plan IR has).
bool emitted_kind(dqp::PhysOpKind k) {
  switch (k) {
    case dqp::PhysOpKind::kConst:
    case dqp::PhysOpKind::kIndexLookup:
    case dqp::PhysOpKind::kProviderScan:
    case dqp::PhysOpKind::kShip:
    case dqp::PhysOpKind::kJoin:
    case dqp::PhysOpKind::kLeftJoin:
    case dqp::PhysOpKind::kUnion:
    case dqp::PhysOpKind::kFilter:
    case dqp::PhysOpKind::kPostProcess:
      return true;
  }
  return false;
}

/// An accepted query through the front of the pipeline: translation,
/// filter pushing and compilation to a well-formed, printable plan.
void expect_compiles(const Query& q, const dqp::ExecutionPolicy& policy,
                     const std::string& where) {
  AlgebraPtr pattern = translate_pattern(q.where);
  ASSERT_NE(pattern, nullptr) << where;
  pattern = optimizer::push_filters(pattern);
  ASSERT_NE(pattern, nullptr) << where;
  EXPECT_FALSE(pattern->to_string().empty()) << where;
  const dqp::PhysicalPlan plan =
      dqp::compile_physical_plan(*pattern, policy, q.form);
  ASSERT_FALSE(plan.ops.empty()) << where;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const dqp::PhysicalOp& op = plan.ops[i];
    ASSERT_EQ(op.id, i) << where;
    ASSERT_TRUE(emitted_kind(op.kind)) << where;
    for (dqp::OpId in : op.inputs) ASSERT_LT(in, i) << where;
    for (dqp::OpId c : op.control) ASSERT_LT(c, i) << where;
    if (op.preferred_end_from != dqp::kNoOp) {
      ASSERT_LT(op.preferred_end_from, i) << where;
    }
  }
  ASSERT_EQ(plan.post, plan.ops.size() - 1) << where;
  EXPECT_EQ(plan.ops[plan.post].kind, dqp::PhysOpKind::kPostProcess) << where;
  ASSERT_LT(plan.ship, plan.ops.size()) << where;
  EXPECT_EQ(plan.ops[plan.ship].kind, dqp::PhysOpKind::kShip) << where;
  EXPECT_FALSE(plan.to_lines().empty()) << where;
}

TEST(ParserFuzz, MutatedQueriesFailCleanlyOrCompile) {
  common::Rng rng(0x5EA2C1);
  const std::vector<std::string> texts = corpus();
  dqp::ExecutionPolicy chain;
  dqp::ExecutionPolicy adaptive;
  adaptive.adaptive = true;
  adaptive.overlap_aware_sites = true;
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string input = texts[rng.below(texts.size())];
    for (std::uint64_t k = rng.between(1, 3); k > 0; --k) {
      input = mutate(rng, std::move(input), texts[rng.below(texts.size())]);
    }
    const std::string where = "iteration " + std::to_string(i) + ": " + input;
    Query q;
    bool ok = false;
    try {
      q = parse_query(input);
      ok = true;
    } catch (const QuerySyntaxError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << where << "\nthrew " << e.what();
    }
    if (!ok) continue;
    ++accepted;
    expect_compiles(q, rng.chance(0.5) ? chain : adaptive, where);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The budget really explored both outcomes.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

}  // namespace
}  // namespace ahsw::sparql
