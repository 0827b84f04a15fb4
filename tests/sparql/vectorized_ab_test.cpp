// A/B equivalence of the vectorized (dictionary-id) kernels against the
// legacy row-at-a-time operators, at two levels: the sparql set algebra
// directly (random operand sets, exact row-order identity), and the full
// distributed processor (five query classes; result rows, plan notes and
// per-category traffic must be byte-identical with ExecutionPolicy::
// vectorized on and off, including under a faulted/retry batch). The
// toggle is a pure execution detail — if any observable diverges, one of
// the kernels is wrong.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dqp/processor.hpp"
#include "fault/harness.hpp"
#include "sparql/columnar.hpp"
#include "sparql/eval.hpp"
#include "workload/testbed.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

Term pool_term(common::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return Term::iri("http://t/" + std::to_string(rng.below(8)));
    case 1: return Term::literal("v" + std::to_string(rng.below(8)));
    case 2: return Term::integer(static_cast<long long>(rng.below(8)));
    default: return Term::lang_literal("w" + std::to_string(rng.below(4)),
                                       "en");
  }
}

/// Random set over a small shared var/term pool so joins hit, OPTIONAL
/// rows sometimes miss shared vars, and duplicates occur.
SolutionSet random_set(common::Rng& rng) {
  static const char* kVars[] = {"a", "b", "x", "y"};
  SolutionSet s;
  std::size_t rows = rng.below(12);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding row;
    for (const char* v : kVars) {
      if (rng.chance(0.55)) row.set(v, pool_term(rng));
    }
    s.add(std::move(row));
  }
  return s;
}

TEST(VectorizedKernels, JoinMatchesLegacyRowForRow) {
  common::Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(join(a, b, true).rows(), join(a, b, false).rows())
        << "trial " << trial;
  }
}

TEST(VectorizedKernels, MinusAndLeftJoinMatchLegacy) {
  common::Rng rng(102);
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(minus(a, b, true).rows(), minus(a, b, false).rows())
        << "trial " << trial;
    EXPECT_EQ(left_join(a, b, true).rows(), left_join(a, b, false).rows())
        << "trial " << trial;
  }
}

TEST(VectorizedKernels, ConditionedLeftJoinMatchesLegacy) {
  common::Rng rng(103);
  // ?x > 3 exercises the memoized condition path including type errors
  // (non-numeric terms evaluate to the SPARQL error value -> false).
  ExprPtr cond = Expr::binary(ExprKind::kGt, Expr::variable("x"),
                              Expr::constant_term(Term::integer(3)));
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(left_join_conditioned(a, b, cond, true).rows(),
              left_join_conditioned(a, b, cond, false).rows())
        << "trial " << trial;
    EXPECT_EQ(left_join_conditioned(a, b, nullptr, true).rows(),
              left_join_conditioned(a, b, nullptr, false).rows())
        << "trial " << trial;
  }
}

TEST(VectorizedKernels, FilterAndDistinctMatchLegacy) {
  common::Rng rng(104);
  ExprPtr bound_y = Expr::bound("y");
  ExprPtr cond = Expr::binary(ExprKind::kOr, bound_y,
                              Expr::binary(ExprKind::kEq, Expr::variable("a"),
                                           Expr::variable("b")));
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet s = random_set(rng);
    EXPECT_EQ(filter_set(s, *cond, true).rows(),
              filter_set(s, *cond, false).rows())
        << "trial " << trial;
    EXPECT_EQ(deduplicated(s, true).rows(), deduplicated(s, false).rows())
        << "trial " << trial;
  }
}

TEST(VectorizedKernels, EmptyAndEmptyBindingEdgeCases) {
  SolutionSet empty;
  SolutionSet one_empty_row;
  one_empty_row.add(Binding{});
  for (const SolutionSet* a : {&empty, &one_empty_row}) {
    for (const SolutionSet* b : {&empty, &one_empty_row}) {
      EXPECT_EQ(join(*a, *b, true).rows(), join(*a, *b, false).rows());
      EXPECT_EQ(left_join(*a, *b, true).rows(),
                left_join(*a, *b, false).rows());
      EXPECT_EQ(minus(*a, *b, true).rows(), minus(*a, *b, false).rows());
    }
    EXPECT_EQ(deduplicated(*a, true).rows(), deduplicated(*a, false).rows());
  }
}

}  // namespace
}  // namespace ahsw::sparql

namespace ahsw::dqp {
namespace {

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = 91;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 92;
  cfg.overlay.seed = 93;
  return cfg;
}

void expect_traffic_eq(const net::TrafficStats& a, const net::TrafficStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.raw_bytes, b.raw_bytes) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    EXPECT_EQ(a.messages_by[c], b.messages_by[c]) << what << " category " << c;
    EXPECT_EQ(a.bytes_by[c], b.bytes_by[c]) << what << " category " << c;
    EXPECT_EQ(a.timeouts_by[c], b.timeouts_by[c]) << what << " category " << c;
  }
}

struct Outcome {
  sparql::QueryResult result;
  ExecutionReport rep;
  net::TrafficStats delta;
};

/// Run one query on a fresh identical testbed with the toggle set. Fresh
/// beds per arm: execution mutates index state (lazy repairs), and the A/B
/// must cover that mutation order too.
Outcome run_arm(bool vectorized, const std::string& query,
                bool kill_provider) {
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.vectorized = vectorized;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  if (kill_provider) {
    bed.overlay().storage_node_fail(bed.storage_addrs()[2]);
  }
  Outcome out;
  const net::TrafficStats before = bed.network().stats();
  out.result = proc.execute(query, bed.storage_addrs().front(), &out.rep);
  out.delta = bed.network().stats().delta_since(before);
  return out;
}

void expect_toggle_invisible(const std::string& body,
                             bool kill_provider = false) {
  std::string query = std::string(kPrologue) + body;
  Outcome vec = run_arm(true, query, kill_provider);
  Outcome row = run_arm(false, query, kill_provider);
  EXPECT_EQ(vec.result.solutions.rows(), row.result.solutions.rows()) << query;
  EXPECT_EQ(vec.result.graph, row.result.graph) << query;
  EXPECT_EQ(vec.result.ask_answer, row.result.ask_answer) << query;
  EXPECT_EQ(vec.rep.plan_notes, row.rep.plan_notes) << query;
  EXPECT_EQ(vec.rep.response_time, row.rep.response_time) << query;
  EXPECT_EQ(vec.rep.complete, row.rep.complete) << query;
  expect_traffic_eq(vec.rep.traffic, row.rep.traffic, query);
  expect_traffic_eq(vec.delta, row.delta, query + " (network delta)");
}

// One query per plan class whose physical operators the toggle touches:
// primitive scan, conjunctive join chain, OPTIONAL (conditioned left
// join), UNION + merge dedup, FILTER.
const char* kQueryClasses[] = {
    "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
    "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . "
    "?o foaf:nick ?k . }",
    "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
    "OPTIONAL { ?y foaf:nick ?n . } }",
    "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION { ?x foaf:mbox ?m . } }",
    "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
};

class VectorizedToggle : public ::testing::TestWithParam<const char*> {};

TEST_P(VectorizedToggle, InvisibleOnHealthySystem) {
  expect_toggle_invisible(GetParam());
}

TEST_P(VectorizedToggle, InvisibleWithDeadProvider) {
  expect_toggle_invisible(GetParam(), /*kill_provider=*/true);
}

INSTANTIATE_TEST_SUITE_P(QueryClasses, VectorizedToggle,
                         ::testing::ValuesIn(kQueryClasses));

/// Faulted batch with retries: mid-batch provider failure, repair,
/// recovery. The retry/relookup paths re-ship carried solution sets, so
/// they exercise the vectorized merge + re-charging code.
TEST(VectorizedToggle, InvisibleUnderFaultedRetryBatch) {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?x WHERE { ?x foaf:nick ?k . }",
  };
  auto run = [&](bool vectorized) {
    workload::Testbed bed(config());
    ExecutionPolicy policy;
    policy.vectorized = vectorized;
    policy.retry.max_retries = 1;
    policy.retry.relookup = true;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    std::vector<BatchQuery> batch;
    for (std::size_t i = 0; i < std::size(bodies); ++i) {
      batch.push_back(
          BatchQuery{sparql::parse_query(std::string(kPrologue) + bodies[i]),
                     bed.storage_addrs()[i % bed.storage_addrs().size()]});
    }
    const net::NodeAddress victim = bed.storage_addrs()[4];
    fault::FaultSchedule schedule;
    schedule.storage_fail(4.0, victim)
        .repair(500.0)
        .recover(600.0, victim)
        .rejoin(650.0, victim);
    struct {
      fault::FaultRunResult run;
      net::TrafficStats delta;
    } out;
    const net::TrafficStats before = bed.network().stats();
    out.run = fault::run_with_faults(proc, bed.overlay(), batch, schedule,
                                     BatchOptions{});
    out.delta = bed.network().stats().delta_since(before);
    return out;
  };
  auto vec = run(true);
  auto row = run(false);
  ASSERT_EQ(vec.run.batch.results.size(), row.run.batch.results.size());
  int retries = 0;
  for (std::size_t i = 0; i < vec.run.batch.results.size(); ++i) {
    EXPECT_EQ(vec.run.batch.results[i].solutions.rows(),
              row.run.batch.results[i].solutions.rows())
        << i;
    EXPECT_EQ(vec.run.batch.reports[i].plan_notes,
              row.run.batch.reports[i].plan_notes)
        << i;
    expect_traffic_eq(vec.run.batch.reports[i].traffic,
                      row.run.batch.reports[i].traffic,
                      "query " + std::to_string(i));
    retries += row.run.batch.reports[i].retries +
               row.run.batch.reports[i].dead_providers_skipped;
  }
  EXPECT_GT(retries, 0) << "fault did not bite; the variant pins nothing";
  EXPECT_EQ(vec.run.batch.makespan, row.run.batch.makespan);
  expect_traffic_eq(vec.delta, row.delta, "faulted batch delta");
}

}  // namespace
}  // namespace ahsw::dqp
