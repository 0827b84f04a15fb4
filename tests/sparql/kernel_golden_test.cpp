// Goldens for the SPARQL set operators — join, minus, left_join,
// left_join_conditioned, filter_set and deduplicated — and for the
// distributed processor running them: five query classes, healthy and with
// a dead provider, a faulted retry batch, and the lazy-repair re-lookup of
// a conjunction slot that carries a set. All tables but the re-lookup one
// were recorded from the row-at-a-time operators that the id-space kernels
// replaced (nested-loop compatibility checks over materialized terms, a
// string-keyed hash join, normalize() + std::unique for DISTINCT), after
// checking that the kernels produced the same rows in the same order, and
// the processor the same plan notes, response times and traffic, on every
// input. They are the executable record of that path's answers: any kernel
// change that moves a row, reorders one, or changes what a query or a
// retry ships fails here. The re-lookup table was recorded from the
// executor that started a re-lookup's distribution in its own handler,
// before that code was shared with the scan's.
//
// Rows are kept as an FNV-1a digest over Binding::to_string in result
// order, with each operation's row count folded in so set boundaries
// count. A deliberate behaviour change re-baselines a case: the failure
// message prints the observed outcome in the table's own format.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dqp/processor.hpp"
#include "fault/harness.hpp"
#include "sparql/eval.hpp"
#include "workload/testbed.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

std::uint64_t digest_line(std::uint64_t h, std::string_view line) {
  return common::fnv1a64("\n", common::fnv1a64(line, h));
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
  return buf;
}

/// Every output of one operator across a suite's trials.
struct KernelGolden {
  std::string_view suite;
  std::string_view op;
  std::size_t sets = 0;
  std::size_t rows = 0;
  std::uint64_t digest = common::fnv1a64("");

  void fold(const SolutionSet& s) {
    ++sets;
    rows += s.size();
    digest = digest_line(digest, "#" + std::to_string(s.size()));
    for (const Binding& b : s.rows()) {
      digest = digest_line(digest, b.to_string());
    }
  }

  friend bool operator==(const KernelGolden&, const KernelGolden&) = default;
};

std::string to_cpp(const KernelGolden& g) {
  std::ostringstream os;
  os << "    {\"" << g.suite << "\", \"" << g.op << "\", " << g.sets << ", "
     << g.rows << ", " << hex64(g.digest) << "},\n";
  return os.str();
}

// clang-format off
const KernelGolden kKernelGoldens[] = {
    {"join", "join", 60, 433, 0x710668b9aa465642ull},
    {"minus_left_join", "minus", 60, 116, 0x25380baf70de63f6ull},
    {"minus_left_join", "left_join", 60, 578, 0x35bcc3b86f9c5a7bull},
    {"keyed_partial", "join", 60, 891, 0xebfebaff0065dab7ull},
    {"keyed_partial", "left_join", 60, 969, 0xe121177d89cf6ee8ull},
    {"keyed_partial", "minus", 60, 78, 0x9c44097222e6b7aeull},
    {"conditioned_left_join", "x_gt_3", 60, 354, 0xe7585a539ab6c0efull},
    {"conditioned_left_join", "no_condition", 60, 649, 0xd412dc413e96e696ull},
    {"filter_distinct", "filter", 60, 183, 0x3aa04bf12d3c77d1ull},
    {"filter_distinct", "distinct", 60, 322, 0x41ff18bd288c2cc5ull},
    {"edge_cases", "join", 4, 1, 0x68b8105000ee0efeull},
    {"edge_cases", "left_join", 4, 2, 0x56688b300b7cd19full},
    {"edge_cases", "minus", 4, 1, 0x4e1d22b5a7a2e0e6ull},
    {"edge_cases", "distinct", 2, 1, 0x1ff7740120cc38a8ull},
};
// clang-format on

void expect_goldens(const std::vector<KernelGolden>& observed) {
  std::string table;
  for (const KernelGolden& g : observed) table += to_cpp(g);
  for (const KernelGolden& got : observed) {
    const KernelGolden* want = nullptr;
    for (const KernelGolden& g : kKernelGoldens) {
      if (g.suite == got.suite && g.op == got.op) want = &g;
    }
    ASSERT_NE(want, nullptr) << "no golden; observed:\n" << table;
    EXPECT_TRUE(got == *want) << "golden:\n"
                              << to_cpp(*want) << "observed:\n" << table;
  }
}

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

/// Rows binding the join key {x, y} most of the time plus their own
/// variable, so most a-rows probe hash groups of full-key b-rows and also
/// meet the partial b-rows missing part of the key: emission order between
/// the two pools is observable here.
SolutionSet keyed_set(common::Rng& rng, const char* own) {
  SolutionSet s;
  std::size_t rows = rng.below(16);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding row;
    for (const char* v : {"x", "y"}) {
      if (rng.chance(0.85)) {
        row.set(v, Term::iri("http://k/" + std::to_string(rng.below(3))));
      }
    }
    if (rng.chance(0.7)) row.set(own, pool_term(rng));
    s.add(std::move(row));
  }
  return s;
}

constexpr int kTrials = 60;

TEST(KernelGoldens, Join) {
  common::Rng rng(101);
  KernelGolden join_g{"join", "join"};
  for (int trial = 0; trial < kTrials; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    join_g.fold(join(a, b));
  }
  expect_goldens({join_g});
}

TEST(KernelGoldens, MinusAndLeftJoin) {
  common::Rng rng(102);
  KernelGolden minus_g{"minus_left_join", "minus"};
  KernelGolden left_g{"minus_left_join", "left_join"};
  for (int trial = 0; trial < kTrials; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    minus_g.fold(minus(a, b));
    left_g.fold(left_join(a, b));
  }
  expect_goldens({minus_g, left_g});
}

TEST(KernelGoldens, KeyedAndPartialRows) {
  common::Rng rng(105);
  KernelGolden join_g{"keyed_partial", "join"};
  KernelGolden left_g{"keyed_partial", "left_join"};
  KernelGolden minus_g{"keyed_partial", "minus"};
  for (int trial = 0; trial < kTrials; ++trial) {
    SolutionSet a = keyed_set(rng, "a");
    SolutionSet b = keyed_set(rng, "b");
    join_g.fold(join(a, b));
    left_g.fold(left_join(a, b));
    minus_g.fold(minus(a, b));
  }
  expect_goldens({join_g, left_g, minus_g});
}

TEST(KernelGoldens, ConditionedLeftJoin) {
  common::Rng rng(103);
  // ?x > 3 exercises the memoized condition path including type errors
  // (non-numeric terms evaluate to the SPARQL error value -> false).
  ExprPtr cond = Expr::binary(ExprKind::kGt, Expr::variable("x"),
                              Expr::constant_term(Term::integer(3)));
  KernelGolden cond_g{"conditioned_left_join", "x_gt_3"};
  KernelGolden none_g{"conditioned_left_join", "no_condition"};
  for (int trial = 0; trial < kTrials; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    cond_g.fold(left_join_conditioned(a, b, cond));
    none_g.fold(left_join_conditioned(a, b, nullptr));
  }
  expect_goldens({cond_g, none_g});
}

TEST(KernelGoldens, FilterAndDistinct) {
  common::Rng rng(104);
  ExprPtr bound_y = Expr::bound("y");
  ExprPtr cond = Expr::binary(ExprKind::kOr, bound_y,
                              Expr::binary(ExprKind::kEq, Expr::variable("a"),
                                           Expr::variable("b")));
  KernelGolden filter_g{"filter_distinct", "filter"};
  KernelGolden distinct_g{"filter_distinct", "distinct"};
  for (int trial = 0; trial < kTrials; ++trial) {
    SolutionSet s = random_set(rng);
    filter_g.fold(filter_set(s, *cond));
    distinct_g.fold(deduplicated(s));
  }
  expect_goldens({filter_g, distinct_g});
}

TEST(KernelGoldens, EmptyAndEmptyBindingEdgeCases) {
  SolutionSet empty;
  SolutionSet one_empty_row;
  one_empty_row.add(Binding{});
  KernelGolden join_g{"edge_cases", "join"};
  KernelGolden left_g{"edge_cases", "left_join"};
  KernelGolden minus_g{"edge_cases", "minus"};
  KernelGolden distinct_g{"edge_cases", "distinct"};
  for (const SolutionSet* a : {&empty, &one_empty_row}) {
    for (const SolutionSet* b : {&empty, &one_empty_row}) {
      join_g.fold(join(*a, *b));
      left_g.fold(left_join(*a, *b));
      minus_g.fold(minus(*a, *b));
    }
    distinct_g.fold(deduplicated(*a));
  }
  expect_goldens({join_g, left_g, minus_g, distinct_g});
}

}  // namespace
}  // namespace ahsw::sparql

namespace ahsw::dqp {
namespace {

using sparql::digest_line;
using sparql::hex64;

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

using PerCategory = std::array<std::uint64_t, net::kCategoryCount>;

/// A TrafficStats block, frozen.
struct TrafficGolden {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t timeouts = 0;
  PerCategory messages_by{};
  PerCategory bytes_by{};
  PerCategory timeouts_by{};

  friend bool operator==(const TrafficGolden&,
                         const TrafficGolden&) = default;
};

TrafficGolden frozen(const net::TrafficStats& t) {
  TrafficGolden g;
  g.messages = t.messages;
  g.bytes = t.bytes;
  g.raw_bytes = t.raw_bytes;
  g.timeouts = t.timeouts;
  for (std::size_t c = 0; c < g.messages_by.size(); ++c) {
    g.messages_by[c] = t.messages_by[c];
    g.bytes_by[c] = t.bytes_by[c];
    g.timeouts_by[c] = t.timeouts_by[c];
  }
  return g;
}

std::string per_category(const PerCategory& v) {
  std::string out = "{";
  for (std::size_t c = 0; c < v.size(); ++c) {
    out += (c == 0 ? "" : ", ") + std::to_string(v[c]);
  }
  return out + "}";
}

std::string to_cpp(const TrafficGolden& t) {
  std::ostringstream os;
  os << "{" << t.messages << ", " << t.bytes << ", " << t.raw_bytes << ", "
     << t.timeouts << ",\n      " << per_category(t.messages_by) << ", "
     << per_category(t.bytes_by) << ", " << per_category(t.timeouts_by)
     << "}";
  return os.str();
}

/// The frozen outcome of one query on its own fresh testbed: the answer
/// (rows in result order, ASK answer, graph triples) and the plan notes as
/// digests, everything numeric exact. `traffic` is the report's own
/// accounting, `network` the delta the network saw.
struct QueryGolden {
  std::string_view variant;
  std::size_t query_class = 0;
  std::size_t rows = 0;
  std::uint64_t answer_digest = 0;
  std::uint64_t notes_digest = 0;
  double response_time = 0;
  bool complete = true;
  TrafficGolden traffic;
  TrafficGolden network;

  friend bool operator==(const QueryGolden&, const QueryGolden&) = default;
};

std::string to_cpp(const QueryGolden& g) {
  std::ostringstream os;
  os << "    {\"" << g.variant << "\", " << g.query_class << ", " << g.rows
     << ", " << hex64(g.answer_digest) << ", " << hex64(g.notes_digest)
     << ",\n     " << std::hexfloat << g.response_time << std::defaultfloat
     << ", " << (g.complete ? "true" : "false") << ",\n     "
     << to_cpp(g.traffic) << ",\n     " << to_cpp(g.network) << "},\n";
  return os.str();
}

QueryGolden observe(std::string_view variant, std::size_t query_class,
                    const sparql::QueryResult& result,
                    const ExecutionReport& rep,
                    const net::TrafficStats& network) {
  QueryGolden g;
  g.variant = variant;
  g.query_class = query_class;
  g.rows = result.solutions.size();
  g.answer_digest = common::fnv1a64("");
  for (const sparql::Binding& b : result.solutions.rows()) {
    g.answer_digest = digest_line(g.answer_digest, b.to_string());
  }
  g.answer_digest = digest_line(g.answer_digest,
                                result.ask_answer ? "ask:true" : "ask:false");
  for (const rdf::Triple& t : result.graph) {
    g.answer_digest = digest_line(g.answer_digest, t.to_string());
  }
  g.notes_digest = common::fnv1a64("");
  for (const std::string& note : rep.plan_notes) {
    g.notes_digest = digest_line(g.notes_digest, note);
  }
  g.response_time = rep.response_time;
  g.complete = rep.complete;
  g.traffic = frozen(rep.traffic);
  g.network = frozen(network);
  return g;
}

// One query per plan class whose physical operators run the set kernels:
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

// Fields in declaration order: variant, query class, rows, answer digest,
// plan-notes digest; response time, complete; the report's traffic and the
// network's delta, each as messages, bytes, raw bytes, timeouts, then
// messages / bytes / timeouts per net::Category (routing, index, query,
// data, result).
// clang-format off
const QueryGolden kQueryGoldens[] = {
    {"healthy", 0, 171, 0xa978f12e53d94c6cull, 0xad97f117157cb5fbull,
     0x1.88a7ef9db22d1p+4, true,
     {10, 4541, 43702, 0,
      {0, 3, 1, 5, 1}, {0, 176, 71, 3386, 908}, {0, 0, 0, 0, 0}},
     {10, 4541, 43702, 0,
      {0, 3, 1, 5, 1}, {0, 176, 71, 3386, 908}, {0, 0, 0, 0, 0}}},
    {"healthy", 1, 50, 0xff0688a826e7bc3bull, 0xe03b9180f7c57934ull,
     0x1.ce89374bc6a81p+5, true,
     {30, 14310, 61517, 0,
      {0, 9, 3, 17, 1}, {0, 528, 211, 12435, 1136}, {0, 0, 0, 0, 0}},
     {30, 14310, 61517, 0,
      {0, 9, 3, 17, 1}, {0, 528, 211, 12435, 1136}, {0, 0, 0, 0, 0}}},
    {"healthy", 2, 171, 0x49c134d779af0525ull, 0xd86d38556a746d57ull,
     0x1.8d6c8b439580fp+4, true,
     {20, 6472, 48258, 0,
      {0, 6, 2, 11, 1}, {0, 352, 141, 4922, 1057}, {0, 0, 0, 0, 0}},
     {20, 6472, 48258, 0,
      {0, 6, 2, 11, 1}, {0, 352, 141, 4922, 1057}, {0, 0, 0, 0, 0}}},
    {"healthy", 3, 47, 0x198fb6bd8dd734e1ull, 0x7214304fe708cc59ull,
     0x1.77a5e353f7cedp+4, true,
     {19, 4930, 10221, 0,
      {0, 6, 2, 10, 1}, {0, 352, 140, 3468, 970}, {0, 0, 0, 0, 0}},
     {19, 4930, 10221, 0,
      {0, 6, 2, 10, 1}, {0, 352, 140, 3468, 970}, {0, 0, 0, 0, 0}}},
    {"healthy", 4, 47, 0x5539b49314b8b342ull, 0xd5ab2599f85445b6ull,
     0x1.83a9fbe76c8b5p+4, true,
     {10, 4229, 8932, 0,
      {0, 3, 1, 5, 1}, {0, 176, 87, 2922, 1044}, {0, 0, 0, 0, 0}},
     {10, 4229, 8932, 0,
      {0, 3, 1, 5, 1}, {0, 176, 87, 2922, 1044}, {0, 0, 0, 0, 0}}},
    {"dead_provider", 0, 153, 0x42f17810019759bfull, 0xad97f117157cb5fbull,
     0x1.c0578d4fdf3b7p+7, true,
     {11, 4195, 36374, 1,
      {0, 4, 1, 5, 1}, {0, 200, 71, 3070, 854}, {0, 0, 1, 0, 0}},
     {11, 4195, 36374, 1,
      {0, 4, 1, 5, 1}, {0, 200, 71, 3070, 854}, {0, 0, 1, 0, 0}}},
    {"dead_provider", 1, 37, 0x8c1dbda8ad9d471bull, 0xe03b9180f7c57934ull,
     0x1.47dbe76c8b438p+9, true,
     {33, 12283, 48939, 3,
      {0, 12, 3, 17, 1}, {0, 600, 211, 10589, 883}, {0, 0, 3, 0, 0}},
     {33, 12283, 48939, 3,
      {0, 12, 3, 17, 1}, {0, 600, 211, 10589, 883}, {0, 0, 3, 0, 0}}},
    {"dead_provider", 2, 153, 0x6d181894923cd593ull, 0xd86d38556a746d57ull,
     0x1.c13e76c8b4395p+7, true,
     {22, 5987, 40329, 2,
      {0, 8, 2, 11, 1}, {0, 400, 141, 4458, 988}, {0, 0, 2, 0, 0}},
     {22, 5987, 40329, 2,
      {0, 8, 2, 11, 1}, {0, 400, 141, 4458, 988}, {0, 0, 2, 0, 0}}},
    {"dead_provider", 3, 43, 0x514c9176d5c69d75ull, 0x7214304fe708cc59ull,
     0x1.bdf1a9fbe76c8p+7, true,
     {21, 4339, 8566, 2,
      {0, 8, 2, 10, 1}, {0, 400, 140, 2920, 879}, {0, 0, 2, 0, 0}},
     {21, 4339, 8566, 2,
      {0, 8, 2, 10, 1}, {0, 400, 140, 2920, 879}, {0, 0, 2, 0, 0}}},
    {"dead_provider", 4, 42, 0x4666ff6932d58becull, 0xd5ab2599f85445b6ull,
     0x1.bfb020c49ba5ep+7, true,
     {11, 3868, 7862, 1,
      {0, 4, 1, 5, 1}, {0, 200, 87, 2630, 951}, {0, 0, 1, 0, 0}},
     {11, 3868, 7862, 1,
      {0, 4, 1, 5, 1}, {0, 200, 87, 2630, 951}, {0, 0, 1, 0, 0}}},
};
// clang-format on

/// Run one query class on a fresh testbed (execution mutates index state
/// through lazy repairs, so cases must not share one) and compare its
/// outcome with the frozen one.
void expect_query_golden(std::size_t query_class, bool kill_provider) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay(), ExecutionPolicy{});
  if (kill_provider) {
    bed.overlay().storage_node_fail(bed.storage_addrs()[2]);
  }
  const std::string query =
      std::string(kPrologue) + kQueryClasses[query_class];
  ExecutionReport rep;
  const net::TrafficStats before = bed.network().stats();
  const sparql::QueryResult result =
      proc.execute(query, bed.storage_addrs().front(), &rep);
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  const std::string_view variant =
      kill_provider ? "dead_provider" : "healthy";
  const QueryGolden got = observe(variant, query_class, result, rep, delta);
  const QueryGolden* want = nullptr;
  for (const QueryGolden& g : kQueryGoldens) {
    if (g.variant == variant && g.query_class == query_class) want = &g;
  }
  ASSERT_NE(want, nullptr) << "no golden; observed:\n" << to_cpp(got);
  EXPECT_TRUE(got == *want) << query << "\ngolden:\n"
                            << to_cpp(*want) << "observed:\n"
                            << to_cpp(got);
}

class QueryClassGoldens : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueryClassGoldens, HealthySystem) {
  expect_query_golden(GetParam(), /*kill_provider=*/false);
}

TEST_P(QueryClassGoldens, DeadProvider) {
  expect_query_golden(GetParam(), /*kill_provider=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    QueryClasses, QueryClassGoldens,
    ::testing::Range<std::size_t>(0, std::size(kQueryClasses)));

/// The frozen outcome of the faulted batch: answers and plan notes as
/// digests over the queries in batch order, everything numeric exact.
/// `queries` is each query's report traffic in batch order, `network` the
/// delta the network saw over the whole batch.
constexpr std::size_t kBatchQueries = 4;

struct BatchGolden {
  std::size_t rows = 0;
  std::uint64_t rows_digest = 0;
  std::uint64_t notes_digest = 0;
  int retries = 0;
  int dead_providers_skipped = 0;
  double makespan = 0;
  std::array<TrafficGolden, kBatchQueries> queries{};
  TrafficGolden network;

  friend bool operator==(const BatchGolden&, const BatchGolden&) = default;
};

std::string to_cpp(const BatchGolden& g) {
  std::ostringstream os;
  os << "    " << g.rows << ", " << hex64(g.rows_digest) << ", "
     << hex64(g.notes_digest) << ",\n    " << g.retries << ", "
     << g.dead_providers_skipped << ", " << std::hexfloat << g.makespan
     << std::defaultfloat << ",\n    {{";
  for (std::size_t i = 0; i < g.queries.size(); ++i) {
    os << (i == 0 ? "" : ",\n      ") << to_cpp(g.queries[i]);
  }
  os << "}},\n    " << to_cpp(g.network) << ",\n";
  return os.str();
}

// clang-format off
const BatchGolden kFaultedBatch = {
    217, 0x6db4014f64ee49f0ull, 0xbb4c4ca4c5370a4eull,
    4, 4, 0x1.b714395810625p+8,
    {{{12, 4975, 43792, 2,
      {0, 4, 1, 6, 1}, {0, 200, 71, 3874, 830}, {0, 0, 2, 0, 0}},
      {13, 4431, 9428, 2,
      {2, 3, 2, 5, 1}, {128, 168, 143, 2781, 1211}, {0, 0, 2, 0, 0}},
      {14, 5103, 43920, 2,
      {2, 4, 1, 6, 1}, {128, 200, 71, 3874, 830}, {0, 0, 2, 0, 0}},
      {13, 1790, 3377, 2,
      {2, 4, 1, 6, 0}, {128, 200, 70, 1392, 0}, {0, 0, 2, 0, 0}}}},
    {1023, 56283, 140501, 8,
      {423, 569, 5, 23, 3}, {27072, 14064, 355, 11921, 2871}, {0, 0, 8, 0, 0}},
};
// clang-format on

/// Faulted batch with retries: mid-batch provider failure, repair,
/// recovery. The retry/relookup paths re-ship carried solution sets, so
/// they exercise the merge accumulator and the re-charging of what it
/// holds.
TEST(KernelGoldens, FaultedRetryBatch) {
  const char* bodies[kBatchQueries] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?x WHERE { ?x foaf:nick ?k . }",
  };
  workload::Testbed bed(config());
  ExecutionPolicy policy;
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
  const net::TrafficStats before = bed.network().stats();
  const fault::FaultRunResult run = fault::run_with_faults(
      proc, bed.overlay(), batch, schedule, BatchOptions{});
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  ASSERT_EQ(run.batch.results.size(), kBatchQueries);
  BatchGolden got;
  got.rows_digest = common::fnv1a64("");
  got.notes_digest = common::fnv1a64("");
  for (std::size_t i = 0; i < run.batch.results.size(); ++i) {
    const sparql::QueryResult& r = run.batch.results[i];
    const ExecutionReport& rep = run.batch.reports[i];
    got.rows += r.solutions.size();
    got.rows_digest = digest_line(
        got.rows_digest, "#" + std::to_string(r.solutions.size()) + " ask " +
                             (r.ask_answer ? "true" : "false"));
    for (const sparql::Binding& b : r.solutions.rows()) {
      got.rows_digest = digest_line(got.rows_digest, b.to_string());
    }
    got.notes_digest = digest_line(got.notes_digest, "#" + std::to_string(i));
    for (const std::string& note : rep.plan_notes) {
      got.notes_digest = digest_line(got.notes_digest, note);
    }
    got.retries += rep.retries;
    got.dead_providers_skipped += rep.dead_providers_skipped;
    got.queries[i] = frozen(rep.traffic);
  }
  got.makespan = run.batch.makespan;
  got.network = frozen(delta);

  EXPECT_GT(got.retries + got.dead_providers_skipped, 0)
      << "fault did not bite; the batch pins nothing";
  EXPECT_TRUE(got == kFaultedBatch) << "golden:\n"
                                    << to_cpp(kFaultedBatch) << "observed:\n"
                                    << to_cpp(got);
}

// The lazy-repair re-lookup of a conjunction's second slot, which must
// re-distribute the set carried from slot 0: Basic gathers it at the
// assembly site, FreqChain ships it to the new chain's first provider. The
// only provider of the slot-1 pattern is dead from t=0; in the "rejoined"
// cases it rejoins at 100 ms, while the slot times out, so the re-lookup
// finds it again; in the "gone" cases it stays dead and the re-lookup
// comes back empty, so the scan completes empty at the carry's site.
// clang-format off
const QueryGolden kRelookupGoldens[] = {
    {"basic rejoined", 0, 2, 0x3e1d990540c12793ull, 0x968d9f60b05d74faull,
     0x1.c986a7ef9db24p+7, true,
     {23, 1229, 1398, 1,
      {4, 10, 4, 4, 1}, {256, 328, 342, 238, 65}, {0, 0, 1, 0, 0}},
     {116, 5701, 5870, 1,
      {60, 47, 4, 4, 1}, {3840, 1216, 342, 238, 65}, {0, 0, 1, 0, 0}}},
    {"basic gone", 0, 0, 0xb51c355e2e9719f3ull, 0x968d9f60b05d74faull,
     0x1.c1028f5c28f5cp+7, true,
     {20, 923, 924, 1,
      {4, 10, 3, 2, 1}, {256, 312, 272, 80, 3}, {0, 0, 1, 0, 0}},
     {20, 923, 924, 1,
      {4, 10, 3, 2, 1}, {256, 312, 272, 80, 3}, {0, 0, 1, 0, 0}}},
    {"freq-chain rejoined", 0, 2, 0x3e1d990540c12793ull, 0x968d9f60b05d74faull,
     0x1.c585a1cac0831p+7, true,
     {21, 1127, 1210, 1,
      {4, 10, 3, 3, 1}, {256, 328, 241, 237, 65}, {0, 0, 1, 0, 0}},
     {114, 5599, 5682, 1,
      {60, 47, 3, 3, 1}, {3840, 1216, 241, 237, 65}, {0, 0, 1, 0, 0}}},
    {"freq-chain gone", 0, 0, 0xb51c355e2e9719f3ull, 0x968d9f60b05d74faull,
     0x1.c139db22d0e56p+7, true,
     {19, 931, 960, 1,
      {4, 10, 2, 2, 1}, {256, 312, 171, 189, 3}, {0, 0, 1, 0, 0}},
     {19, 931, 960, 1,
      {4, 10, 2, 2, 1}, {256, 312, 171, 189, 3}, {0, 0, 1, 0, 0}}},
};
// clang-format on

QueryGolden observe_relookup(std::string_view variant,
                             optimizer::PrimitiveStrategy strategy,
                             bool rejoin) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);
  const rdf::Term knows = rdf::Term::iri("http://xmlns.com/foaf/0.1/knows");
  const rdf::Term name = rdf::Term::iri("http://xmlns.com/foaf/0.1/name");
  const rdf::Term target = rdf::Term::iri("http://example.org/people/p0");
  auto person = [](int i) {
    return rdf::Term::iri("http://example.org/people/s" + std::to_string(i));
  };
  // Slot 0 (the rarer pattern): two knows triples on storage nodes 1 and 2.
  // Slot 1: five names, all on node 0, the victim.
  bed.overlay().share_triples(bed.storage_addrs()[1],
                              {{person(0), knows, target}}, 0);
  bed.overlay().share_triples(bed.storage_addrs()[2],
                              {{person(1), knows, target}}, 0);
  std::vector<rdf::Triple> names;
  for (int i = 0; i < 5; ++i) {
    names.push_back({person(i), name,
                     rdf::Term::literal("s" + std::to_string(i))});
  }
  const net::NodeAddress victim = bed.storage_addrs()[0];
  bed.overlay().share_triples(victim, names, 0);

  ExecutionPolicy policy;
  policy.primitive = strategy;
  policy.retry.relookup = true;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  const std::string query =
      std::string(kPrologue) +
      "SELECT ?x ?n WHERE { ?x foaf:knows <http://example.org/people/p0> . "
      "?x foaf:name ?n . }";
  const BatchQuery q{sparql::parse_query(query), bed.storage_addrs()[3]};
  fault::FaultSchedule schedule;
  schedule.storage_fail(0, victim);
  if (rejoin) schedule.rejoin(100, victim);
  const net::TrafficStats before = bed.network().stats();
  const fault::FaultRunResult run =
      fault::run_with_faults(proc, bed.overlay(), {q}, schedule);
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  const ExecutionReport& rep = run.batch.reports.front();
  EXPECT_EQ(rep.relookups, 1) << variant << ": the re-lookup did not run";
  EXPECT_GT(rep.dead_providers_skipped, 0) << variant;
  return observe(variant, 0, run.batch.results.front(), rep, delta);
}

TEST(KernelGoldens, RelookupWithCarry) {
  struct Case {
    std::string_view variant;
    optimizer::PrimitiveStrategy strategy;
    bool rejoin;
  };
  const Case cases[] = {
      {"basic rejoined", optimizer::PrimitiveStrategy::kBasic, true},
      {"basic gone", optimizer::PrimitiveStrategy::kBasic, false},
      {"freq-chain rejoined", optimizer::PrimitiveStrategy::kFrequencyChain,
       true},
      {"freq-chain gone", optimizer::PrimitiveStrategy::kFrequencyChain,
       false},
  };
  for (const Case& c : cases) {
    const QueryGolden got = observe_relookup(c.variant, c.strategy, c.rejoin);
    const QueryGolden* want = nullptr;
    for (const QueryGolden& g : kRelookupGoldens) {
      if (g.variant == c.variant) want = &g;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no golden; observed:\n" << to_cpp(got);
      continue;
    }
    EXPECT_TRUE(got == *want) << c.variant << "\ngolden:\n"
                              << to_cpp(*want) << "observed:\n"
                              << to_cpp(got);
  }
}

}  // namespace
}  // namespace ahsw::dqp
