// Solution sequence modifier edge cases (Sect. IV-A lists them as one of
// the four building blocks): ORDER BY with multiple keys, OFFSET past the
// end, LIMIT 0, REDUCED, interaction of DISTINCT with ORDER BY.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "rdf/store.hpp"
#include "sparql/eval.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

rdf::TripleStore people() {
  rdf::TripleStore s;
  auto add = [&](const std::string& who, int age, const std::string& team) {
    Term p = Term::iri("http://people/" + who);
    s.insert({p, Term::iri("http://age"), Term::integer(age)});
    s.insert({p, Term::iri("http://team"), Term::literal(team)});
  };
  add("ann", 30, "red");
  add("bob", 25, "red");
  add("cid", 30, "blue");
  add("dee", 25, "blue");
  return s;
}

QueryResult run(const std::string& q) {
  rdf::TripleStore store = people();
  return execute_local(parse_query(q), store);
}

TEST(Modifiers, MultiKeyOrderBy) {
  QueryResult r = run(
      "SELECT ?x ?a ?t WHERE { ?x <http://age> ?a . ?x <http://team> ?t . } "
      "ORDER BY ?t DESC(?a)");
  ASSERT_EQ(r.solutions.size(), 4u);
  // blue before red (asc team); within team, age descending.
  EXPECT_EQ(*r.solutions.rows()[0].get("x"), Term::iri("http://people/cid"));
  EXPECT_EQ(*r.solutions.rows()[1].get("x"), Term::iri("http://people/dee"));
  EXPECT_EQ(*r.solutions.rows()[2].get("x"), Term::iri("http://people/ann"));
  EXPECT_EQ(*r.solutions.rows()[3].get("x"), Term::iri("http://people/bob"));
}

TEST(Modifiers, OrderByIsStableForTies) {
  QueryResult a = run(
      "SELECT ?x WHERE { ?x <http://age> ?a . } ORDER BY ?a");
  QueryResult b = run(
      "SELECT ?x WHERE { ?x <http://age> ?a . } ORDER BY ?a");
  EXPECT_EQ(a.solutions.rows(), b.solutions.rows());
}

TEST(Modifiers, OffsetPastEndYieldsEmpty) {
  QueryResult r =
      run("SELECT ?x WHERE { ?x <http://age> ?a . } ORDER BY ?x OFFSET 99");
  EXPECT_TRUE(r.solutions.empty());
}

TEST(Modifiers, LimitZeroYieldsEmpty) {
  QueryResult r =
      run("SELECT ?x WHERE { ?x <http://age> ?a . } LIMIT 0");
  EXPECT_TRUE(r.solutions.empty());
}

TEST(Modifiers, LimitLargerThanResultIsHarmless) {
  QueryResult r =
      run("SELECT ?x WHERE { ?x <http://age> ?a . } LIMIT 1000");
  EXPECT_EQ(r.solutions.size(), 4u);
}

TEST(Modifiers, OffsetAndLimitCombine) {
  QueryResult r = run(
      "SELECT ?x WHERE { ?x <http://age> ?a . } ORDER BY ?x OFFSET 1 LIMIT "
      "2");
  ASSERT_EQ(r.solutions.size(), 2u);
  EXPECT_EQ(*r.solutions.rows()[0].get("x"), Term::iri("http://people/bob"));
  EXPECT_EQ(*r.solutions.rows()[1].get("x"), Term::iri("http://people/cid"));
}

TEST(Modifiers, DistinctAfterProjection) {
  // Projection to ?a makes rows collide; DISTINCT collapses them.
  QueryResult all = run("SELECT ?a WHERE { ?x <http://age> ?a . }");
  EXPECT_EQ(all.solutions.size(), 4u);
  QueryResult distinct =
      run("SELECT DISTINCT ?a WHERE { ?x <http://age> ?a . }");
  EXPECT_EQ(distinct.solutions.size(), 2u);
}

TEST(Modifiers, DistinctPreservesOrderBy) {
  QueryResult r = run(
      "SELECT DISTINCT ?a WHERE { ?x <http://age> ?a . } ORDER BY DESC(?a)");
  ASSERT_EQ(r.solutions.size(), 2u);
  double first = 0, second = 0;
  ASSERT_TRUE(r.solutions.rows()[0].get("a")->numeric_value(first));
  ASSERT_TRUE(r.solutions.rows()[1].get("a")->numeric_value(second));
  EXPECT_GT(first, second);
}

TEST(Modifiers, ReducedCollapsesAdjacentDuplicatesOnly) {
  // After normalization (no ORDER BY), duplicates are adjacent, so REDUCED
  // behaves like DISTINCT here; the test pins that behavior down.
  QueryResult r = run("SELECT REDUCED ?a WHERE { ?x <http://age> ?a . }");
  EXPECT_EQ(r.solutions.size(), 2u);
}

TEST(Modifiers, OrderByUnboundSortsFirst) {
  QueryResult r = run(
      "SELECT ?x ?n WHERE { ?x <http://age> ?a . "
      "OPTIONAL { ?x <http://nick> ?n . } } ORDER BY ?n ?x");
  ASSERT_EQ(r.solutions.size(), 4u);  // nobody has a nick: all unbound, tie
}

/// One value per subject under <http://p>, plus subjects that bind none.
rdf::TripleStore mixed_kinds(const std::vector<Term>& values,
                             int unbound_subjects) {
  rdf::TripleStore s;
  int n = 0;
  for (const Term& v : values) {
    const Term subj = Term::iri("http://s/" + std::to_string(n++));
    s.insert({subj, Term::iri("http://is"), Term::literal("x")});
    s.insert({subj, Term::iri("http://p"), v});
  }
  for (int i = 0; i < unbound_subjects; ++i) {
    s.insert({Term::iri("http://s/" + std::to_string(n++)),
              Term::iri("http://is"), Term::literal("x")});
  }
  return s;
}

/// The ?v column of the ordered result, "" for an unbound slot.
std::vector<std::string> ordered_values(const rdf::TripleStore& store,
                                        const std::string& direction) {
  QueryResult r = execute_local(
      parse_query("SELECT ?s ?v WHERE { ?s <http://is> \"x\" . OPTIONAL { "
                  "?s <http://p> ?v . } } ORDER BY " +
                  direction + "(?v)"),
      store);
  std::vector<std::string> out;
  for (const Binding& b : r.solutions.rows()) {
    const Term* v = b.get("v");
    out.push_back(v != nullptr ? v->to_string() : "");
  }
  return out;
}

TEST(Modifiers, OrderByRanksKindsBlankIriLiteral) {
  // Surface order would put the literal first and the blank node last.
  rdf::TripleStore store = mixed_kinds(
      {Term::literal("b"), Term::iri("http://z"), Term::blank("n1")}, 0);
  EXPECT_EQ(ordered_values(store, "ASC"),
            (std::vector<std::string>{"_:n1", "<http://z>", "\"b\""}));
  EXPECT_EQ(ordered_values(store, "DESC"),
            (std::vector<std::string>{"\"b\"", "<http://z>", "_:n1"}));
}

TEST(Modifiers, OrderByKindPrecedenceKeepsOrderWithinKind) {
  rdf::TripleStore store = mixed_kinds(
      {Term::integer(10), Term::iri("http://b"), Term::blank("y"),
       Term::integer(9), Term::iri("http://a"), Term::blank("x"),
       Term::literal("zeta")},
      0);
  const std::string ten = Term::integer(10).to_string();
  const std::string nine = Term::integer(9).to_string();
  // Numbers compare numerically within the literals (9 before 10).
  EXPECT_EQ(ordered_values(store, "ASC"),
            (std::vector<std::string>{"_:x", "_:y", "<http://a>",
                                      "<http://b>", nine, ten,
                                      "\"zeta\""}));
  EXPECT_EQ(ordered_values(store, "DESC"),
            (std::vector<std::string>{"\"zeta\"", ten, nine, "<http://b>",
                                      "<http://a>", "_:y", "_:x"}));
}

TEST(Modifiers, OrderByUnboundSortsBeforeEveryKind) {
  for (const Term& t : {Term::blank("n"), Term::iri("http://i"),
                        Term::literal("l"), Term::integer(-5)}) {
    rdf::TripleStore store = mixed_kinds({t}, 1);
    EXPECT_EQ(ordered_values(store, "ASC"),
              (std::vector<std::string>{"", t.to_string()}))
        << t.to_string();
    EXPECT_EQ(ordered_values(store, "DESC"),
              (std::vector<std::string>{t.to_string(), ""}))
        << t.to_string();
  }
}

/// SPARQL 1.1 §15.1 on two key values, evaluated per comparison: the
/// reference the memoized sort is held to.
int reference_compare(const ExprValue& x, const ExprValue& y) {
  auto kind = [](const Term& t) {
    return t.is_blank() ? 0 : t.is_iri() ? 1 : 2;
  };
  if (!x || !y) return !x && !y ? 0 : (!x ? -1 : 1);
  if (kind(*x) != kind(*y)) return kind(*x) < kind(*y) ? -1 : 1;
  double nx = 0.0, ny = 0.0;
  if (x->numeric_value(nx) && y->numeric_value(ny)) {
    return nx < ny ? -1 : (nx > ny ? 1 : 0);
  }
  const int c = x->to_string().compare(y->to_string());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

TEST(Modifiers, MemoizedOrderEqualsPerComparisonSort) {
  // Keys over every kind, unbound slots and many ties; the literals keep
  // the numeric/surface comparison transitive (numbers are non-negative
  // and every plain literal starts with a letter), so the per-comparison
  // sort is well defined. Ties must keep their input order.
  common::Rng rng(0x0DE7);
  auto term = [&]() {
    switch (rng.below(5)) {
      case 0: return Term::iri("http://o/" + std::to_string(rng.below(4)));
      case 1: return Term::blank("n" + std::to_string(rng.below(3)));
      case 2: return Term::integer(static_cast<long long>(rng.below(12)));
      case 3: return Term::real(static_cast<double>(rng.below(12)) / 4);
      default:
        return Term::literal(
            std::string(1, static_cast<char>('a' + rng.below(4))));
    }
  };
  const std::vector<std::vector<OrderCondition>> orders = {
      {{Expr::variable("x"), true}},
      {{Expr::variable("x"), false}},
      {{Expr::variable("x"), true}, {Expr::variable("y"), false}},
      {{Expr::binary(ExprKind::kAdd, Expr::variable("x"),
                     Expr::variable("y")),
        true},
       {Expr::unary(ExprKind::kStr, Expr::variable("y")), true}},
      {{Expr::variable("absent"), true}, {Expr::variable("y"), true}},
  };
  for (int trial = 0; trial < 100; ++trial) {
    SolutionSet s;
    const std::size_t rows = rng.below(40);
    for (std::size_t r = 0; r < rows; ++r) {
      Binding b;
      if (rng.chance(0.8)) b.set("x", term());
      if (rng.chance(0.7)) b.set("y", term());
      b.set("id", Term::integer(static_cast<long long>(r)));
      s.add(b);
    }
    for (const std::vector<OrderCondition>& order : orders) {
      std::vector<Binding> expected = s.bindings();
      std::stable_sort(expected.begin(), expected.end(),
                       [&](const Binding& a, const Binding& b) {
                         for (const OrderCondition& cond : order) {
                           const int c =
                               reference_compare(evaluate(*cond.expr, a),
                                                 evaluate(*cond.expr, b));
                           if (c != 0) return cond.ascending ? c < 0 : c > 0;
                         }
                         return false;
                       });
      Query q;
      q.select_vars = {"id", "x", "y"};
      q.order_by = order;
      const QueryResult sorted = finalize_result(q, s, nullptr);
      ASSERT_EQ(sorted.solutions.bindings(), expected) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ahsw::sparql
