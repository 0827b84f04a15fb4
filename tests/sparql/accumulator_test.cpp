// Property suite for the id-space merge accumulator: after every add, the
// accumulated set must be exactly what the whole-set rebuild it replaces
// computes — rows, raw size and wire size. The reference shares no code
// with the accumulator: DISTINCT is normalize() + std::unique over Binding
// rows, written out here because deduplicated() itself runs on the
// accumulator, and the carry join is the hash join of sparql::join, which
// does not use the accumulator's carry probe. The id intake (rows read from
// a provider store) is held to the string intake fed with
// LocalEngine::match_pattern of the same store.
#include "sparql/accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "rdf/store.hpp"
#include "rdf/term.hpp"
#include "sparql/eval.hpp"
#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

/// Draws from well over 128 distinct terms, so a new term shifts the ranks
/// of later ones across the 1 -> 2 byte varint boundary.
Term random_term(common::Rng& rng) {
  switch (rng.below(5)) {
    case 0: return Term::iri("http://example.org/r/" +
                             std::to_string(rng.below(300)));
    case 1: return Term::literal("value " + std::to_string(rng.below(60)));
    case 2: return Term::lang_literal("wort " + std::to_string(rng.below(9)),
                                      rng.chance(0.5) ? "de" : "en");
    case 3: return Term::integer(static_cast<long long>(rng.below(80)));
    default: return Term::blank("b" + std::to_string(rng.below(20)));
  }
}

Binding random_row(common::Rng& rng, const std::vector<std::string>& vars,
                   double bound) {
  Binding b;
  for (const std::string& v : vars) {
    if (rng.chance(bound)) b.set(v, random_term(rng));
  }
  return b;
}

/// A contribution: fresh rows, some with unbound slots, plus repeats of
/// rows seen on earlier hops and within this one.
SolutionSet random_contribution(common::Rng& rng,
                                const std::vector<std::string>& vars,
                                std::vector<Binding>& seen) {
  SolutionSet s;
  const std::size_t rows = rng.below(25);
  for (std::size_t r = 0; r < rows; ++r) {
    if (!seen.empty() && rng.chance(0.3)) {
      s.add(seen[rng.below(seen.size())]);
      continue;
    }
    Binding b = random_row(rng, vars, 0.85);
    seen.push_back(b);
    s.add(std::move(b));
  }
  return s;
}

/// Canonically sorted, duplicates removed: the set the accumulator must
/// hold, computed without it.
SolutionSet distinct_rows(SolutionSet s) {
  s.normalize();
  auto& rows = s.rows();
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return s;
}

/// The accumulator against the reference after one add.
void expect_matches(const ChainAccumulator& acc, const SolutionSet& expected,
                    const std::string& where) {
  SolutionSet got = acc.materialize();
  ASSERT_EQ(got.rows(), expected.rows()) << where;
  EXPECT_EQ(acc.parts().rows, expected.size()) << where;
  EXPECT_EQ(acc.byte_size(), expected.byte_size()) << where;
  const std::size_t wire = net::wire::charged_bytes(acc);
  EXPECT_EQ(wire, net::wire::encode(expected).size()) << where;
  EXPECT_EQ(wire, net::wire::encoded_size(expected)) << where;
  EXPECT_EQ(net::wire::encoded_size(acc.parts()), wire) << where;
}

TEST(ChainAccumulator, MatchesDeduplicatedUnionAfterEveryAdd) {
  common::Rng rng(0xACC1);
  const std::vector<std::string> vars = {"a", "name", "x", "y"};
  std::size_t most_terms = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ChainAccumulator acc;
    SolutionSet reference;
    std::vector<Binding> seen;
    const int hops = static_cast<int>(rng.between(1, 12));
    for (int hop = 0; hop < hops; ++hop) {
      SolutionSet contribution = random_contribution(rng, vars, seen);
      acc.add(contribution);
      reference = distinct_rows(set_union(reference, contribution));
      expect_matches(acc, reference,
                     "trial " + std::to_string(trial) + " hop " +
                         std::to_string(hop));
      most_terms = std::max(most_terms, acc.parts().sorted.size());
    }
  }
  // The stream really did cross the one-byte rank boundary.
  EXPECT_GT(most_terms, 128u);
}

TEST(ChainAccumulator, SchemaGrowsWhenLaterRowsBindNewVariables) {
  common::Rng rng(0xACC2);
  for (int trial = 0; trial < 20; ++trial) {
    ChainAccumulator acc;
    SolutionSet reference;
    std::vector<Binding> seen;
    std::vector<std::string> vars;
    for (const char* v : {"m", "c", "x", "a", "z"}) {
      // Each hop may introduce a variable sorting before or after the
      // existing ones, forcing the columns to be re-laid.
      vars.emplace_back(v);
      SolutionSet contribution = random_contribution(rng, vars, seen);
      acc.add(contribution);
      reference = distinct_rows(set_union(reference, contribution));
      expect_matches(acc, reference,
                     "trial " + std::to_string(trial) + " var " + v);
    }
  }
}

TEST(ChainAccumulator, CarryJoinMatchesJoinThenMerge) {
  common::Rng rng(0xACC3);
  for (int trial = 0; trial < 40; ++trial) {
    // Carry and local rows share some variables; both sides leave some
    // slots unbound (the partial-row paths of the hash join), and a small
    // term pool makes matches common.
    SolutionSet carry;
    const std::size_t carry_rows = rng.below(15);
    for (std::size_t r = 0; r < carry_rows; ++r) {
      Binding b;
      for (const char* v : {"p", "x", "y"}) {
        if (rng.chance(0.8)) {
          b.set(v, Term::iri("http://e/" + std::to_string(rng.below(6))));
        }
      }
      carry.add(std::move(b));
    }
    ChainAccumulator acc;
    acc.set_carry(carry);
    SolutionSet reference;
    const int hops = static_cast<int>(rng.between(1, 8));
    for (int hop = 0; hop < hops; ++hop) {
      SolutionSet local;
      const std::size_t rows = rng.below(12);
      const bool bind_all = rng.chance(0.5);
      for (std::size_t r = 0; r < rows; ++r) {
        Binding b;
        for (const char* v : {"x", "y", "z"}) {
          if (bind_all || rng.chance(0.7)) {
            b.set(v, Term::iri("http://e/" + std::to_string(rng.below(6))));
          }
        }
        local.add(std::move(b));
      }
      acc.add(local);
      SolutionSet contribution = join(carry, local);
      reference = distinct_rows(set_union(reference, contribution));
      expect_matches(acc, reference,
                     "trial " + std::to_string(trial) + " hop " +
                         std::to_string(hop));
    }
  }
}

TEST(ChainAccumulator, CarryWithoutSharedVariablesIsACrossProduct) {
  SolutionSet carry;
  for (int i = 0; i < 3; ++i) {
    Binding b;
    b.set("c", Term::integer(i));
    carry.add(std::move(b));
  }
  SolutionSet local;
  for (int i = 0; i < 4; ++i) {
    Binding b;
    b.set("l", Term::literal("v" + std::to_string(i % 2)));
    local.add(std::move(b));
  }
  ChainAccumulator acc;
  acc.set_carry(carry);
  acc.add(local);
  expect_matches(acc, distinct_rows(join(carry, local)), "cross");
  EXPECT_EQ(acc.parts().rows, 6u);
}

TEST(ChainAccumulator, EmptyAndZeroWidthContributions) {
  ChainAccumulator acc;
  expect_matches(acc, SolutionSet{}, "fresh");
  acc.add(SolutionSet{});
  expect_matches(acc, SolutionSet{}, "empty add");
  // A fully bound pattern matches with empty mappings: any number of them
  // collapse into one row.
  SolutionSet empties;
  empties.add(Binding{});
  empties.add(Binding{});
  acc.add(empties);
  acc.add(empties);
  expect_matches(acc, distinct_rows(empties), "zero width");
  EXPECT_EQ(acc.parts().rows, 1u);
}

// --- The id intake: add(store, pattern) ----------------------------------

Term node(std::uint64_t k) {
  return Term::iri("http://example.org/n/" + std::to_string(k));
}

/// A provider store over a small pool, so patterns match often. Nodes
/// double as subjects, predicates and objects (repeated variables across
/// positions can match); objects mix in integers and literals (a numeric
/// filter is true, false or an error). The insertion order is shuffled,
/// so two stores give the same terms different ids.
rdf::TripleStore random_store(common::Rng& rng, std::size_t triples) {
  std::vector<rdf::Triple> all;
  for (std::size_t i = 0; i < triples; ++i) {
    Term o;
    switch (rng.below(3)) {
      case 0: o = node(rng.below(8)); break;
      case 1: o = Term::integer(static_cast<long long>(rng.below(80))); break;
      default: o = Term::literal("name " + std::to_string(rng.below(10)));
    }
    all.push_back({node(rng.below(8)), node(rng.below(4)), std::move(o)});
  }
  rng.shuffle(all);
  rdf::TripleStore store;
  for (const rdf::Triple& t : all) store.insert(t);
  return store;
}

rdf::PatternTerm var(const char* name) { return rdf::Variable{name}; }

/// Every shape the intake must bind like LocalEngine::match_pattern.
std::vector<BgpPattern> intake_patterns() {
  const ExprPtr below_40 =
      Expr::binary(ExprKind::kLt, Expr::variable("o"),
                   Expr::constant_term(Term::integer(40)));
  const ExprPtr always_true = Expr::bound("o");
  const ExprPtr always_false = Expr::unary(ExprKind::kNot, Expr::bound("o"));
  const ExprPtr always_error = Expr::binary(
      ExprKind::kAdd, Expr::constant_term(Term::iri("http://e/x")),
      Expr::variable("o"));
  return {
      {{var("s"), var("p"), var("o")}, nullptr},            // ?s ?p ?o
      {{var("x"), node(1), var("x")}, nullptr},             // ?x p ?x
      {{var("x"), var("x"), var("o")}, nullptr},            // ?x ?x ?o
      {{var("x"), var("x"), var("x")}, nullptr},            // ?x ?x ?x
      {{node(2), node(1), node(3)}, nullptr},               // fully bound
      {{node(2), var("p"), var("o")}, nullptr},
      {{var("s"), node(0), var("o")}, nullptr},
      {{var("s"), var("p"), node(5)}, nullptr},
      {{var("s"), Term::iri("http://absent"), var("o")}, nullptr},
      {{var("s"), var("p"), var("o")}, below_40},           // true/false/error
      {{var("s"), node(2), var("o")}, always_true},
      {{var("s"), var("p"), var("o")}, always_false},
      {{var("s"), node(3), var("o")}, always_error},
  };
}

/// Feed the same stores to the id intake and, decoded by LocalEngine, to
/// the string intake; the two must agree after every hop.
void expect_intakes_agree(const std::vector<rdf::TripleStore>& stores,
                          const BgpPattern& p, const SolutionSet* carry,
                          const std::string& where) {
  ChainAccumulator ids;
  ChainAccumulator strings;
  if (carry != nullptr) {
    ids.set_carry(*carry);
    strings.set_carry(*carry);
  }
  for (std::size_t hop = 0; hop < stores.size(); ++hop) {
    ids.add(stores[hop], p);
    strings.add(LocalEngine(stores[hop]).match_pattern(p));
    expect_matches(ids, strings.materialize(),
                   where + " " + p.to_string() + " hop " +
                       std::to_string(hop));
    EXPECT_EQ(ids.byte_size(), strings.byte_size());
    EXPECT_EQ(net::wire::charged_bytes(ids),
              net::wire::charged_bytes(strings));
  }
}

TEST(ChainAccumulatorIdIntake, MatchesStringIntakeAfterEveryHop) {
  common::Rng rng(0xACC5);
  std::size_t filtered_out = 0;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<rdf::TripleStore> stores;
    const std::size_t hops = rng.between(1, 5);
    for (std::size_t h = 0; h < hops; ++h) {
      stores.push_back(random_store(rng, rng.below(60)));
    }
    for (const BgpPattern& p : intake_patterns()) {
      expect_intakes_agree(stores, p, nullptr,
                           "trial " + std::to_string(trial));
      if (p.pushed_filter != nullptr) {
        BgpPattern unfiltered{p.pattern, nullptr};
        for (const rdf::TripleStore& st : stores) {
          filtered_out += LocalEngine(st).match_pattern(unfiltered).size() -
                          LocalEngine(st).match_pattern(p).size();
        }
      }
    }
  }
  EXPECT_GT(filtered_out, 0u);  // the filters really dropped rows
}

TEST(ChainAccumulatorIdIntake, CarryJoinMatchesStringIntake) {
  common::Rng rng(0xACC6);
  for (int trial = 0; trial < 12; ++trial) {
    // The carry shares ?s and ?o with the patterns, leaves slots unbound
    // and binds a variable of its own.
    SolutionSet carry;
    const std::size_t rows = rng.below(12);
    for (std::size_t r = 0; r < rows; ++r) {
      Binding b;
      if (rng.chance(0.8)) b.set("s", node(rng.below(8)));
      if (rng.chance(0.5)) b.set("o", node(rng.below(8)));
      if (rng.chance(0.5)) {
        b.set("z", Term::integer(static_cast<long long>(rng.below(3))));
      }
      carry.add(std::move(b));
    }
    std::vector<rdf::TripleStore> stores;
    for (std::size_t h = 0; h < 3; ++h) {
      stores.push_back(random_store(rng, 10 + rng.below(40)));
    }
    for (const BgpPattern& p : intake_patterns()) {
      expect_intakes_agree(stores, p, &carry,
                           "trial " + std::to_string(trial));
    }
  }
}

TEST(ChainAccumulatorIdIntake, EmptyStoreAddsNothing) {
  const rdf::TripleStore empty;
  common::Rng rng(0xACC7);
  const std::vector<rdf::TripleStore> stores = {
      rdf::TripleStore{}, random_store(rng, 30), rdf::TripleStore{}};
  for (const BgpPattern& p : intake_patterns()) {
    ChainAccumulator acc;
    acc.add(empty, p);
    expect_matches(acc, SolutionSet{}, "empty store " + p.to_string());
    expect_intakes_agree(stores, p, nullptr, "empty between");
  }
}

TEST(ChainAccumulatorIdIntake, StoresWithDifferentIdsMergeByTerm) {
  // The same triples inserted in opposite orders: every term has another
  // id in the second store, and the merge still sees one set of rows.
  std::vector<rdf::Triple> triples;
  for (std::uint64_t k = 0; k < 6; ++k) {
    triples.push_back({node(k), node(1), node((k + 1) % 6)});
  }
  rdf::TripleStore forward;
  for (const rdf::Triple& t : triples) forward.insert(t);
  rdf::TripleStore backward;
  backward.insert({node(9), node(9), Term::literal("only here")});
  for (std::size_t k = triples.size(); k-- > 0;) backward.insert(triples[k]);
  ASSERT_NE(forward.dictionary().find(node(0)),
            backward.dictionary().find(node(0)));

  const BgpPattern p{{var("s"), var("p"), var("o")}, nullptr};
  expect_intakes_agree({forward, backward}, p, nullptr, "reordered ids");
  ChainAccumulator acc;
  acc.add(forward, p);
  acc.add(backward, p);
  EXPECT_EQ(acc.parts().rows, triples.size() + 1);
}

TEST(ChainAccumulatorIdIntake, ScatterLegPricesItsMatchesExactly) {
  // A scatter leg prices its ship from its own accumulator: one store's
  // matches of one pattern are duplicate-free, so that is exactly the
  // charge of the decoded set.
  common::Rng rng(0xACC8);
  for (int trial = 0; trial < 20; ++trial) {
    const rdf::TripleStore store = random_store(rng, rng.below(70));
    for (const BgpPattern& p : intake_patterns()) {
      ChainAccumulator leg;
      leg.add(store, p);
      const SolutionSet matches = LocalEngine(store).match_pattern(p);
      const std::string where =
          "trial " + std::to_string(trial) + " " + p.to_string();
      EXPECT_EQ(leg.parts().rows, matches.size()) << where;
      EXPECT_EQ(net::wire::charged_bytes(leg),
                net::wire::charged_bytes(matches))
          << where;
      EXPECT_EQ(leg.byte_size(), matches.byte_size()) << where;
    }
  }
}

TEST(CanonicalParts, SizeMatchesEncodingWithDuplicates) {
  common::Rng rng(0xACC4);
  const std::vector<std::string> vars = {"a", "b", "c"};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Binding> seen;
    SolutionSet s = random_contribution(rng, vars, seen);
    s.add(s.empty() ? Binding{} : s.rows().front());  // keep a duplicate
    EXPECT_EQ(net::wire::encoded_size(canonical_parts(s)),
              net::wire::encode(s).size())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ahsw::sparql
