// Property suite for the id-space merge accumulator: after every add, the
// accumulated set must be exactly what the whole-set rebuild it replaces
// computes — rows, raw size and wire size. The reference shares no code
// with the accumulator: the provider's matches come from
// LocalEngine::match_pattern, DISTINCT is std::sort + std::unique over
// decoded Binding rows, written out here because deduplicated() runs on
// the same id comparator, and the carry join is a nested-loop join over
// decoded rows, written out here because the accumulator joins through
// sparql::join's own hash-join core.
#include "sparql/accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

Term node(std::uint64_t k) {
  return Term::iri("http://example.org/n/" + std::to_string(k));
}

rdf::PatternTerm var(const char* name) { return rdf::Variable{name}; }

/// A provider's store for one hop: subjects and predicates from small
/// pools and objects from random_term, so rows repeat across hops (the
/// merge must drop them) while the distinct terms keep growing.
rdf::TripleStore hop_store(common::Rng& rng) {
  rdf::TripleStore store;
  const std::size_t triples = rng.below(25);
  for (std::size_t i = 0; i < triples; ++i) {
    store.insert({node(rng.below(12)), node(100 + rng.below(2)),
                  random_term(rng)});
  }
  return store;
}

/// Canonically sorted, duplicates removed: the set the accumulator must
/// hold, computed on decoded rows.
SolutionSet distinct_rows(const SolutionSet& s) {
  std::vector<Binding> rows = s.bindings();
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return SolutionSet(rows);
}

/// The accumulator against the reference after one add.
void expect_matches(const ChainAccumulator& acc, const SolutionSet& expected,
                    const std::string& where) {
  SolutionSet got = acc.materialize();
  ASSERT_EQ(got.bindings(), expected.bindings()) << where;
  EXPECT_EQ(acc.parts().rows, expected.size()) << where;
  EXPECT_EQ(acc.byte_size(), expected.byte_size()) << where;
  EXPECT_EQ(got.byte_size(), expected.byte_size()) << where;
  const std::size_t wire = net::wire::charged_bytes(acc);
  EXPECT_EQ(wire, net::wire::encode(expected).size()) << where;
  EXPECT_EQ(wire, net::wire::encoded_size(expected)) << where;
  EXPECT_EQ(net::wire::encoded_size(acc.parts()), wire) << where;
  EXPECT_EQ(net::wire::encode(got), net::wire::encode(expected)) << where;
}

/// Join(a, b) on decoded rows, pair by pair.
SolutionSet nested_loop_join(const SolutionSet& a, const SolutionSet& b) {
  std::vector<Binding> out;
  for (const Binding& x : a.bindings()) {
    for (const Binding& y : b.bindings()) {
      Binding merged = x;
      bool compatible = true;
      for (const auto& [v, term] : y.slots()) {
        const Term* bound = x.get(v);
        compatible = compatible && (bound == nullptr || *bound == term);
        merged.set(v, term);
      }
      if (compatible) out.push_back(std::move(merged));
    }
  }
  return SolutionSet(out);
}

/// Merge `store`'s matches of `p` into both the accumulator and the
/// reference, joined with `carry` when one is given.
void add_hop(ChainAccumulator& acc, SolutionSet& reference,
             const rdf::TripleStore& store, const BgpPattern& p,
             const SolutionSet* carry) {
  acc.merge(acc.matches(store, p));
  const SolutionSet matches = LocalEngine(store).match_pattern(p);
  reference = distinct_rows(set_union(
      reference,
      carry != nullptr ? nested_loop_join(*carry, matches) : matches));
}

TEST(ChainAccumulator, MatchesDeduplicatedUnionAfterEveryAdd) {
  common::Rng rng(0xACC1);
  const BgpPattern p{{var("a"), var("name"), var("x")}, nullptr};
  std::size_t most_terms = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ChainAccumulator acc;
    SolutionSet reference;
    const int hops = static_cast<int>(rng.between(1, 12));
    for (int hop = 0; hop < hops; ++hop) {
      add_hop(acc, reference, hop_store(rng), p, nullptr);
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
    const char* previous = nullptr;
    for (const char* v : {"m", "c", "x", "a", "z"}) {
      // Each hop binds a variable sorting before or after the existing
      // ones, forcing the columns to be re-laid.
      const BgpPattern p{
          {var(v), node(100), previous != nullptr ? var(previous) : var(v)},
          nullptr};
      add_hop(acc, reference, hop_store(rng), p, nullptr);
      expect_matches(acc, reference,
                     "trial " + std::to_string(trial) + " var " + v);
      previous = v;
    }
  }
}

TEST(ChainAccumulator, CarryJoinMatchesJoinThenMerge) {
  common::Rng rng(0xACC3);
  const std::vector<BgpPattern> patterns = {
      {{var("x"), node(0), var("y")}, nullptr},
      {{var("y"), node(0), var("z")}, nullptr},
      {{var("x"), node(1), var("z")}, nullptr},
      {{var("z"), node(1), var("q")}, nullptr},
  };
  for (int trial = 0; trial < 40; ++trial) {
    // Carry and local rows share some variables; the carry leaves some
    // slots unbound (the partial-row paths of the hash join), and a small
    // term pool makes matches common.
    SolutionSet carry;
    const std::size_t carry_rows = rng.below(15);
    for (std::size_t r = 0; r < carry_rows; ++r) {
      Binding b;
      for (const char* v : {"p", "x", "y"}) {
        if (rng.chance(0.8)) b.set(v, node(rng.below(6)));
      }
      carry.add(b);
    }
    const BgpPattern& p = patterns[rng.below(patterns.size())];
    ChainAccumulator acc;
    acc.set_carry(carry);
    SolutionSet reference;
    const int hops = static_cast<int>(rng.between(1, 8));
    for (int hop = 0; hop < hops; ++hop) {
      rdf::TripleStore local;
      const std::size_t rows = rng.below(12);
      for (std::size_t r = 0; r < rows; ++r) {
        local.insert({node(rng.below(6)), node(rng.below(2)),
                      node(rng.below(6))});
      }
      add_hop(acc, reference, local, p, &carry);
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
    carry.add(b);
  }
  rdf::TripleStore local;
  for (int i = 0; i < 4; ++i) {
    local.insert({node(static_cast<std::uint64_t>(i)), node(100),
                  Term::literal("v" + std::to_string(i % 2))});
  }
  const BgpPattern p{{var("s"), node(100), var("l")}, nullptr};
  ChainAccumulator acc;
  acc.set_carry(carry);
  SolutionSet reference;
  add_hop(acc, reference, local, p, &carry);
  expect_matches(acc, reference, "cross");
  EXPECT_EQ(acc.parts().rows, 12u);
  // Projected away from ?s, the four rows collapse to two per carry row.
  const BgpPattern fixed{{node(1), node(100), var("l")}, nullptr};
  ChainAccumulator narrow;
  narrow.set_carry(carry);
  narrow.merge(narrow.matches(local, fixed));
  EXPECT_EQ(narrow.parts().rows, 3u);
}

TEST(ChainAccumulator, EmptyAndZeroWidthContributions) {
  ChainAccumulator acc;
  expect_matches(acc, SolutionSet{}, "fresh");
  const BgpPattern bound{{node(1), node(2), node(3)}, nullptr};
  acc.merge(acc.matches(rdf::TripleStore{}, bound));
  expect_matches(acc, SolutionSet{}, "empty add");
  // A fully bound pattern matches with the empty mapping: any number of
  // such matches collapse into one row.
  rdf::TripleStore store;
  store.insert({node(1), node(2), node(3)});
  acc.merge(acc.matches(store, bound));
  acc.merge(acc.matches(store, bound));
  SolutionSet empties;
  empties.add(Binding{});
  expect_matches(acc, empties, "zero width");
  EXPECT_EQ(acc.parts().rows, 1u);
}

TEST(ChainAccumulator, HandsOverIdsOverTheGivenDictionary) {
  // The executor's scans intern into the query's dictionary: the set a
  // scan hands over holds its ids as they are, decoded by nobody.
  common::Rng rng(0xACC9);
  auto dict = std::make_shared<rdf::TermDictionary>();
  ChainAccumulator acc(dict);
  SolutionSet reference;
  const BgpPattern p{{var("a"), var("name"), var("x")}, nullptr};
  for (int hop = 0; hop < 4; ++hop) {
    add_hop(acc, reference, hop_store(rng), p, nullptr);
  }
  const std::size_t terms = dict->size();
  const SolutionSet got = acc.materialize();
  EXPECT_EQ(got.dictionary(), dict);
  EXPECT_EQ(dict->size(), terms);
  expect_matches(acc, reference, "query dictionary");
  // A second scan of the same query reuses the terms already interned.
  ChainAccumulator second(dict);
  second.set_carry(got);
  EXPECT_EQ(dict->size(), terms);
}

// --- The id intake: merge(matches(store, pattern)) ----------------------

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
/// the reference merge; the two must agree after every hop.
void expect_intakes_agree(const std::vector<rdf::TripleStore>& stores,
                          const BgpPattern& p, const SolutionSet* carry,
                          const std::string& where) {
  ChainAccumulator ids;
  if (carry != nullptr) ids.set_carry(*carry);
  SolutionSet reference;
  for (std::size_t hop = 0; hop < stores.size(); ++hop) {
    add_hop(ids, reference, stores[hop], p, carry);
    expect_matches(ids, reference,
                   where + " " + p.to_string() + " hop " +
                       std::to_string(hop));
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
    acc.merge(acc.matches(empty, p));
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
  acc.merge(acc.matches(forward, p));
  acc.merge(acc.matches(backward, p));
  EXPECT_EQ(acc.parts().rows, triples.size() + 1);
}

TEST(ChainAccumulatorIdIntake, ScatterLegPricesItsMatchesExactly) {
  // A scatter leg reads its provider once: it prices its ship from the
  // matches set and merges that same set. The set is the decoded matches
  // over the accumulator's dictionary, and one store's matches of one
  // pattern are duplicate-free, so the merge charges what the leg shipped.
  common::Rng rng(0xACC8);
  for (int trial = 0; trial < 20; ++trial) {
    const rdf::TripleStore store = random_store(rng, rng.below(70));
    for (const BgpPattern& p : intake_patterns()) {
      auto dict = std::make_shared<rdf::TermDictionary>();
      ChainAccumulator gather(dict);
      const SolutionSet shipped = gather.matches(store, p);
      const SolutionSet matches = LocalEngine(store).match_pattern(p);
      const std::string where =
          "trial " + std::to_string(trial) + " " + p.to_string();
      EXPECT_EQ(shipped.dictionary(), dict) << where;
      EXPECT_EQ(shipped.bindings(), matches.bindings()) << where;
      EXPECT_EQ(net::wire::charged_bytes(shipped),
                net::wire::charged_bytes(matches))
          << where;
      EXPECT_EQ(shipped.byte_size(), matches.byte_size()) << where;
      gather.merge(shipped);
      EXPECT_EQ(gather.parts().rows, shipped.size()) << where;
      EXPECT_EQ(net::wire::charged_bytes(gather),
                net::wire::charged_bytes(shipped))
          << where;
      EXPECT_EQ(gather.byte_size(), shipped.byte_size()) << where;
    }
  }
}

TEST(CanonicalParts, SizeMatchesEncodingWithDuplicates) {
  common::Rng rng(0xACC4);
  const std::vector<std::string> vars = {"a", "b", "c"};
  for (int trial = 0; trial < 30; ++trial) {
    SolutionSet s;
    const std::size_t rows = rng.below(25);
    for (std::size_t r = 0; r < rows; ++r) {
      Binding b;
      for (const std::string& v : vars) {
        if (rng.chance(0.85)) b.set(v, random_term(rng));
      }
      s.add(b);
    }
    s.add(s.empty() ? Binding{} : s.bindings().front());  // keep a duplicate
    EXPECT_EQ(net::wire::encoded_size(canonical_parts(s)),
              net::wire::encode(s).size())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ahsw::sparql
