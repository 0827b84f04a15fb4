// Property suite for the id-space merge accumulator: after every add, the
// accumulated set must be exactly what the whole-set rebuild it replaces
// computes — rows, raw size and wire size. The reference shares no code
// with the accumulator: DISTINCT is normalize() + std::unique over Binding
// rows, written out here because deduplicated() itself runs on the
// accumulator, and the carry join is the hash join of sparql::join, which
// does not use the accumulator's carry probe.
#include "sparql/accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "rdf/term.hpp"
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
