#include "sparql/solution.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sparql/eval.hpp"
#include "sparql/expr.hpp"

namespace ahsw::sparql {
namespace {

rdf::Term iri(const std::string& x) { return rdf::Term::iri("http://" + x); }

Binding bind(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Binding b;
  for (const auto& [k, v] : kv) b.set(k, iri(v));
  return b;
}

TEST(Binding, SetAndGet) {
  Binding b;
  EXPECT_EQ(b.get("x"), nullptr);
  b.set("x", iri("a"));
  ASSERT_NE(b.get("x"), nullptr);
  EXPECT_EQ(*b.get("x"), iri("a"));
  EXPECT_TRUE(b.bound("x"));
  EXPECT_FALSE(b.bound("y"));
}

TEST(Binding, SetOverwrites) {
  Binding b = bind({{"x", "a"}});
  b.set("x", iri("b"));
  EXPECT_EQ(*b.get("x"), iri("b"));
  EXPECT_EQ(b.size(), 1u);
}

TEST(Binding, SlotsStaySorted) {
  Binding b = bind({{"z", "1"}, {"a", "2"}, {"m", "3"}});
  ASSERT_EQ(b.slots().size(), 3u);
  EXPECT_EQ(b.slots()[0].first, "a");
  EXPECT_EQ(b.slots()[1].first, "m");
  EXPECT_EQ(b.slots()[2].first, "z");
}

TEST(Binding, ProjectedKeepsOnlyNamed) {
  Binding b = bind({{"x", "a"}, {"y", "b"}, {"z", "c"}});
  Binding p = b.projected({"x", "z", "missing"});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.bound("x"));
  EXPECT_FALSE(p.bound("y"));
}

TEST(Binding, OrderingIsCanonical) {
  EXPECT_LT(bind({{"x", "a"}}), bind({{"x", "b"}}));
  EXPECT_EQ(bind({{"x", "a"}}), bind({{"x", "a"}}));
}

/// Compatible per Perez et al., observed through the join of two
/// single-row sets: the pair joins iff the mappings are compatible.
bool compatible(const Binding& u1, const Binding& u2) {
  return !join(SolutionSet({u1}), SolutionSet({u2})).empty();
}

TEST(SolutionSet, JoinCompatibilityPerPerezEtAl) {
  Binding u1 = bind({{"x", "a"}, {"y", "b"}});
  Binding u2 = bind({{"y", "b"}, {"z", "c"}});
  Binding u3 = bind({{"y", "OTHER"}});
  EXPECT_TRUE(compatible(u1, u2));
  EXPECT_TRUE(compatible(u2, u1));
  EXPECT_FALSE(compatible(u1, u3));
  // Disjoint domains are always compatible.
  EXPECT_TRUE(compatible(bind({{"x", "a"}}), bind({{"q", "z"}})));
  // The empty mapping is compatible with everything.
  EXPECT_TRUE(compatible(Binding{}, u1));
}

TEST(SolutionSet, JoinUnionsDisjointDomains) {
  SolutionSet j = join(SolutionSet({bind({{"x", "a"}})}),
                       SolutionSet({bind({{"y", "b"}})}));
  ASSERT_EQ(j.size(), 1u);
  const Binding m = j.bindings()[0];
  EXPECT_EQ(*m.get("x"), iri("a"));
  EXPECT_EQ(*m.get("y"), iri("b"));
  EXPECT_EQ(m.size(), 2u);
}

TEST(SolutionSet, JoinKeepsSharedVariableOnce) {
  SolutionSet j = join(SolutionSet({bind({{"x", "a"}, {"y", "b"}})}),
                       SolutionSet({bind({{"y", "b"}, {"z", "c"}})}));
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.rows()[0].size(), 3u);
}

TEST(SolutionSet, JoinOnSharedVariable) {
  SolutionSet a({bind({{"x", "1"}, {"y", "a"}}), bind({{"x", "2"}, {"y", "b"}})});
  SolutionSet b({bind({{"y", "a"}, {"z", "p"}}), bind({{"y", "zz"}, {"z", "q"}})});
  SolutionSet j = join(a, b);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(*j.rows()[0].get("x"), iri("1"));
  EXPECT_EQ(*j.rows()[0].get("z"), iri("p"));
}

TEST(SolutionSet, JoinWithoutSharedVarsIsCartesian) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"y", "a"}}), bind({{"y", "b"}}), bind({{"y", "c"}})});
  EXPECT_EQ(join(a, b).size(), 6u);
}

TEST(SolutionSet, JoinHandlesPartiallyBoundRows) {
  // A row missing the shared var joins with everything compatible (this
  // arises after OPTIONAL).
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "a"}}), bind({{"y", "b"}})});
  SolutionSet j = join(a, b);
  EXPECT_EQ(j.size(), 2u);
}

TEST(SolutionSet, JoinWithEmptyIsEmpty) {
  SolutionSet a({bind({{"x", "1"}})});
  EXPECT_TRUE(join(a, SolutionSet{}).empty());
  EXPECT_TRUE(join(SolutionSet{}, a).empty());
}

TEST(SolutionSet, JoinWithEmptyMappingIsIdentity) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet unit({Binding{}});
  EXPECT_EQ(join(a, unit).size(), a.size());
  EXPECT_EQ(join(unit, a).size(), a.size());
}

TEST(SolutionSet, UnionConcatenates) {
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({bind({{"x", "1"}}), bind({{"x", "2"}})});
  EXPECT_EQ(set_union(a, b).size(), 3u);  // multiset semantics
}

TEST(SolutionSet, MinusDropsCompatibleRows) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "q"}})});
  SolutionSet m = minus(a, b);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.rows()[0].get("x"), iri("2"));
}

TEST(SolutionSet, MinusAgainstEmptyKeepsAll) {
  SolutionSet a({bind({{"x", "1"}})});
  EXPECT_EQ(minus(a, SolutionSet{}).size(), 1u);
}

TEST(SolutionSet, MinusWithEmptyMappingRemovesEverything) {
  // The empty mapping is compatible with every row.
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({Binding{}});
  EXPECT_TRUE(minus(a, b).empty());
}

TEST(SolutionSet, LeftJoinKeepsUnmatchedLeftRows) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "q"}})});
  SolutionSet lj = left_join(a, b);
  lj.normalize();
  ASSERT_EQ(lj.size(), 2u);
  EXPECT_TRUE(lj.rows()[0].bound("y"));   // x=1 extended
  EXPECT_FALSE(lj.rows()[1].bound("y"));  // x=2 bare
}

TEST(SolutionSetProperty, LeftJoinDefinitionHolds) {
  // (O1 leftjoin O2) == (O1 join O2) union (O1 minus O2), as sets.
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet a, b;
    for (int i = 0; i < 15; ++i) {
      a.add(bind({{"x", std::to_string(rng.below(5))},
                  {"y", std::to_string(rng.below(5))}}));
      b.add(bind({{"y", std::to_string(rng.below(5))},
                  {"z", std::to_string(rng.below(5))}}));
    }
    SolutionSet lhs = deduplicated(left_join(a, b));
    SolutionSet rhs = deduplicated(set_union(join(a, b), minus(a, b)));
    EXPECT_EQ(lhs.rows(), rhs.rows());
  }
}

TEST(SolutionSetProperty, JoinIsCommutativeAsSets) {
  common::Rng rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet a, b;
    for (int i = 0; i < 12; ++i) {
      a.add(bind({{"x", std::to_string(rng.below(4))},
                  {"y", std::to_string(rng.below(4))}}));
      b.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
    }
    EXPECT_EQ(deduplicated(join(a, b)).rows(),
              deduplicated(join(b, a)).rows());
  }
}

TEST(SolutionSetProperty, JoinDistributesOverUnion) {
  // R join (A union B) == (R join A) union (R join B) — the identity that
  // justifies the paper's chain execution for conjunctions (Sect. IV-D).
  common::Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet r, a, b;
    for (int i = 0; i < 10; ++i) {
      r.add(bind({{"x", std::to_string(rng.below(4))},
                  {"y", std::to_string(rng.below(4))}}));
      a.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
      b.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
    }
    EXPECT_EQ(deduplicated(join(r, set_union(a, b))).rows(),
              deduplicated(set_union(join(r, a), join(r, b))).rows());
  }
}

TEST(SolutionSet, ByteSizeGrowsWithRows) {
  SolutionSet small({bind({{"x", "1"}})});
  SolutionSet big({bind({{"x", "1"}}), bind({{"x", "2"}}), bind({{"x", "3"}})});
  EXPECT_LT(small.byte_size(), big.byte_size());
}

TEST(SolutionSet, VariablesOfCollectsAllNames) {
  SolutionSet s({bind({{"x", "1"}}), bind({{"y", "2"}})});
  EXPECT_EQ(variables_of(s), (std::vector<std::string>{"x", "y"}));
}

// The cached byte size must be indistinguishable from recomputation: every
// mutation path (incremental add, the row-vector constructor, projection,
// row selection, slicing, normalize) lands on the same value a freshly
// built copy reports.
std::size_t recomputed(const SolutionSet& s) {
  return SolutionSet(s.bindings()).byte_size();
}

TEST(SolutionSet, ByteSizeCacheSurvivesIncrementalAdds) {
  SolutionSet s;
  std::size_t empty_size = s.byte_size();
  for (int i = 0; i < 10; ++i) {
    s.add(bind({{"x", std::to_string(i)}, {"y", "v"}}));
    EXPECT_EQ(s.byte_size(), recomputed(s)) << "after add " << i;
  }
  EXPECT_GT(s.byte_size(), empty_size);
}

TEST(SolutionSet, ByteSizeCacheInvalidatedByRowMutation) {
  SolutionSet s({bind({{"x", "a"}, {"y", "b"}}),
                 bind({{"x", "a much longer IRI than the first"}})});
  std::size_t before = s.byte_size();
  s.project({"x"});
  EXPECT_LT(s.byte_size(), before);
  EXPECT_EQ(s.byte_size(), recomputed(s));
  EXPECT_EQ(s.vars(), (std::vector<std::string>{"x"}));

  s.keep_rows({1});
  EXPECT_EQ(s.byte_size(), recomputed(s));

  s.keep_rows({});
  EXPECT_EQ(s.byte_size(), SolutionSet{}.byte_size());
  EXPECT_TRUE(s.vars().empty());  // no row binds ?x any more
}

TEST(SolutionSet, ByteSizeCacheSurvivesNormalize) {
  SolutionSet s({bind({{"x", "3"}}), bind({{"x", "1"}}), bind({{"x", "2"}})});
  std::size_t before = s.byte_size();
  s.normalize();
  EXPECT_EQ(s.byte_size(), before);
  EXPECT_EQ(s.byte_size(), recomputed(s));
}

// --- The columnar representation against the row form ------------------

/// A term of any kind, from pools small enough that rows repeat.
rdf::Term any_term(common::Rng& rng) {
  switch (rng.below(5)) {
    case 0: return iri("t/" + std::to_string(rng.below(6)));
    case 1: return rdf::Term::literal("v" + std::to_string(rng.below(6)));
    case 2: return rdf::Term::integer(static_cast<long long>(rng.below(6)));
    case 3: return rdf::Term::lang_literal("w" + std::to_string(rng.below(3)),
                                           rng.chance(0.5) ? "en" : "de");
    default: return rdf::Term::blank("b" + std::to_string(rng.below(4)));
  }
}

/// Rows over a few variables, each left unbound at random (some rows bind
/// nothing), in a dictionary of the set's own.
SolutionSet random_rows(common::Rng& rng, std::size_t max_rows = 30) {
  static const char* kVars[] = {"a", "b", "x", "y", "z"};
  SolutionSet s;
  const std::size_t rows = rng.below(max_rows + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding b;
    for (const char* v : kVars) {
      if (rng.chance(0.5)) b.set(v, any_term(rng));
    }
    s.add(b);
  }
  return s;
}

/// Binding::byte_size summed over the rows plus the set framing.
std::size_t binding_bytes(const SolutionSet& s) {
  std::size_t n = SolutionSet{}.byte_size();
  for (const Binding& b : s.bindings()) n += b.byte_size();
  return n;
}

TEST(SolutionSetColumnar, NormalizeEqualsSortOverBindings) {
  common::Rng rng(0xC01);
  for (int trial = 0; trial < 200; ++trial) {
    SolutionSet s = random_rows(rng);
    std::vector<Binding> expected = s.bindings();
    std::sort(expected.begin(), expected.end());
    s.normalize();
    ASSERT_EQ(s.bindings(), expected) << "trial " << trial;
  }
}

TEST(SolutionSetColumnar, ByteSizeEqualsBindingFormula) {
  common::Rng rng(0xC02);
  for (int trial = 0; trial < 100; ++trial) {
    const SolutionSet a = random_rows(rng);
    const SolutionSet b = random_rows(rng);
    for (const SolutionSet& s :
         {a, join(a, b), left_join(a, b), minus(a, b), set_union(a, b),
          deduplicated(a)}) {
      ASSERT_EQ(s.byte_size(), binding_bytes(s)) << "trial " << trial;
      ASSERT_EQ(s.byte_size(), SolutionSet(s.bindings()).byte_size());
    }
  }
}

TEST(SolutionSetColumnar, KernelsOverDifferentDictionariesEqualSharedOne) {
  // The re-key is the one conversion: an operand over another dictionary
  // must give exactly the rows, in the same order, of the same operand
  // already over the left one's.
  common::Rng rng(0xC03);
  const ExprPtr cond = Expr::binary(ExprKind::kOr, Expr::bound("z"),
                                    Expr::binary(ExprKind::kEq,
                                                 Expr::variable("a"),
                                                 Expr::variable("b")));
  for (int trial = 0; trial < 100; ++trial) {
    const SolutionSet a = random_rows(rng);
    const SolutionSet b = random_rows(rng);
    if (a.dictionary() == nullptr || b.dictionary() == nullptr) continue;
    ASSERT_NE(a.dictionary(), b.dictionary());
    const SolutionSet shared = b.rekeyed(a.dictionary());
    ASSERT_EQ(shared.dictionary(), a.dictionary());
    ASSERT_EQ(shared.bindings(), b.bindings());
    auto same = [&](const SolutionSet& x, const SolutionSet& y,
                    const char* op) {
      EXPECT_EQ(x.bindings(), y.bindings()) << op << " trial " << trial;
      EXPECT_EQ(x.dictionary(), a.dictionary()) << op;
      EXPECT_EQ(y.dictionary(), a.dictionary()) << op;
    };
    same(join(a, b), join(a, shared), "join");
    same(left_join(a, b), left_join(a, shared), "left_join");
    same(left_join_conditioned(a, b, cond),
         left_join_conditioned(a, shared, cond), "left_join_conditioned");
    same(minus(a, b), minus(a, shared), "minus");
    same(set_union(a, b), set_union(a, shared), "set_union");
  }
}

TEST(SolutionSetColumnar, SchemaHoldsOnlyBoundVariables) {
  SolutionSet s({bind({{"x", "1"}, {"y", "2"}}), bind({{"x", "3"}})});
  EXPECT_EQ(s.vars(), (std::vector<std::string>{"x", "y"}));
  s.keep_rows({1});  // the row binding ?y is gone
  EXPECT_EQ(s.vars(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(s.to_string(), "[{x-><http://3>}]");
  const SolutionSet none = minus(s, s);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.vars().empty());
}

TEST(SolutionSetColumnar, MovedFromSetIsEmpty) {
  SolutionSet s({bind({{"x", "1"}}), bind({{"x", "2"}})});
  const std::size_t bytes = s.byte_size();
  SolutionSet moved = std::move(s);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.byte_size(), bytes);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is API.
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.byte_size(), SolutionSet{}.byte_size());
  EXPECT_EQ(s.to_string(), "[]");
}

}  // namespace
}  // namespace ahsw::sparql
