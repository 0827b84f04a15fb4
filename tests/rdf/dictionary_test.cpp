#include "rdf/dictionary.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace ahsw::rdf {
namespace {

TEST(TermDictionary, InternAssignsDenseIds) {
  TermDictionary d;
  EXPECT_EQ(d.intern(Term::iri("a")), 0u);
  EXPECT_EQ(d.intern(Term::iri("b")), 1u);
  EXPECT_EQ(d.intern(Term::iri("c")), 2u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(TermDictionary, InternIsIdempotent) {
  TermDictionary d;
  TermId first = d.intern(Term::literal("x"));
  TermId second = d.intern(Term::literal("x"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(d.size(), 1u);
}

TEST(TermDictionary, FindReturnsNulloptForUnknown) {
  TermDictionary d;
  d.intern(Term::iri("known"));
  EXPECT_FALSE(d.find(Term::iri("unknown")).has_value());
  EXPECT_TRUE(d.find(Term::iri("known")).has_value());
}

TEST(TermDictionary, GrowthKeepsIdsAndLookups) {
  // Crosses several resizes of the probe table: every id stays put and
  // every term is still found under it.
  TermDictionary d;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.intern(Term::iri("http://e/" + std::to_string(i))),
              static_cast<TermId>(i));
  }
  for (int i = 0; i < 1000; ++i) {
    const Term t = Term::iri("http://e/" + std::to_string(i));
    ASSERT_EQ(d.find(t), std::optional<TermId>(static_cast<TermId>(i)));
    EXPECT_EQ(d.intern(t), static_cast<TermId>(i));
    EXPECT_EQ(d.term(static_cast<TermId>(i)), t);
  }
  EXPECT_EQ(d.size(), 1000u);
  EXPECT_FALSE(d.find(Term::literal("http://e/1")).has_value());
}

TEST(TermDictionary, TermRoundTrips) {
  TermDictionary d;
  Term original = Term::lang_literal("hello", "en");
  TermId id = d.intern(original);
  EXPECT_EQ(d.term(id), original);
}

TEST(TermDictionary, DistinguishesKindsAndAnnotations) {
  TermDictionary d;
  TermId a = d.intern(Term::iri("x"));
  TermId b = d.intern(Term::literal("x"));
  TermId c = d.intern(Term::lang_literal("x", "en"));
  TermId e = d.intern(Term::typed_literal("x", "http://dt"));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(c, e);
  EXPECT_EQ(d.size(), 4u);
}

TEST(TermDictionary, TraversalIsDeterministicInsertionOrder) {
  // Regression for the D2/D3 iteration hazard: the exposed traversal must
  // be the insertion-order vector, never the unordered id map, so any
  // output built from a dictionary walk is identical across runs and
  // platforms.
  TermDictionary d;
  std::vector<Term> inserted = {Term::iri("b"), Term::iri("a"),
                                Term::literal("b"),
                                Term::lang_literal("z", "en")};
  for (const Term& t : inserted) d.intern(t);
  d.intern(inserted[1]);  // re-intern must not perturb the order

  ASSERT_EQ(d.terms().size(), inserted.size());
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(d.terms()[i], inserted[i]) << "position " << i;
    // terms()[id] and term(id) agree: ids index the traversal directly.
    EXPECT_EQ(d.terms()[i], d.term(static_cast<TermId>(i)));
  }
}

TEST(TermDictionary, InternWithStoredHashMatchesIntern) {
  // A term imported from another dictionary, under the hash that one
  // stored, lands on the id intern(t) gives it — here or in a dictionary
  // that assigned it a different id.
  TermDictionary from;
  std::vector<Term> terms;
  for (int i = 0; i < 200; ++i) {
    terms.push_back(i % 3 == 0 ? Term::literal("v" + std::to_string(i))
                               : Term::iri("http://e/" + std::to_string(i)));
    from.intern(terms.back());
  }
  TermDictionary by_hash;
  TermDictionary plain;
  plain.intern(Term::iri("http://e/offset"));  // ids differ from `from`'s
  by_hash.intern(Term::iri("http://e/offset"));
  for (std::size_t k = terms.size(); k-- > 0;) {
    const TermId id = *from.find(terms[k]);
    EXPECT_EQ(from.hash_of(id), TermHash{}(terms[k]));
    EXPECT_EQ(from.intern(terms[k], from.hash_of(id)), id);
    const TermId imported = by_hash.intern(terms[k], from.hash_of(id));
    EXPECT_EQ(imported, plain.intern(terms[k])) << k;
    EXPECT_EQ(by_hash.term(imported), terms[k]);
    EXPECT_EQ(by_hash.hash_of(imported), from.hash_of(id));
    // Idempotent either way round.
    EXPECT_EQ(by_hash.intern(terms[k]), imported);
  }
  EXPECT_EQ(by_hash.size(), plain.size());
  EXPECT_NE(*by_hash.find(terms[0]), *from.find(terms[0]));
}

}  // namespace
}  // namespace ahsw::rdf
