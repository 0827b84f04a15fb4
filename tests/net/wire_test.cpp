#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/varint.hpp"
#include "rdf/term.hpp"
#include "rdf/triple.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire {
namespace {

using rdf::Term;
using sparql::Binding;
using sparql::SolutionSet;

Term random_term(common::Rng& rng) {
  switch (rng.below(5)) {
    case 0: return Term::iri("http://example.org/r/" +
                             std::to_string(rng.below(40)));
    case 1: return Term::literal("value " + std::to_string(rng.below(40)));
    case 2: return Term::lang_literal("wort " + std::to_string(rng.below(9)),
                                      rng.chance(0.5) ? "de" : "en");
    case 3: return Term::integer(static_cast<long long>(rng.below(1000)));
    default: return Term::blank("b" + std::to_string(rng.below(12)));
  }
}

SolutionSet random_set(common::Rng& rng, std::size_t max_rows = 20) {
  static const char* kVars[] = {"a", "name", "x", "y", "z"};
  SolutionSet s;
  std::size_t rows = rng.below(max_rows + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding b;
    for (const char* v : kVars) {
      if (rng.chance(0.6)) b.set(v, random_term(rng));
    }
    s.add(std::move(b));
  }
  return s;
}

TEST(WireCodec, EmptySetRoundTrips) {
  SolutionSet empty;
  std::string payload = encode(empty);
  EXPECT_FALSE(payload.empty());  // framing only, but never zero bytes
  SolutionSet back;
  ASSERT_TRUE(decode(payload, back));
  EXPECT_TRUE(back.empty());
}

TEST(WireCodec, SolutionSetsRoundTrip) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    SolutionSet s = random_set(rng);
    std::string payload = encode(s);
    EXPECT_EQ(payload.size(), encoded_size(s));
    SolutionSet back;
    ASSERT_TRUE(decode(payload, back)) << "trial " << trial;
    // The dictionary is canonical but rows keep their order, so decode is
    // an exact inverse.
    EXPECT_EQ(back.bindings(), s.bindings()) << "trial " << trial;
  }
}

/// The payload format written out over Binding rows: a second encoder that
/// shares nothing with encode() but the varint helpers, so the columnar
/// writer and the size routine are held to the row form's bytes.
std::string row_encode(const std::vector<Binding>& rows) {
  std::set<std::string> var_set;
  std::set<Term> term_set;
  for (const Binding& b : rows) {
    for (const auto& [name, term] : b.slots()) {
      var_set.insert(name);
      term_set.insert(term);
    }
  }
  const std::vector<std::string> vars(var_set.begin(), var_set.end());
  const std::vector<Term> terms(term_set.begin(), term_set.end());
  auto put_string = [](std::string& out, std::string_view v) {
    common::put_varint(out, v.size());
    out.append(v);
  };
  std::string out;
  common::put_varint(out, vars.size());
  for (const std::string& v : vars) put_string(out, v);
  common::put_varint(out, terms.size());
  std::string_view prev;
  for (const Term& t : terms) {
    const std::size_t lcp = common::common_prefix(prev, t.lexical());
    out.push_back(static_cast<char>(t.kind()));
    common::put_varint(out, lcp);
    put_string(out, std::string_view(t.lexical()).substr(lcp));
    put_string(out, t.datatype());
    put_string(out, t.lang());
    prev = t.lexical();
  }
  common::put_varint(out, rows.size());
  for (const Binding& b : rows) {
    std::string bitmap((vars.size() + 7) / 8, '\0');
    std::vector<std::int64_t> ids;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (const Term* t = b.get(vars[i])) {
        bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
        ids.push_back(std::lower_bound(terms.begin(), terms.end(), *t) -
                      terms.begin());
      }
    }
    out.append(bitmap);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      common::put_varint(out, k == 0 ? static_cast<std::uint64_t>(ids[0])
                                     : common::zigzag(ids[k] - ids[k - 1]));
    }
  }
  return out;
}

TEST(WireCodec, ColumnarEncodingEqualsRowEncoding) {
  common::Rng rng(4321);
  for (int trial = 0; trial < 100; ++trial) {
    SolutionSet s = random_set(rng, 40);
    if (rng.chance(0.3)) s.add(Binding{});  // a row binding nothing
    const std::string expected = row_encode(s.bindings());
    ASSERT_EQ(encode(s), expected) << "trial " << trial;
    EXPECT_EQ(encoded_size(s), expected.size()) << "trial " << trial;
    EXPECT_EQ(charged_bytes(s), expected.size()) << "trial " << trial;
  }
}

TEST(WireCodec, TriplesRoundTrip) {
  common::Rng rng(99);
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 50; ++i) {
    triples.push_back({Term::iri("http://s/" + std::to_string(rng.below(10))),
                       Term::iri("http://p/" + std::to_string(rng.below(4))),
                       random_term(rng)});
  }
  std::string payload = encode(triples);
  std::vector<rdf::Triple> back;
  ASSERT_TRUE(decode(payload, back));
  EXPECT_EQ(back, triples);
  EXPECT_EQ(encoded_size(triples), payload.size());
}

TEST(WireCodec, EncodedSizeIsRowOrderIndependent) {
  common::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet s = random_set(rng);
    std::size_t size = encoded_size(s);
    std::vector<Binding> rows = s.bindings();
    rng.shuffle(rows);
    SolutionSet reordered{std::move(rows)};
    EXPECT_EQ(encoded_size(reordered), size) << "trial " << trial;
  }
}

TEST(WireCodec, CompressesRepetitiveSetsBelowRawSize) {
  // 60 rows sharing a handful of terms: the dictionary pays once, rows are
  // bitmap + small ids. This is the whole point of charging wire bytes.
  SolutionSet s;
  for (int i = 0; i < 60; ++i) {
    Binding b;
    b.set("x", Term::iri("http://example.org/resource/" +
                         std::to_string(i % 5)));
    b.set("y", Term::literal("a moderately long literal value " +
                             std::to_string(i % 3)));
    s.add(std::move(b));
  }
  EXPECT_LT(charged_bytes(s), s.byte_size() / 2);
}

TEST(WireCodec, ChargedBytesMemoIsInvalidatedByMutation) {
  common::Rng rng(21);
  SolutionSet s = random_set(rng);
  std::size_t first = charged_bytes(s);
  EXPECT_EQ(s.wire_cache(), first);
  EXPECT_EQ(charged_bytes(s), first);  // memo hit
  Binding extra;
  extra.set("x", Term::iri("http://example.org/new-term"));
  s.add(extra);
  EXPECT_EQ(s.wire_cache(), 0u);  // add() dropped the memo
  EXPECT_EQ(charged_bytes(s), encoded_size(s));
}

TEST(WireCodec, ChargedBytesSurvivesNormalize) {
  common::Rng rng(22);
  SolutionSet s = random_set(rng);
  std::size_t before = charged_bytes(s);
  s.normalize();
  // normalize() keeps the memo: the canonical encoding is order-free.
  EXPECT_EQ(s.wire_cache(), before);
  EXPECT_EQ(charged_bytes(s), encoded_size(s));
}

// Satellite regression for the cached-size drift bug: after an arbitrary
// interleaving of append, projection, row selection, slicing and
// normalization, both the raw byte_size() cache and the wire-size memo must
// equal a from-scratch recomputation over the same rows.
TEST(WireCodec, CachedSizesNeverDriftUnderRandomMutation) {
  common::Rng rng(0xD01F);
  for (int trial = 0; trial < 40; ++trial) {
    SolutionSet s;
    int steps = static_cast<int>(rng.between(1, 25));
    for (int step = 0; step < steps; ++step) {
      switch (rng.below(6)) {
        case 0: {  // append
          Binding b;
          b.set("v" + std::to_string(rng.below(4)), random_term(rng));
          if (rng.chance(0.5)) b.set("w", random_term(rng));
          s.add(std::move(b));
          break;
        }
        case 1: {  // project one variable away
          if (s.width() == 0) break;
          std::vector<std::string> keep = s.vars();
          keep.erase(keep.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(keep.size())));
          s.project(keep);
          break;
        }
        case 2: {  // drop a row
          if (s.empty()) break;
          std::vector<std::size_t> rows;
          const std::size_t drop = rng.below(s.size());
          for (std::size_t r = 0; r < s.size(); ++r) {
            if (r != drop) rows.push_back(r);
          }
          s.keep_rows(rows);
          break;
        }
        case 3: {  // OFFSET 1 LIMIT 3
          std::vector<std::size_t> rows;
          for (std::size_t r = 1; r < std::min<std::size_t>(4, s.size()); ++r) {
            rows.push_back(r);
          }
          s.keep_rows(rows);
          break;
        }
        case 4:
          s.normalize();
          break;
        default: {  // interleave size queries so caches get populated
          (void)s.byte_size();
          (void)charged_bytes(s);
          break;
        }
      }
      // Recompute both sizes on a fresh copy of the same rows.
      SolutionSet fresh{s.bindings()};
      ASSERT_EQ(s.byte_size(), fresh.byte_size())
          << "raw cache drifted at trial " << trial << " step " << step;
      ASSERT_EQ(charged_bytes(s), encoded_size(fresh))
          << "wire memo drifted at trial " << trial << " step " << step;
      // The size-only routine never strays from the writer.
      ASSERT_EQ(encoded_size(fresh), encode(fresh).size())
          << "size routine drifted at trial " << trial << " step " << step;
      ASSERT_EQ(encode(s), encode(fresh))
          << "encoding drifted at trial " << trial << " step " << step;
    }
  }
}

TEST(WireCodec, DecodeRejectsTruncatedPayloads) {
  common::Rng rng(5);
  SolutionSet s = random_set(rng);
  while (s.empty()) s = random_set(rng);
  std::string payload = encode(s);
  SolutionSet out;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode(std::string_view(payload).substr(0, cut), out))
        << "cut " << cut;
  }
  ASSERT_TRUE(decode(payload, out));
}

/// Hostile payloads: each must be rejected by a clean `false`, never by an
/// exception or an allocation sized by the attacker.
std::string varint(std::uint64_t v) {
  std::string out;
  common::put_varint(out, v);
  return out;
}

TEST(WireCodec, DecodeRejectsHugeCountsWithoutThrowing) {
  SolutionSet set_out;
  std::vector<rdf::Triple> triples_out;
  // nvars = 2^62 in a 9-byte payload.
  const std::string vars = varint(std::uint64_t{1} << 62);
  ASSERT_EQ(vars.size(), 9u);
  EXPECT_NO_THROW(EXPECT_FALSE(decode(vars, set_out)));
  // nterms = 2^62 after an empty schema; the same for the triple payload.
  const std::string terms = varint(0) + varint(std::uint64_t{1} << 62);
  EXPECT_NO_THROW(EXPECT_FALSE(decode(terms, set_out)));
  EXPECT_NO_THROW(
      EXPECT_FALSE(decode(varint(std::uint64_t{1} << 62), triples_out)));
  // ntriples = 2^62 after an empty dictionary.
  EXPECT_NO_THROW(EXPECT_FALSE(
      decode(varint(0) + varint(std::uint64_t{1} << 62), triples_out)));
  // nrows = 2^62 with one variable: each row needs a bitmap byte.
  const std::string rows = varint(1) + varint(1) + "x" + varint(0) +
                           varint(std::uint64_t{1} << 62);
  EXPECT_NO_THROW(EXPECT_FALSE(decode(rows, set_out)));
  // Zero-width rows take no bytes; their count is capped instead.
  const std::string empties = varint(0) + varint(0);
  EXPECT_NO_THROW(EXPECT_FALSE(
      decode(empties + varint(std::uint64_t{1} << 62), set_out)));
  EXPECT_NO_THROW(
      EXPECT_FALSE(decode(empties + varint(kMaxEmptyRows + 1), set_out)));
  ASSERT_TRUE(decode(empties + varint(3), set_out));
  EXPECT_EQ(set_out.size(), 3u);
}

TEST(WireCodec, DecodeRejectsOverlongStringLength) {
  // One variable whose name length is 2^64 - 1. A wrapping `pos + len`
  // bounds check passes it and steps the cursor back one byte, onto the
  // length varint's last byte (0x01), and the tail then parses as a
  // one-term dictionary and zero rows: the payload must not be accepted.
  const std::string tail = std::string(1, '\0') + varint(0) + varint(1) +
                           "a" + varint(0) + varint(0) + varint(0);
  const std::string payload = varint(1) + varint(~std::uint64_t{0}) + tail;
  SolutionSet out;
  EXPECT_NO_THROW(EXPECT_FALSE(decode(payload, out)));
}

TEST(WireCodec, DecodeRejectsUnknownTermKind) {
  // One term of kind 7 (TermKind has three values), otherwise well formed:
  // lcp 0, lexical "a", no datatype, no language; then one triple-less
  // solution set.
  const std::string term = std::string(1, '\x07') + varint(0) + varint(1) +
                           "a" + varint(0) + varint(0);
  SolutionSet out;
  EXPECT_NO_THROW(
      EXPECT_FALSE(decode(varint(0) + varint(1) + term + varint(0), out)));
  std::vector<rdf::Triple> triples;
  EXPECT_NO_THROW(EXPECT_FALSE(decode(varint(1) + term + varint(0), triples)));
  // The same payload with a valid kind decodes.
  std::string ok = varint(0) + varint(1) + term + varint(0);
  ok[2] = static_cast<char>(rdf::TermKind::kLiteral);
  EXPECT_TRUE(decode(ok, out));
}

TEST(WireCodec, DecodeRejectsOutOfRangeDeltas) {
  // Two variables, one term, one row binding both: the second slot's
  // zigzag delta is the largest varint, which must land out of range
  // instead of overflowing.
  const std::string term = std::string(1, '\0') + varint(0) + varint(1) +
                           "a" + varint(0) + varint(0);
  const std::string head = varint(2) + varint(1) + "x" + varint(1) + "y" +
                           varint(1) + term + varint(1) + "\x03" + varint(0);
  SolutionSet out;
  EXPECT_NO_THROW(EXPECT_FALSE(decode(head + varint(~std::uint64_t{0}), out)));
  EXPECT_NO_THROW(
      EXPECT_FALSE(decode(head + varint(~std::uint64_t{0} - 1), out)));
  ASSERT_TRUE(decode(head + varint(0), out));
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace ahsw::net::wire
