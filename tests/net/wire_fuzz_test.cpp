// Seeded mutation fuzzing of the wire decoders. Valid payloads — encoded
// from random sets with unbound slots, every term kind, language tags and
// datatypes — are mutated with common::Rng (bit flips, byte inserts and
// deletes, truncations, splices of two payloads) under a fixed iteration
// budget. Every input must end in `false` or a value, never a crash or an
// exception, and every accepted value must survive its own round trip:
// decode(encode(s)) == s, and re-encoding it reproduces encode(s) byte for
// byte — the encoding a set rebuilt from its decoded rows has too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "rdf/term.hpp"
#include "rdf/triple.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire {
namespace {

using rdf::Term;
using sparql::Binding;
using sparql::SolutionSet;

constexpr int kSetIterations = 16000;
constexpr int kTripleIterations = 4000;

Term fuzz_term(common::Rng& rng) {
  switch (rng.below(6)) {
    case 0: return Term::iri("http://example.org/" +
                             std::to_string(rng.below(30)));
    case 1: return Term::literal("text " + std::to_string(rng.below(20)));
    case 2: return Term::lang_literal("wort " + std::to_string(rng.below(6)),
                                      rng.chance(0.5) ? "de" : "en-GB");
    case 3:
      return Term::integer(static_cast<long long>(rng.below(500)) - 250);
    case 4:
      return Term::typed_literal(std::to_string(rng.below(9)) + "-01",
                                 "http://www.w3.org/2001/XMLSchema#date");
    default: return Term::blank("b" + std::to_string(rng.below(10)));
  }
}

SolutionSet fuzz_set(common::Rng& rng) {
  static const char* kVars[] = {"a", "name", "x", "y", "z", "v9"};
  SolutionSet s;
  const std::size_t rows = rng.below(16);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding b;
    for (const char* v : kVars) {
      if (rng.chance(0.5)) b.set(v, fuzz_term(rng));
    }
    s.add(b);
  }
  return s;
}

std::vector<rdf::Triple> fuzz_triples(common::Rng& rng) {
  std::vector<rdf::Triple> out;
  const std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({fuzz_term(rng), fuzz_term(rng), fuzz_term(rng)});
  }
  return out;
}

/// One random mutation of `p`; `other` is the splice partner.
std::string mutate(common::Rng& rng, std::string p,
                   const std::string& other) {
  switch (rng.below(5)) {
    case 0: {  // bit flips
      if (p.empty()) break;
      for (std::uint64_t k = rng.between(1, 4); k > 0; --k) {
        p[rng.below(p.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      break;
    }
    case 1:  // byte insert
      p.insert(rng.below(p.size() + 1), 1, static_cast<char>(rng.below(256)));
      break;
    case 2:  // byte delete
      if (!p.empty()) p.erase(rng.below(p.size()), 1);
      break;
    case 3:  // truncation
      p.resize(rng.below(p.size() + 1));
      break;
    default:  // splice: a prefix of one payload, a suffix of another
      p = p.substr(0, rng.below(p.size() + 1)) +
          other.substr(rng.below(other.size() + 1));
      break;
  }
  return p;
}

TEST(WireDecodeFuzz, MutatedSetPayloadsFailCleanlyOrRoundTrip) {
  common::Rng rng(0xF0221);
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) corpus.push_back(encode(fuzz_set(rng)));
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kSetIterations; ++i) {
    const std::string input =
        mutate(rng, corpus[rng.below(corpus.size())],
               corpus[rng.below(corpus.size())]);
    SolutionSet s;
    bool ok = false;
    ASSERT_NO_THROW(ok = decode(input, s)) << "iteration " << i;
    if (!ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string payload = encode(s);
    SolutionSet back;
    ASSERT_TRUE(decode(payload, back)) << "iteration " << i;
    ASSERT_EQ(back.bindings(), s.bindings()) << "iteration " << i;
    ASSERT_EQ(encode(back), payload) << "iteration " << i;
    ASSERT_EQ(encoded_size(s), payload.size()) << "iteration " << i;
    // The accepted set is well formed: rebuilt from its own rows, it has
    // the same canonical encoding and raw size.
    const SolutionSet rebuilt(s.bindings());
    ASSERT_EQ(encode(rebuilt), payload) << "iteration " << i;
    ASSERT_EQ(s.byte_size(), rebuilt.byte_size()) << "iteration " << i;
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, kSetIterations / 20);
  EXPECT_GT(rejected, kSetIterations / 20);
}

TEST(WireDecodeFuzz, MutatedTriplePayloadsFailCleanlyOrRoundTrip) {
  common::Rng rng(0xF0222);
  std::vector<std::string> corpus;
  for (int i = 0; i < 32; ++i) corpus.push_back(encode(fuzz_triples(rng)));
  int accepted = 0;
  for (int i = 0; i < kTripleIterations; ++i) {
    const std::string input =
        mutate(rng, corpus[rng.below(corpus.size())],
               corpus[rng.below(corpus.size())]);
    std::vector<rdf::Triple> triples;
    bool ok = false;
    ASSERT_NO_THROW(ok = decode(input, triples)) << "iteration " << i;
    if (!ok) continue;
    ++accepted;
    const std::string payload = encode(triples);
    std::vector<rdf::Triple> back;
    ASSERT_TRUE(decode(payload, back)) << "iteration " << i;
    ASSERT_EQ(back, triples) << "iteration " << i;
    ASSERT_EQ(encode(back), payload) << "iteration " << i;
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace ahsw::net::wire
