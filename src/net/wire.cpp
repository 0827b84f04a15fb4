#include "net/wire.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include "common/varint.hpp"

namespace ahsw::net::wire {

namespace {

using common::common_prefix;
using common::get_varint;
using common::put_varint;
using common::unzigzag;
using common::zigzag;

/// Sorted unique terms plus a term -> dictionary-index map. Sorting by
/// Term::operator<=> makes the section canonical: the same term multiset
/// always yields the same dictionary, whatever order rows arrived in.
struct Dictionary {
  std::vector<const rdf::Term*> terms;  // sorted, unique
  std::map<rdf::Term, std::uint32_t> index;

  void collect(const rdf::Term& t) { index.emplace(t, 0); }

  void seal() {
    terms.reserve(index.size());
    std::uint32_t id = 0;
    for (auto& [term, idx] : index) {
      idx = id++;
      terms.push_back(&term);
    }
  }

  [[nodiscard]] std::uint32_t id_of(const rdf::Term& t) const {
    return index.at(t);
  }
};

void encode_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

/// One front-coded term: kind, shared-prefix length `lcp` against the
/// previous term's lexical, suffix, datatype, language tag.
void encode_term(std::string& out, const rdf::Term& t, std::size_t lcp) {
  out.push_back(static_cast<char>(t.kind()));
  put_varint(out, lcp);
  encode_string(out, std::string_view(t.lexical()).substr(lcp));
  encode_string(out, t.datatype());
  encode_string(out, t.lang());
}

/// Front-coded dictionary section.
void encode_dictionary(std::string& out, const Dictionary& dict) {
  put_varint(out, dict.terms.size());
  std::string_view prev;
  for (const rdf::Term* t : dict.terms) {
    encode_term(out, *t, common_prefix(prev, t->lexical()));
    prev = t->lexical();
  }
}

/// Smallest encoded footprint of one element of each counted section, so
/// a count can be checked against the bytes left before anything is sized
/// by it: a variable is at least its length varint, a term its kind byte
/// and four varints, a triple three id varints.
inline constexpr std::uint64_t kMinVarBytes = 1;
inline constexpr std::uint64_t kMinTermBytes = 5;
inline constexpr std::uint64_t kMinTripleBytes = 3;

/// Read a count and check that `n` elements of at least `min_bytes` each
/// fit in the rest of `in`.
bool get_count(std::string_view in, std::size_t& pos, std::uint64_t min_bytes,
               std::uint64_t& n) {
  return get_varint(in, pos, n) && n <= (in.size() - pos) / min_bytes;
}

bool decode_string(std::string_view in, std::size_t& pos, std::string& out) {
  std::uint64_t len = 0;
  if (!get_varint(in, pos, len) || len > in.size() - pos) return false;
  out.assign(in.substr(pos, len));
  pos += len;
  return true;
}

rdf::Term make_term(rdf::TermKind kind, std::string lexical,
                    std::string datatype, std::string lang) {
  switch (kind) {
    case rdf::TermKind::kIri:
      return rdf::Term::iri(std::move(lexical));
    case rdf::TermKind::kBlank:
      return rdf::Term::blank(std::move(lexical));
    case rdf::TermKind::kLiteral:
      if (!lang.empty()) {
        return rdf::Term::lang_literal(std::move(lexical), std::move(lang));
      }
      if (!datatype.empty()) {
        return rdf::Term::typed_literal(std::move(lexical),
                                        std::move(datatype));
      }
      return rdf::Term::literal(std::move(lexical));
  }
  return {};
}

bool decode_dictionary(std::string_view in, std::size_t& pos,
                       std::vector<rdf::Term>& terms) {
  std::uint64_t nterms = 0;
  if (!get_count(in, pos, kMinTermBytes, nterms)) return false;
  terms.clear();
  terms.reserve(nterms);
  std::string prev;
  for (std::uint64_t i = 0; i < nterms; ++i) {
    if (pos >= in.size()) return false;
    const auto kind_byte = static_cast<std::uint8_t>(in[pos++]);
    if (kind_byte > static_cast<std::uint8_t>(rdf::TermKind::kBlank)) {
      return false;
    }
    const auto kind = static_cast<rdf::TermKind>(kind_byte);
    std::uint64_t lcp = 0;
    if (!get_varint(in, pos, lcp) || lcp > prev.size()) return false;
    std::string suffix, datatype, lang;
    if (!decode_string(in, pos, suffix) ||
        !decode_string(in, pos, datatype) || !decode_string(in, pos, lang)) {
      return false;
    }
    std::string lexical = prev.substr(0, lcp) + suffix;
    prev = lexical;
    terms.push_back(
        make_term(kind, std::move(lexical), std::move(datatype),
                  std::move(lang)));
  }
  return true;
}

/// The index a zigzag delta leads to from `prev`, in wrapping unsigned
/// arithmetic: a hostile delta can neither overflow nor go negative, it
/// only lands out of range, which the caller rejects.
std::uint64_t next_id(std::uint64_t prev, std::uint64_t raw) noexcept {
  return prev + static_cast<std::uint64_t>(unzigzag(raw));
}

/// One row's bound dictionary indexes in var order: first absolute, the
/// rest zigzag deltas. Depends only on the row's own content.
void encode_row_ids(std::string& out, const std::vector<std::uint32_t>& ids) {
  bool first = true;
  std::uint32_t prev = 0;
  for (std::uint32_t id : ids) {
    if (first) {
      put_varint(out, id);
      first = false;
    } else {
      put_varint(out, zigzag(static_cast<std::int64_t>(id) -
                             static_cast<std::int64_t>(prev)));
    }
    prev = id;
  }
}

}  // namespace

std::string encode(const sparql::SolutionSet& s) {
  // The canonical parts are the payload: sorted schema, the distinct terms
  // in Term order with their front-coding prefixes, and per-row ranks.
  const sparql::CanonicalParts p = sparql::canonical_parts(s);
  std::string out;
  put_varint(out, p.vars.size());
  for (const std::string& v : p.vars) encode_string(out, v);
  put_varint(out, p.sorted.size());
  for (std::size_t i = 0; i < p.sorted.size(); ++i) {
    encode_term(out, p.dict->term(p.sorted[i]), p.lcp[i]);
  }

  put_varint(out, p.rows);
  const std::size_t width = p.vars.size();
  const std::size_t bitmap_bytes = (width + 7) / 8;
  std::vector<std::uint32_t> ids;
  for (std::size_t r = 0; r < p.rows; ++r) {
    const rdf::TermId* row = p.cells.data() + r * width;
    std::string bitmap(bitmap_bytes, '\0');
    ids.clear();
    for (std::size_t i = 0; i < width; ++i) {
      if (row[i] == rdf::kInvalidTermId) continue;
      bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
      ids.push_back(p.rank[row[i]]);
    }
    out.append(bitmap);
    encode_row_ids(out, ids);
  }
  return out;
}

bool decode(std::string_view in, sparql::SolutionSet& out) {
  std::size_t pos = 0;
  std::uint64_t nvars = 0;
  if (!get_count(in, pos, kMinVarBytes, nvars)) return false;
  std::vector<std::string> vars(nvars);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!decode_string(in, pos, vars[i])) return false;
    // The schema is sorted and duplicate-free, as encode() writes it.
    if (i > 0 && !(vars[i - 1] < vars[i])) return false;
  }
  std::vector<rdf::Term> terms;
  if (!decode_dictionary(in, pos, terms)) return false;

  std::uint64_t nrows = 0;
  const std::size_t bitmap_bytes = (nvars + 7) / 8;
  if (!(bitmap_bytes == 0 ? get_varint(in, pos, nrows) && nrows <= kMaxEmptyRows
                          : get_count(in, pos, bitmap_bytes, nrows))) {
    return false;
  }
  // Payload term index -> id in the set's dictionary, interned on first
  // use, so terms no row binds stay out of it.
  auto dict = std::make_shared<rdf::TermDictionary>();
  std::vector<rdf::TermId> id_of(terms.size(), rdf::kInvalidTermId);
  const std::size_t width = vars.size();
  std::vector<rdf::TermId> cells(static_cast<std::size_t>(nrows) * width,
                                 rdf::kInvalidTermId);
  for (std::uint64_t r = 0; r < nrows; ++r) {
    if (bitmap_bytes > in.size() - pos) return false;
    std::string_view bitmap = in.substr(pos, bitmap_bytes);
    pos += bitmap_bytes;
    rdf::TermId* row = cells.data() + r * width;
    std::uint64_t prev = 0;
    bool first = true;
    for (std::size_t i = 0; i < width; ++i) {
      if ((static_cast<std::uint8_t>(bitmap[i / 8]) & (1 << (i % 8))) == 0) {
        continue;
      }
      std::uint64_t raw = 0;
      if (!get_varint(in, pos, raw)) return false;
      const std::uint64_t idx = first ? raw : next_id(prev, raw);
      first = false;
      if (idx >= terms.size()) return false;
      prev = idx;
      rdf::TermId& id = id_of[static_cast<std::size_t>(idx)];
      if (id == rdf::kInvalidTermId) {
        id = dict->intern(terms[static_cast<std::size_t>(idx)]);
      }
      row[i] = id;
    }
  }
  out = sparql::SolutionSet(std::move(dict), std::move(vars),
                            std::move(cells), static_cast<std::size_t>(nrows));
  return true;
}

std::string encode(const std::vector<rdf::Triple>& triples) {
  Dictionary dict;
  for (const rdf::Triple& t : triples) {
    dict.collect(t.s);
    dict.collect(t.p);
    dict.collect(t.o);
  }
  dict.seal();

  std::string out;
  encode_dictionary(out, dict);
  put_varint(out, triples.size());
  std::vector<std::uint32_t> ids(3);
  for (const rdf::Triple& t : triples) {
    ids[0] = dict.id_of(t.s);
    ids[1] = dict.id_of(t.p);
    ids[2] = dict.id_of(t.o);
    encode_row_ids(out, ids);
  }
  return out;
}

bool decode(std::string_view in, std::vector<rdf::Triple>& out) {
  std::size_t pos = 0;
  std::vector<rdf::Term> terms;
  if (!decode_dictionary(in, pos, terms)) return false;
  std::uint64_t ntriples = 0;
  if (!get_count(in, pos, kMinTripleBytes, ntriples)) return false;
  std::vector<rdf::Triple> result;
  result.reserve(ntriples);
  for (std::uint64_t r = 0; r < ntriples; ++r) {
    rdf::Term* slots[3];
    rdf::Triple t;
    slots[0] = &t.s;
    slots[1] = &t.p;
    slots[2] = &t.o;
    std::uint64_t prev = 0;
    for (int i = 0; i < 3; ++i) {
      std::uint64_t raw = 0;
      if (!get_varint(in, pos, raw)) return false;
      const std::uint64_t id = i == 0 ? raw : next_id(prev, raw);
      if (id >= terms.size()) return false;
      prev = id;
      *slots[i] = terms[static_cast<std::size_t>(id)];
    }
    result.push_back(std::move(t));
  }
  out = std::move(result);
  return true;
}

std::size_t encoded_size(const sparql::CanonicalParts& p) {
  // Mirrors encode() section by section; WireCodec tests pin the two
  // against each other.
  using common::varint_size;
  auto string_size = [](std::size_t len) { return varint_size(len) + len; };
  std::size_t n = varint_size(p.vars.size());
  for (const std::string& v : p.vars) n += string_size(v.size());

  n += varint_size(p.sorted.size());
  for (std::size_t i = 0; i < p.sorted.size(); ++i) {
    const rdf::Term& t = p.dict->term(p.sorted[i]);
    n += 1 + varint_size(p.lcp[i]) +
         string_size(t.lexical().size() - p.lcp[i]) +
         string_size(t.datatype().size()) + string_size(t.lang().size());
  }

  const std::size_t width = p.vars.size();
  n += varint_size(p.rows) + p.rows * ((width + 7) / 8);
  const rdf::TermId* cell = p.cells.data();
  for (std::size_t r = 0; r < p.rows; ++r, cell += width) {
    bool first = true;
    std::uint32_t prev = 0;
    for (std::size_t c = 0; c < width; ++c) {
      if (cell[c] == rdf::kInvalidTermId) continue;
      const std::uint32_t rank = p.rank[cell[c]];
      n += varint_size(first ? rank
                             : zigzag(static_cast<std::int64_t>(rank) -
                                      static_cast<std::int64_t>(prev)));
      first = false;
      prev = rank;
    }
  }
  return n;
}

std::size_t encoded_size(const sparql::SolutionSet& s) {
  return encoded_size(sparql::canonical_parts(s));
}

std::size_t encoded_size(const std::vector<rdf::Triple>& t) {
  return encode(t).size();
}

std::size_t charged_bytes(const sparql::SolutionSet& s) {
  if (std::size_t cached = s.wire_cache(); cached != 0) return cached;
  const std::size_t n = encoded_size(s);
  s.set_wire_cache(n);
  return n;
}

std::size_t charged_bytes(const sparql::ChainAccumulator& acc) {
  if (std::size_t cached = acc.wire_cache(); cached != 0) return cached;
  const std::size_t n = encoded_size(acc.parts());
  acc.set_wire_cache(n);
  return n;
}

std::size_t raw_bytes(const std::vector<rdf::Triple>& t) {
  std::size_t n = 0;
  for (const rdf::Triple& tr : t) n += tr.byte_size();
  return n;
}

}  // namespace ahsw::net::wire
