// Term dictionary: interns RDF terms to dense 32-bit ids.
//
// The triple store keys its orderings on ids instead of full terms, which
// keeps index nodes cheap and makes equality comparisons O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rdf/term.hpp"

namespace ahsw::rdf {

using TermId = std::uint32_t;
inline constexpr TermId kInvalidTermId = 0xffffffffu;

class TermDictionary {
 public:
  /// Intern a term, returning its id (existing or freshly assigned).
  TermId intern(const Term& t);

  /// intern(t) for a caller that already holds TermHash{}(t) — typically
  /// another dictionary's hash_of(id) — so the term is not hashed again.
  /// Precondition: hash == TermHash{}(t).
  TermId intern(const Term& t, std::uint64_t hash);

  /// Id of a term if already interned.
  [[nodiscard]] std::optional<TermId> find(const Term& t) const;

  /// Term for an id previously returned by intern(). Precondition: valid id.
  [[nodiscard]] const Term& term(TermId id) const { return terms_.at(id); }

  /// TermHash of term(id), stored at intern time. Precondition: valid id.
  [[nodiscard]] std::uint64_t hash_of(TermId id) const {
    return hashes_.at(id);
  }

  [[nodiscard]] std::size_t size() const noexcept { return terms_.size(); }

  /// The sanctioned traversal: every interned term in id (= insertion)
  /// order, so `terms()[id] == term(id)`. Callers must never walk `slots_` —
  /// its hash order would differ across platforms and leak into any output
  /// built from it (rule D2).
  [[nodiscard]] const std::vector<Term>& terms() const noexcept {
    return terms_;
  }

 private:
  /// Slot of `t` in slots_: the one holding its id, or the free slot where
  /// it belongs. Precondition: slots_ is not full.
  [[nodiscard]] std::size_t probe(const Term& t,
                                  std::uint64_t hash) const noexcept;

  // Each term is stored once, in terms_; slots_ is an open-addressing table
  // of ids (kInvalidTermId when free) probed by TermHash, never iterated —
  // traversal goes through terms(), which is deterministic insertion order.
  std::vector<Term> terms_;
  std::vector<std::uint64_t> hashes_;  // TermHash of terms_[id]
  std::vector<TermId> slots_;          // size: 0 or a power of two
};

}  // namespace ahsw::rdf
