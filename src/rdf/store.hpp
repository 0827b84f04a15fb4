// In-memory RDF triple store with three collated orderings (SPO, POS, OSP).
//
// Each storage node in the overlay owns one TripleStore for the data it
// shares; the local SPARQL engine evaluates sub-queries against it. The
// three orderings serve all eight triple-pattern shapes with a range scan.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <set>
#include <vector>

#include "rdf/dictionary.hpp"
#include "rdf/triple.hpp"

namespace ahsw::rdf {

class TripleStore {
 public:
  /// Insert a triple. Returns true if newly added (set semantics).
  bool insert(const Triple& t);

  /// Remove a triple. Returns true if it was present.
  bool erase(const Triple& t);

  [[nodiscard]] bool contains(const Triple& t) const;

  [[nodiscard]] std::size_t size() const noexcept { return spo_.size(); }
  [[nodiscard]] bool empty() const noexcept { return spo_.empty(); }

  /// The one scan body: invoke `fn(s, p, o)` with this store's own
  /// dictionary ids (see dictionary()) for every triple matching the
  /// pattern's bound positions. Variable-sharing constraints (e.g. ?x p ?x)
  /// are NOT enforced here. Iteration order is deterministic (term-id order
  /// of the chosen index); match(), count_matches() and for_each() wrap
  /// this scan and share its order.
  void scan_ids(const TriplePattern& pattern,
                const std::function<void(TermId, TermId, TermId)>& fn) const;

  /// scan_ids() decoded to triples.
  void match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& fn) const;

  /// All matches collected into a vector.
  [[nodiscard]] std::vector<Triple> match(const TriplePattern& pattern) const;

  /// Number of matches without materializing them; used to maintain the
  /// frequency counts the location table carries (Table I of the paper).
  [[nodiscard]] std::size_t count_matches(const TriplePattern& pattern) const;

  /// Invoke `fn` for every stored triple.
  void for_each(const std::function<void(const Triple&)>& fn) const;

  /// The dictionary interning this store's terms: it decodes the ids
  /// scan_ids() emits.
  [[nodiscard]] const TermDictionary& dictionary() const noexcept {
    return dict_;
  }

 private:
  using Key = std::array<TermId, 3>;  // in index-specific position order

  // Decoded positions: spo_[s][p][o], pos_[p][o][s], osp_[o][s][p].
  std::set<Key> spo_;
  std::set<Key> pos_;
  std::set<Key> osp_;
  TermDictionary dict_;

  /// Encode pattern positions to ids; returns false if some bound term is
  /// not in the dictionary (=> zero matches).
  [[nodiscard]] bool encode(const TriplePattern& pattern, bool& s_bound,
                            bool& p_bound, bool& o_bound, TermId& s, TermId& p,
                            TermId& o) const;
};

}  // namespace ahsw::rdf
