// Id-space in-network merge for the chain and scatter strategies.
//
// Every storage node on a chain merges its local matches into the partial
// result travelling along the chain (paper §IV, Chain/FreqChain), and the
// scatter/gather strategy merges every provider's matches at the assembly
// site. Both are `deduplicated(set_union(acc, contribution))`, and the
// travelling set's wire size prices each hop. Rebuilding and re-encoding
// the whole set per hop costs O(hops x accumulated rows); ChainAccumulator
// keeps the set in id space instead, so a hop costs O(new rows):
//
//   - the accumulator interns into the dictionary it is given — in the
//     executor the query's, which every set of the query shares; a
//     provider's contribution arrives as its store's ids, imported under
//     their stored hashes, so each distinct term is interned once per hop;
//   - a conjunction chain's carry is joined with each contribution through
//     the set algebra's own hash join (JoinIndex), its index built once;
//   - accumulated rows are id tuples in arrival order, deduplicated through
//     a hash table of row indexes that is probed, never iterated (rule D2);
//   - the raw size is a per-row sum, maintained on insert;
//   - the distinct terms the rows use are kept in Term order with their
//     front-coding prefixes, so net::wire sizes the canonical encoding from
//     these parts with integer work (see CanonicalParts).
//
// The intermediate row order is observable nowhere: the only readers of a
// scan's accumulator are the two size queries and materialize(), which
// hands the id rows over once, when the scan completes, in canonical order
// (sparql::canonical_less) and over the same dictionary — no term is
// decoded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdf/dictionary.hpp"
#include "rdf/store.hpp"
#include "sparql/algebra.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// Id-space image of a solution set holding exactly what the length of
/// its canonical wire encoding depends on (net::wire::encoded_size).
struct CanonicalParts {
  /// Sorted schema: the variables bound in at least one row.
  std::vector<std::string> vars;
  /// The dictionary the ids refer to (it may hold terms no row uses);
  /// may be null when no cell is bound.
  const rdf::TermDictionary* dict = nullptr;
  /// Ids of the distinct terms the rows use, in Term order.
  std::vector<rdf::TermId> sorted;
  /// lcp[i]: common prefix length of the lexicals of sorted[i - 1] and
  /// sorted[i]; lcp[0] == 0.
  std::vector<std::uint32_t> lcp;
  /// TermId -> position in `sorted`; ids no row binds map to 0xffffffff.
  std::vector<std::uint32_t> rank;
  /// Row-major over `vars`; rdf::kInvalidTermId marks an absent binding.
  std::vector<rdf::TermId> cells;
  std::size_t rows = 0;
};

/// The parts of `s`, duplicates and all (the encoding keeps multiplicity),
/// read from its cells over its own dictionary.
[[nodiscard]] CanonicalParts canonical_parts(const SolutionSet& s);

/// The row indexes of `s` sorted by canonical_less, terms ranked as in
/// canonical_parts(s).
[[nodiscard]] std::vector<std::size_t> canonical_order(const SolutionSet& s);

class ChainAccumulator {
 public:
  /// A merge over a dictionary of its own.
  ChainAccumulator();
  /// A merge interning into `dict`: the query's dictionary, in the
  /// executor, so the set it hands over shares it with every other set of
  /// the query.
  explicit ChainAccumulator(std::shared_ptr<rdf::TermDictionary> dict);

  /// Join every later contribution with `carry` before merging it (the
  /// carried set of a conjunction chain). The accumulator refers to
  /// `carry`, which must outlive every later merge, and copies it only to
  /// re-key a carry over another dictionary. The carry is hash-indexed
  /// once, on the first contribution, not per hop.
  void set_carry(const SolutionSet& carry);

  /// One provider's matches of `p` as a set over this accumulator's
  /// dictionary: LocalEngine(store).match_pattern(p), row for row. They
  /// are read from the store's id index through the pattern binder
  /// (match_ids): each distinct store term the rows use is interned once
  /// per call, under the hash the store's dictionary kept, so no row
  /// becomes a Triple or a Binding (unless a pushed filter must see it)
  /// and no term is hashed again. One store's matches of one pattern are
  /// duplicate-free.
  [[nodiscard]] SolutionSet matches(const rdf::TripleStore& store,
                                    const BgpPattern& p);

  /// Merge `contribution`, a set over this accumulator's dictionary: the
  /// accumulated set becomes deduplicated(set_union(set, contribution)),
  /// or deduplicated(set_union(set, join(carry, contribution))) when a
  /// carry is set.
  void merge(const SolutionSet& contribution);

  /// == materialize().byte_size(), maintained incrementally.
  [[nodiscard]] std::size_t byte_size() const noexcept { return raw_bytes_; }

  [[nodiscard]] const CanonicalParts& parts() const noexcept { return parts_; }

  /// Memo slot for the wire-encoded size, owned by net::wire::charged_bytes
  /// (same contract as SolutionSet::wire_cache: 0 = not computed, reset by
  /// any merge() that inserts a row).
  [[nodiscard]] std::size_t wire_cache() const noexcept { return wire_cached_; }
  void set_wire_cache(std::size_t n) const noexcept { wire_cached_ = n; }

  /// The accumulated set in canonical order, over the accumulator's
  /// dictionary: exactly deduplicated() of the union of every
  /// contribution, row for row.
  [[nodiscard]] SolutionSet materialize() const;

 private:
  /// Insert the rows of `s` (over dict_) that the set does not hold yet.
  void insert_rows(const SolutionSet& s);
  void add_var(const std::string& var);
  [[nodiscard]] std::uint64_t row_hash(std::size_t row) const noexcept;
  [[nodiscard]] bool rows_equal(std::size_t a, std::size_t b) const noexcept;
  void index_row(std::size_t row);
  /// Index the tentative last row `row`, unless it equals an indexed row.
  [[nodiscard]] bool index_if_new(std::size_t row);
  /// Resize the probe table and index rows [0, rows) — all distinct.
  void rehash(std::size_t capacity, std::size_t rows);

  std::shared_ptr<rdf::TermDictionary> dict_;
  CanonicalParts parts_;
  std::vector<rdf::TermId> fresh_;  // bound since the last fold, unranked
  // matches()' map from a store's ids to dict_ ids (kInvalidTermId when
  // not mapped yet), reset after each call through `imported_`.
  std::vector<rdf::TermId> memo_;
  std::vector<rdf::TermId> imported_;
  // Open-addressing probe table of row indexes (kEmptySlot when free);
  // probed by row hash, never iterated.
  std::vector<std::uint32_t> table_;
  std::size_t raw_bytes_ = SolutionSet{}.byte_size();
  mutable std::size_t wire_cached_ = 0;

  const SolutionSet* carry_ = nullptr;  // null: no carry
  // The carry re-keyed into dict_, when it came over another dictionary;
  // on the heap, so carry_ and the index stay valid when *this moves.
  std::unique_ptr<const SolutionSet> rekeyed_carry_;
  std::optional<JoinIndex> carry_index_;  // built on the first contribution
};

}  // namespace ahsw::sparql
