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
#include <string>
#include <utility>
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
  /// carried set of a conjunction chain). The carry's ids are taken as
  /// they are (re-keyed first when it holds another dictionary) and
  /// hash-indexed once per join-key shape, not per hop.
  void set_carry(const SolutionSet& carry);

  /// Merge one provider's matches of `p` (joined with the carry, when one
  /// is set): the accumulated set becomes deduplicated(set_union(set,
  /// LocalEngine(store).match_pattern(p))). The matches are read from the
  /// store's id index through the pattern binder (match_ids): each
  /// distinct store term the rows use is interned once per call, under the
  /// hash the store's dictionary kept, so no row becomes a Triple or a
  /// Binding (unless a pushed filter must see it) and no term is hashed
  /// again. This is how a provider's matches enter a chain hop or a
  /// scatter leg.
  void add(const rdf::TripleStore& store, const BgpPattern& p);

  /// == materialize().byte_size(), maintained incrementally.
  [[nodiscard]] std::size_t byte_size() const noexcept { return raw_bytes_; }

  [[nodiscard]] const CanonicalParts& parts() const noexcept { return parts_; }

  /// Memo slot for the wire-encoded size, owned by net::wire::charged_bytes
  /// (same contract as SolutionSet::wire_cache: 0 = not computed, reset by
  /// any add() that inserts a row).
  [[nodiscard]] std::size_t wire_cache() const noexcept { return wire_cached_; }
  void set_wire_cache(std::size_t n) const noexcept { wire_cached_ = n; }

  /// The accumulated set in canonical order, over the accumulator's
  /// dictionary: exactly deduplicated() of the union of every
  /// contribution, row for row.
  [[nodiscard]] SolutionSet materialize() const;

 private:
  /// One bound slot of a row under construction, variables ascending.
  struct Slot {
    const std::string* var;
    rdf::TermId id;
  };
  /// An interned set: its sorted schema and row-major ids.
  struct IdRows {
    std::vector<std::string> vars;
    std::vector<rdf::TermId> cells;
    std::size_t rows = 0;
  };
  /// Carry rows grouped by their ids on `cols` (the carry columns a local
  /// row binds); rows leaving one of them unbound are checked pairwise.
  struct CarryIndex {
    std::vector<std::size_t> cols;
    /// (hash of the row's ids on cols, row), sorted: a group is an
    /// equal_range on the hash.
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    std::vector<std::size_t> partial;
  };

  /// Re-key local_'s cells from ids of `from` to ids of dict_.
  void import_local(const rdf::TermDictionary& from);
  /// Merge local_ (interned into dict_): insert its rows, joined
  /// with the carry when one is set.
  void merge_local();
  /// merge_local() with a carry: hash-join local_ with carry_ and insert
  /// the merged rows.
  void join_carry();
  const CarryIndex& carry_index(const std::vector<std::size_t>& cols);
  void insert_row(const std::vector<Slot>& slots);
  void add_var(const std::string& var);
  [[nodiscard]] std::uint64_t row_hash(std::size_t row) const noexcept;
  [[nodiscard]] bool rows_equal(std::size_t a, std::size_t b) const noexcept;
  void index_row(std::size_t row);
  /// Resize the probe table and index rows [0, rows) — all distinct.
  void rehash(std::size_t capacity, std::size_t rows);

  std::shared_ptr<rdf::TermDictionary> dict_;
  CanonicalParts parts_;
  std::vector<rdf::TermId> fresh_;  // bound since the last fold, unranked
  IdRows local_;                     // the contribution being added
  // import_local's map from a store's ids to dict_ ids (kUnbound
  // when not mapped yet), reset after each call through `imported_`.
  std::vector<rdf::TermId> memo_;
  std::vector<rdf::TermId> imported_;
  // Open-addressing probe table of row indexes (kEmptySlot when free);
  // probed by row hash, never iterated.
  std::vector<std::uint32_t> table_;
  std::size_t raw_bytes_ = SolutionSet{}.byte_size();
  mutable std::size_t wire_cached_ = 0;

  bool has_carry_ = false;
  IdRows carry_;
  std::vector<CarryIndex> carry_indexes_;  // one per key shape seen
};

}  // namespace ahsw::sparql
