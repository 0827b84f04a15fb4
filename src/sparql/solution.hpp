// Solution mappings and the set-level operations of the SPARQL algebra.
//
// Follows Perez, Arenas & Gutierrez, "Semantics and complexity of SPARQL"
// (TODS 2009), the formalization the paper adopts in Sect. IV-A:
//   - a solution mapping u is a partial function from variables to RDF terms;
//   - u1, u2 are compatible iff they agree on every shared variable;
//   - Join:  O1 x O2 = { u1 u u2 | u1 in O1, u2 in O2, compatible }
//   - Union: O1 u O2
//   - Minus: O1 - O2 = { u1 | forall u2 in O2: not compatible(u1, u2) }
//   - LeftJoin: (O1 x O2) u (O1 - O2), with an optional filter condition
//     applied inside the join part (SPARQL OPTIONAL semantics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rdf/dictionary.hpp"
#include "rdf/term.hpp"

namespace ahsw::sparql {

/// One solution mapping (a row of a SPARQL result). Stored as a sorted
/// flat vector of (variable name, term) pairs; names exclude the '?'.
class Binding {
 public:
  Binding() = default;

  /// Term bound to `var`, or nullptr when unbound.
  [[nodiscard]] const rdf::Term* get(std::string_view var) const noexcept;

  /// Bind `var` to `term`. Overwrites an existing binding of the same var.
  void set(std::string_view var, rdf::Term term);

  [[nodiscard]] bool bound(std::string_view var) const noexcept {
    return get(var) != nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Room for `n` slots, so a row built slot by slot holds no spare
  /// capacity.
  void reserve(std::size_t n) { slots_.reserve(n); }

  /// Keep only the named variables (SPARQL projection).
  [[nodiscard]] Binding projected(const std::vector<std::string>& vars) const;

  /// Sorted (name, term) pairs; iteration order is deterministic.
  [[nodiscard]] const std::vector<std::pair<std::string, rdf::Term>>& slots()
      const noexcept {
    return slots_;
  }

  /// Serialized size for the network cost model.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Raw size of one (variable, term) slot; byte_size() adds the slots to
  /// the empty row's framing.
  [[nodiscard]] static std::size_t slot_bytes(std::string_view var,
                                              const rdf::Term& t) noexcept {
    return var.size() + 1 + t.byte_size();
  }

  /// Debug form: `{x-><a>, y->"v"}` with variables in sorted order.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Binding&, const Binding&) = default;
  /// Lexicographic over sorted slots: gives result sets a canonical order.
  friend std::strong_ordering operator<=>(const Binding&,
                                          const Binding&) = default;

 private:
  std::vector<std::pair<std::string, rdf::Term>> slots_;
};

/// A sequence of solution mappings (duplicates allowed: SPARQL solution
/// *sequences* keep multiplicity until DISTINCT/REDUCED), stored as
/// dictionary ids: a sorted variable schema, row-major rdf::TermId cells
/// over it (rdf::kInvalidTermId marks an unbound slot) and the
/// rdf::TermDictionary the ids refer to. Every variable of the schema is
/// bound in at least one row.
///
/// The distributed executor gives every set of one query the query's
/// dictionary, so its operators compare, hash and move ids and never touch
/// a string; a Binding row exists only at the boundary (add() interns one,
/// bindings() and to_string() decode).
class SolutionSet {
 public:
  SolutionSet() = default;
  /// An empty set whose rows intern into `dict`.
  explicit SolutionSet(std::shared_ptr<rdf::TermDictionary> dict)
      : dict_(std::move(dict)) {}
  SolutionSet(const SolutionSet&) = default;
  SolutionSet& operator=(const SolutionSet&) = default;
  /// A moved-from set is empty (the executor moves operator outputs to
  /// their consumers).
  SolutionSet(SolutionSet&& other) noexcept { *this = std::move(other); }
  SolutionSet& operator=(SolutionSet&& other) noexcept;
  /// The rows, in order, interned into a fresh dictionary.
  explicit SolutionSet(const std::vector<Binding>& rows);
  /// Adopt `rows` id rows over `dict`: `vars` sorted and unique, `cells`
  /// row-major over them. Columns no row binds are dropped.
  SolutionSet(std::shared_ptr<rdf::TermDictionary> dict,
              std::vector<std::string> vars, std::vector<rdf::TermId> cells,
              std::size_t rows);

  [[nodiscard]] std::size_t size() const noexcept { return rows_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  /// Append `b`, interning its terms. The raw size is a plain per-row sum,
  /// so its cache is kept exact; the wire (encoded) size is holistic — a
  /// new row can extend the payload's term dictionary or variable schema —
  /// so the wire memo is dropped.
  void add(const Binding& b);

  /// Row `r` decoded.
  [[nodiscard]] Binding binding(std::size_t r) const;
  /// The rows decoded, in order.
  [[nodiscard]] std::vector<Binding> bindings() const;
  /// == bindings(), for readers written against the row form.
  [[nodiscard]] std::vector<Binding> rows() const { return bindings(); }

  /// The sorted schema: the variables bound in at least one row.
  [[nodiscard]] const std::vector<std::string>& vars() const noexcept {
    return vars_;
  }
  [[nodiscard]] std::size_t width() const noexcept { return vars_.size(); }
  /// Row-major ids over vars(); rdf::kInvalidTermId = unbound.
  [[nodiscard]] const std::vector<rdf::TermId>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const rdf::TermId* row(std::size_t r) const noexcept {
    return cells_.data() + r * vars_.size();
  }
  /// Column of `var` in vars(), or width() when no row binds it.
  [[nodiscard]] std::size_t column(std::string_view var) const noexcept;
  /// The dictionary the ids refer to; may be null when no cell is bound.
  [[nodiscard]] const std::shared_ptr<rdf::TermDictionary>& dictionary()
      const noexcept {
    return dict_;
  }
  [[nodiscard]] const rdf::Term& term(rdf::TermId id) const {
    return dict_->term(id);
  }

  /// This set over `dict`: every term its rows use interned there once,
  /// O(distinct terms), and the cells re-keyed. The one id conversion: for
  /// operands that hold different dictionaries (never in the executor,
  /// where every set of a query shares one), and for a delivered result,
  /// which the executor hands a dictionary of its own terms.
  [[nodiscard]] SolutionSet rekeyed(
      const std::shared_ptr<rdf::TermDictionary>& dict) const;

  /// Total *raw* (uncompressed) serialized size: the sum of
  /// Binding::byte_size() over the rows plus set framing. The cost model
  /// charges the compressed size instead (net::wire::charged_bytes); this
  /// raw figure travels alongside every send as its `raw_bytes`
  /// counterpart so the compression win stays observable. Cached.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Memo slot for the wire-encoded size, owned by net::wire::charged_bytes
  /// (the encoder lives above this layer). 0 means "not computed": an
  /// encoded payload is never empty, so 0 is a safe dirty sentinel. Any
  /// mutation resets it except normalize(), since the canonical encoding
  /// is row-order independent.
  [[nodiscard]] std::size_t wire_cache() const noexcept { return wire_cached_; }
  void set_wire_cache(std::size_t n) const noexcept { wire_cached_ = n; }

  /// Sort rows canonically (see canonical_less). Reordering does not
  /// change the serialized size, so both caches survive.
  void normalize();

  /// Keep only the named variables (SPARQL projection).
  void project(const std::vector<std::string>& vars);
  /// Keep the rows at `order`, in that order.
  void keep_rows(const std::vector<std::size_t>& order);

  /// `[{x-><a>, y->"v"}, ...]`: Binding::to_string of every row, in order.
  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::size_t kDirty = static_cast<std::size_t>(-1);
  static constexpr std::size_t kSetFraming = 4;

  void drop_unbound_columns();

  std::shared_ptr<rdf::TermDictionary> dict_;
  std::vector<std::string> vars_;
  std::vector<rdf::TermId> cells_;
  std::size_t rows_ = 0;
  /// Serialized size plus framing, or kDirty when a mutation may have
  /// outdated it. A fresh set is empty, so the cache starts valid and
  /// add() can maintain it incrementally.
  mutable std::size_t cached_bytes_ = kSetFraming;
  /// Wire-encoded size memo (see wire_cache()); 0 = not computed.
  mutable std::size_t wire_cached_ = 0;
};

/// The canonical row order, on ids: Binding's `operator<=>` (lexicographic
/// over the sorted bound slots, a row that is a strict prefix first).
/// `x` and `y` are rows of one schema of `width` columns; `rank[id]` is
/// the position of term `id` in Term order among the terms compared. A
/// slot pair compares by variable first (column order is name order), then
/// by term (rank order is Term order).
[[nodiscard]] bool canonical_less(const rdf::TermId* x, const rdf::TermId* y,
                                  std::size_t width,
                                  const std::uint32_t* rank) noexcept;

// The binary operators run over dictionary ids (defined in columnar.cpp);
// their row order is part of the contract and pinned by goldens. Their
// output shares a's dictionary (b's when a binds no term).

/// O1 x O2 (hash join on the shared variables).
[[nodiscard]] SolutionSet join(const SolutionSet& a, const SolutionSet& b);

/// O1 u O2.
[[nodiscard]] SolutionSet set_union(const SolutionSet& a,
                                    const SolutionSet& b);

/// O1 - O2 (per Perez et al.: drop u1 compatible with any u2).
[[nodiscard]] SolutionSet minus(const SolutionSet& a, const SolutionSet& b);

/// Left outer join without a condition: (O1 x O2) u (O1 - O2).
[[nodiscard]] SolutionSet left_join(const SolutionSet& a,
                                    const SolutionSet& b);

/// The build side of join(a, b): b's rows hash-indexed on the variables
/// they share with the left operands' schema, built once and probed by
/// every left operand over that schema. A chain's carry is indexed once
/// per distribution, not once per hop. The index refers to `b`, which must
/// outlive it; a left operand must share b's dictionary.
class JoinIndex {
 public:
  JoinIndex(const SolutionSet& b, const std::vector<std::string>& probe_vars);
  JoinIndex(JoinIndex&&) noexcept;
  JoinIndex& operator=(JoinIndex&&) noexcept;
  ~JoinIndex();

  /// The left operands' schema the index serves.
  [[nodiscard]] const std::vector<std::string>& probe_vars() const noexcept;

  /// join(a, b) for `a` over probe_vars(): the same rows in the same order.
  [[nodiscard]] SolutionSet join(const SolutionSet& a) const;

 private:
  struct Core;
  std::unique_ptr<const Core> core_;
};

/// Hash of an id tuple: the key of a join index and of the in-network
/// merge's duplicate table.
[[nodiscard]] std::uint64_t hash_ids(const rdf::TermId* ids,
                                     std::size_t n) noexcept;

/// Variables appearing in any row of `s`, sorted.
[[nodiscard]] std::vector<std::string> variables_of(const SolutionSet& s);

}  // namespace ahsw::sparql
