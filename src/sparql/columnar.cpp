// The SPARQL set algebra — join, minus, left join (with or without an
// OPTIONAL condition), filter, union and distinct — over dictionary ids.
//
// Every operator reads its operands' TermId cells directly: rows are
// compared as fixed-width id tuples, hash-join keys are id tuples (one
// join core serves join, left_join and, through JoinIndex, the chain
// carry of the in-network merge), and
// FILTER conditions are evaluated once per distinct id tuple of the
// expression's variables (only those slots are decoded, into a Binding for
// satisfies). Output rows are id rows over the left operand's dictionary.
// When the right operand holds another dictionary it is re-keyed into the
// left's once (SolutionSet::rekeyed); in the executor every set of a query
// shares the query's dictionary, so no operator there converts anything.
//
// Row order is part of the contract (the executor's results, plan notes and
// traffic depend on it) and is pinned by tests/sparql/kernel_golden_test.cpp.
#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "rdf/dictionary.hpp"
#include "sparql/accumulator.hpp"
#include "sparql/eval.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;
inline constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

/// `b` over a's dictionary: `b` itself when both share one or either binds
/// no term, else `scratch`, holding `b` re-keyed.
const SolutionSet& aligned(const SolutionSet& a, const SolutionSet& b,
                           SolutionSet& scratch) {
  if (a.dictionary() == b.dictionary() || a.dictionary() == nullptr ||
      b.dictionary() == nullptr) {
    return b;
  }
  scratch = b.rekeyed(a.dictionary());
  return scratch;
}

/// The dictionary of a binary operator's output: a's, or b's when a binds
/// no term.
const std::shared_ptr<rdf::TermDictionary>& output_dictionary(
    const SolutionSet& a, const SolutionSet& b) {
  return a.dictionary() != nullptr ? a.dictionary() : b.dictionary();
}

/// Output rows under construction: row-major ids over one schema.
struct Rows {
  std::vector<TermId> cells;
  std::size_t n = 0;

  void append(const TermId* row, std::size_t width) {
    cells.insert(cells.end(), row, row + width);
    ++n;
  }
};

/// Column correspondence between two operand schemas and their merged
/// (sorted union) output schema.
struct MergeSchema {
  std::vector<std::string> vars;     // sorted union of both schemas
  std::vector<std::size_t> from_a;   // a column -> output column
  std::vector<std::size_t> from_b;   // b column -> output column
  struct SharedCol {
    std::size_t a;
    std::size_t b;
  };
  /// Columns present in both schemas: the variables bound in at least one
  /// row of each operand.
  std::vector<SharedCol> shared;
};

MergeSchema merge_schema(const std::vector<std::string>& va,
                         const std::vector<std::string>& vb) {
  MergeSchema m;
  m.from_a.resize(va.size());
  m.from_b.resize(vb.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < va.size() || j < vb.size()) {
    std::size_t out = m.vars.size();
    if (j == vb.size() || (i < va.size() && va[i] < vb[j])) {
      m.vars.push_back(va[i]);
      m.from_a[i++] = out;
    } else if (i == va.size() || vb[j] < va[i]) {
      m.vars.push_back(vb[j]);
      m.from_b[j++] = out;
    } else {
      m.vars.push_back(va[i]);
      m.shared.push_back({i, j});
      m.from_a[i++] = out;
      m.from_b[j++] = out;
    }
  }
  return m;
}

/// Compatible per Perez et al., in id space: every variable bound in both
/// rows carries the same id. Only shared-schema columns can disagree.
bool compatible(const TermId* ra, const TermId* rb,
                const std::vector<MergeSchema::SharedCol>& shared) {
  for (const auto& sc : shared) {
    TermId x = ra[sc.a];
    TermId y = rb[sc.b];
    if (x != kUnbound && y != kUnbound && x != y) return false;
  }
  return true;
}

/// Row `ra` merged with row `rb` into `buf` (output schema order, a's value
/// winning where both bind — they are equal when the pair is compatible);
/// a null `rb` leaves b's columns unbound.
void merge_cells(const TermId* ra, std::size_t wa, const TermId* rb,
                 std::size_t wb, const MergeSchema& m,
                 std::vector<TermId>& buf) {
  buf.assign(m.vars.size(), kUnbound);
  for (std::size_t c = 0; c < wa; ++c) buf[m.from_a[c]] = ra[c];
  if (rb == nullptr) return;
  for (std::size_t c = 0; c < wb; ++c) {
    if (buf[m.from_b[c]] == kUnbound) buf[m.from_b[c]] = rb[c];
  }
}

/// b's rows indexed on the shared key: rows binding every shared variable
/// sorted by (key hash, row) — a group is an equal_range on the hash, in
/// row order — and the rows missing one (possible after OPTIONAL), which
/// must be checked pairwise. Empty when no variable is shared.
struct KeyIndex {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  std::vector<std::size_t> partial;
};

/// The shared-key id tuple of `row` (a's columns when `a_side`); false
/// when the row leaves a shared variable unbound.
bool shared_key(const TermId* row, const MergeSchema& m, bool a_side,
                std::vector<TermId>& key) {
  key.clear();
  for (const auto& sc : m.shared) {
    TermId id = row[a_side ? sc.a : sc.b];
    if (id == kUnbound) return false;
    key.push_back(id);
  }
  return true;
}

KeyIndex index_b(const SolutionSet& b, const MergeSchema& m) {
  KeyIndex ix;
  if (m.shared.empty()) return ix;
  std::vector<TermId> key;
  for (std::size_t rb = 0; rb < b.size(); ++rb) {
    if (shared_key(b.row(rb), m, false, key)) {
      ix.keyed.emplace_back(hash_ids(key.data(), key.size()), rb);
    } else {
      ix.partial.push_back(rb);
    }
  }
  std::sort(ix.keyed.begin(), ix.keyed.end());
  return ix;
}

/// The join core shared by join, left_join and JoinIndex, probing `ix`
/// (index_b(b, m)). Emission order: per a-row in order, full-key group
/// matches in b order, then partial rows, with a full scan for a-rows
/// missing part of the shared key. (A hash collision only adds candidates
/// that compatible() rejects.) When `matched` is non-null it records, per
/// a-row, whether any pair was emitted (the LeftJoin minus part needs it).
void join_core(const SolutionSet& a, const SolutionSet& b,
               const MergeSchema& m, const KeyIndex& ix, Rows& out,
               std::vector<char>* matched) {
  if (matched != nullptr) matched->assign(a.size(), 0);
  std::vector<TermId> buf;
  auto emit = [&](std::size_t ra, std::size_t rb) {
    merge_cells(a.row(ra), a.width(), b.row(rb), b.width(), m, buf);
    out.append(buf.data(), buf.size());
    if (matched != nullptr) (*matched)[ra] = 1;
  };

  if (m.shared.empty()) {
    // Cartesian product: no shared vars, every pair compatible.
    for (std::size_t ra = 0; ra < a.size(); ++ra) {
      for (std::size_t rb = 0; rb < b.size(); ++rb) emit(ra, rb);
    }
    return;
  }

  std::vector<TermId> key;
  for (std::size_t ra = 0; ra < a.size(); ++ra) {
    const TermId* row = a.row(ra);
    if (shared_key(row, m, true, key)) {
      const std::pair<std::uint64_t, std::size_t> lo{
          hash_ids(key.data(), key.size()), 0};
      for (auto it = std::lower_bound(ix.keyed.begin(), ix.keyed.end(), lo);
           it != ix.keyed.end() && it->first == lo.first; ++it) {
        if (compatible(row, b.row(it->second), m.shared)) emit(ra, it->second);
      }
      for (std::size_t rb : ix.partial) {
        if (compatible(row, b.row(rb), m.shared)) emit(ra, rb);
      }
    } else {
      for (std::size_t rb = 0; rb < b.size(); ++rb) {
        if (compatible(row, b.row(rb), m.shared)) emit(ra, rb);
      }
    }
  }
}

/// Column of each variable of `e` in `vars` (kNoCol: no row binds it, so
/// its slot is constantly unbound), in variables_of(e) order.
std::vector<std::size_t> expression_columns(
    const Expr& e, const std::vector<std::string>& vars) {
  std::vector<std::size_t> cols;
  for (const std::string& v : variables_of(e)) {
    auto it = std::lower_bound(vars.begin(), vars.end(), v);
    cols.push_back(it != vars.end() && *it == v
                       ? static_cast<std::size_t>(it - vars.begin())
                       : kNoCol);
  }
  return cols;
}

/// FILTER verdicts memoized per id tuple of the expression's variables:
/// satisfies() depends only on their terms, so each distinct tuple is
/// decoded and evaluated once.
class FilterMemo {
 public:
  FilterMemo(const Expr& e, const std::vector<std::string>& vars,
             const rdf::TermDictionary* dict)
      : expr_(&e), vars_(&vars), dict_(dict),
        cols_(expression_columns(e, vars)) {}

  /// The verdict for `row`, a row over `vars`.
  bool operator()(const TermId* row) {
    key_.clear();
    for (std::size_t c : cols_) {
      const TermId id = c == kNoCol ? kUnbound : row[c];
      key_.append(reinterpret_cast<const char*>(&id), sizeof id);
    }
    // Point lookups only — never iterated, so hash order cannot leak into
    // output (rule D2).
    auto it = memo_.find(key_);
    if (it != memo_.end()) return it->second;
    Binding b;
    for (std::size_t c : cols_) {
      if (c != kNoCol && row[c] != kUnbound) {
        b.set((*vars_)[c], dict_->term(row[c]));
      }
    }
    const bool ok = satisfies(*expr_, b);
    memo_.emplace(key_, ok);
    return ok;
  }

 private:
  const Expr* expr_;
  const std::vector<std::string>* vars_;
  const rdf::TermDictionary* dict_;
  std::vector<std::size_t> cols_;
  std::unordered_map<std::string, bool> memo_;
  std::string key_;
};

}  // namespace

std::uint64_t hash_ids(const TermId* ids, std::size_t n) noexcept {
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; ++i) h = common::mix64(h ^ ids[i]);
  return h;
}

struct JoinIndex::Core {
  const SolutionSet* b;
  std::vector<std::string> probe_vars;
  MergeSchema m;
  KeyIndex ix;
};

JoinIndex::JoinIndex(const SolutionSet& b,
                     const std::vector<std::string>& probe_vars) {
  MergeSchema m = merge_schema(probe_vars, b.vars());
  KeyIndex ix = index_b(b, m);
  core_ = std::make_unique<const Core>(
      Core{&b, probe_vars, std::move(m), std::move(ix)});
}

JoinIndex::JoinIndex(JoinIndex&&) noexcept = default;
JoinIndex& JoinIndex::operator=(JoinIndex&&) noexcept = default;
JoinIndex::~JoinIndex() = default;

const std::vector<std::string>& JoinIndex::probe_vars() const noexcept {
  return core_->probe_vars;
}

SolutionSet JoinIndex::join(const SolutionSet& a) const {
  const Core& c = *core_;
  assert(a.vars() == c.probe_vars && "a left operand over another schema");
  Rows out;
  join_core(a, *c.b, c.m, c.ix, out, nullptr);
  return SolutionSet(output_dictionary(a, *c.b), c.m.vars,
                     std::move(out.cells), out.n);
}

SolutionSet join(const SolutionSet& a, const SolutionSet& b_in) {
  SolutionSet scratch;
  const SolutionSet& b = aligned(a, b_in, scratch);
  return JoinIndex(b, a.vars()).join(a);
}

SolutionSet set_union(const SolutionSet& a, const SolutionSet& b_in) {
  SolutionSet scratch;
  const SolutionSet& b = aligned(a, b_in, scratch);
  MergeSchema m = merge_schema(a.vars(), b.vars());
  Rows out;
  out.cells.reserve((a.size() + b.size()) * m.vars.size());
  std::vector<TermId> buf;
  for (std::size_t r = 0; r < a.size(); ++r) {
    merge_cells(a.row(r), a.width(), nullptr, 0, m, buf);
    out.append(buf.data(), buf.size());
  }
  for (std::size_t r = 0; r < b.size(); ++r) {
    buf.assign(m.vars.size(), kUnbound);
    for (std::size_t c = 0; c < b.width(); ++c) buf[m.from_b[c]] = b.row(r)[c];
    out.append(buf.data(), buf.size());
  }
  return SolutionSet(output_dictionary(a, b), std::move(m.vars),
                     std::move(out.cells), out.n);
}

SolutionSet minus(const SolutionSet& a, const SolutionSet& b_in) {
  SolutionSet scratch;
  const SolutionSet& b = aligned(a, b_in, scratch);
  const MergeSchema m = merge_schema(a.vars(), b.vars());
  Rows out;
  for (std::size_t ra = 0; ra < a.size(); ++ra) {
    bool any = false;
    for (std::size_t rb = 0; rb < b.size() && !any; ++rb) {
      any = compatible(a.row(ra), b.row(rb), m.shared);
    }
    if (!any) out.append(a.row(ra), a.width());
  }
  return SolutionSet(a.dictionary(), a.vars(), std::move(out.cells), out.n);
}

SolutionSet left_join(const SolutionSet& a, const SolutionSet& b_in) {
  SolutionSet scratch;
  const SolutionSet& b = aligned(a, b_in, scratch);
  MergeSchema m = merge_schema(a.vars(), b.vars());
  Rows out;
  std::vector<char> matched;
  join_core(a, b, m, index_b(b, m), out, &matched);
  // (O1 - O2): an a-row that emitted no pair has no compatible partner
  // (rows outside its key group differ on a both-bound shared var; partial
  // and full-scan paths were checked pairwise).
  std::vector<TermId> buf;
  for (std::size_t ra = 0; ra < matched.size(); ++ra) {
    if (matched[ra] != 0) continue;
    merge_cells(a.row(ra), a.width(), nullptr, 0, m, buf);
    out.append(buf.data(), buf.size());
  }
  return SolutionSet(output_dictionary(a, b), std::move(m.vars),
                     std::move(out.cells), out.n);
}

SolutionSet left_join_conditioned(const SolutionSet& a,
                                  const SolutionSet& b_in,
                                  const ExprPtr& cond) {
  if (cond == nullptr) return left_join(a, b_in);
  SolutionSet scratch;
  const SolutionSet& b = aligned(a, b_in, scratch);
  MergeSchema m = merge_schema(a.vars(), b.vars());
  const std::shared_ptr<rdf::TermDictionary>& dict = output_dictionary(a, b);
  FilterMemo holds(*cond, m.vars, dict.get());

  // Each a-row extends with its compatible b-rows in b order: the key
  // group and the partial rows, merged by row index, or every row when the
  // a-row misses part of the shared key.
  const KeyIndex ix = index_b(b, m);
  std::vector<std::size_t> candidates;
  std::vector<TermId> key;
  std::vector<TermId> buf;
  Rows out;
  for (std::size_t ra = 0; ra < a.size(); ++ra) {
    const TermId* row = a.row(ra);
    candidates.clear();
    if (m.shared.empty() || !shared_key(row, m, true, key)) {
      for (std::size_t rb = 0; rb < b.size(); ++rb) candidates.push_back(rb);
    } else {
      const std::pair<std::uint64_t, std::size_t> lo{
          hash_ids(key.data(), key.size()), 0};
      auto it = std::lower_bound(ix.keyed.begin(), ix.keyed.end(), lo);
      auto p = ix.partial.begin();
      for (; it != ix.keyed.end() && it->first == lo.first; ++it) {
        for (; p != ix.partial.end() && *p < it->second; ++p) {
          candidates.push_back(*p);
        }
        candidates.push_back(it->second);
      }
      candidates.insert(candidates.end(), p, ix.partial.end());
    }
    bool extended = false;
    for (std::size_t rb : candidates) {
      if (!compatible(row, b.row(rb), m.shared)) continue;
      merge_cells(row, a.width(), b.row(rb), b.width(), m, buf);
      if (holds(buf.data())) {
        out.append(buf.data(), buf.size());
        extended = true;
      }
    }
    if (!extended) {
      merge_cells(row, a.width(), nullptr, 0, m, buf);
      out.append(buf.data(), buf.size());
    }
  }
  return SolutionSet(dict, std::move(m.vars), std::move(out.cells), out.n);
}

SolutionSet filter_set(const SolutionSet& in, const Expr& e) {
  FilterMemo holds(e, in.vars(), in.dictionary().get());
  Rows out;
  for (std::size_t r = 0; r < in.size(); ++r) {
    if (holds(in.row(r))) out.append(in.row(r), in.width());
  }
  return SolutionSet(in.dictionary(), in.vars(), std::move(out.cells), out.n);
}

SolutionSet deduplicated(const SolutionSet& in) {
  // Canonical sort, then one row of every run of equal id tuples (within
  // one dictionary, equal ids are equal terms).
  const std::vector<std::size_t> order = canonical_order(in);
  const std::size_t width = in.width();
  Rows out;
  const TermId* prev = nullptr;
  for (std::size_t r : order) {
    const TermId* row = in.row(r);
    if (prev != nullptr && std::equal(row, row + width, prev)) continue;
    out.append(row, width);
    prev = row;
  }
  return SolutionSet(in.dictionary(), in.vars(), std::move(out.cells), out.n);
}

}  // namespace ahsw::sparql
