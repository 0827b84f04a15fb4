#include "sparql/accumulator.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/varint.hpp"
#include "sparql/eval.hpp"

namespace ahsw::sparql {

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;
inline constexpr std::uint32_t kEmptySlot = 0xffffffffu;
/// Rank of a term no row binds yet / of one bound since the last fold.
inline constexpr std::uint32_t kNoRank = 0xffffffffu;
inline constexpr std::uint32_t kPending = 0xfffffffeu;

/// Insert a variable into a sorted schema; returns its column.
std::size_t schema_insert(std::vector<std::string>& vars,
                          const std::string& var) {
  auto it = std::lower_bound(vars.begin(), vars.end(), var);
  if (it == vars.end() || *it != var) it = vars.insert(it, var);
  return static_cast<std::size_t>(it - vars.begin());
}

/// Merge the used-but-unranked ids `fresh` (rank kPending) into p.sorted
/// in place, keeping Term order, then refresh lcp and rank. Only a fresh
/// term and the term right after one get a new predecessor, so only their
/// prefixes are recomputed; everything else is integer moves.
void merge_sorted_terms(CanonicalParts& p, std::vector<TermId>& fresh) {
  const rdf::TermDictionary& dict = *p.dict;
  auto term_less = [&](TermId a, TermId b) {
    return dict.term(a) < dict.term(b);
  };
  std::sort(fresh.begin(), fresh.end(), term_less);
  // Where each fresh term goes among the old ones (monotone).
  const std::size_t old_n = p.sorted.size();
  std::vector<std::size_t> at(fresh.size());
  auto from = p.sorted.begin();
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    from = std::lower_bound(from, p.sorted.end(), fresh[j], term_less);
    at[j] = static_cast<std::size_t>(from - p.sorted.begin());
  }
  // Backward merge: old terms shift up past the fresh ones before them.
  p.sorted.resize(old_n + fresh.size());
  p.lcp.resize(p.sorted.size());
  std::size_t i = old_n;
  std::size_t out = p.sorted.size();
  for (std::size_t j = fresh.size(); j-- > 0;) {
    while (i > at[j]) {
      --i;
      --out;
      p.sorted[out] = p.sorted[i];
      p.lcp[out] = p.lcp[i];
    }
    p.sorted[--out] = fresh[j];
  }
  auto refresh_lcp = [&](std::size_t q) {
    p.lcp[q] = q == 0 ? 0
                      : static_cast<std::uint32_t>(common::common_prefix(
                            dict.term(p.sorted[q - 1]).lexical(),
                            dict.term(p.sorted[q]).lexical()));
  };
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    const std::size_t q = at[j] + j;  // final position of fresh[j]
    refresh_lcp(q);
    if (q + 1 < p.sorted.size()) refresh_lcp(q + 1);
  }
  for (std::size_t q = 0; q < p.sorted.size(); ++q) {
    p.rank[p.sorted[q]] = static_cast<std::uint32_t>(q);
  }
  fresh.clear();
}

}  // namespace

CanonicalParts canonical_parts(const SolutionSet& s) {
  CanonicalParts p;
  p.vars = s.vars();
  p.dict = s.dictionary().get();
  p.cells = s.cells();
  p.rows = s.size();
  if (p.dict == nullptr) return p;
  p.rank.assign(p.dict->size(), kNoRank);
  std::vector<TermId> used;
  for (TermId id : p.cells) {
    if (id != kUnbound && p.rank[id] == kNoRank) {
      p.rank[id] = kPending;
      used.push_back(id);
    }
  }
  merge_sorted_terms(p, used);
  return p;
}

std::vector<std::size_t> canonical_order(const SolutionSet& s) {
  std::vector<std::size_t> order(s.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (s.size() < 2 || s.dictionary() == nullptr) return order;
  const CanonicalParts p = canonical_parts(s);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return canonical_less(s.row(i), s.row(j), s.width(), p.rank.data());
  });
  return order;
}

ChainAccumulator::ChainAccumulator()
    : ChainAccumulator(std::make_shared<rdf::TermDictionary>()) {}

ChainAccumulator::ChainAccumulator(std::shared_ptr<rdf::TermDictionary> dict)
    : dict_(std::move(dict)) {
  parts_.dict = dict_.get();
}

void ChainAccumulator::set_carry(const SolutionSet& carry) {
  if (carry.dictionary() == nullptr || carry.dictionary() == dict_) {
    rekeyed_carry_.reset();
    carry_ = &carry;
  } else {
    rekeyed_carry_ = std::make_unique<const SolutionSet>(carry.rekeyed(dict_));
    carry_ = rekeyed_carry_.get();
  }
  carry_index_.reset();
}

SolutionSet ChainAccumulator::matches(const rdf::TripleStore& store,
                                      const BgpPattern& p) {
  std::vector<std::string> vars;
  std::vector<TermId> cells;
  const std::size_t rows = match_ids(store, p, vars, cells);
  // Re-key the store's ids into dict_, interning each term once.
  const rdf::TermDictionary& from = store.dictionary();
  if (memo_.size() < from.size()) memo_.resize(from.size(), kUnbound);
  for (TermId& id : cells) {
    TermId& to = memo_[id];
    if (to == kUnbound) {
      to = dict_->intern(from.term(id), from.hash_of(id));
      imported_.push_back(id);
    }
    id = to;
  }
  for (TermId id : imported_) memo_[id] = kUnbound;
  imported_.clear();
  return SolutionSet(dict_, std::move(vars), std::move(cells), rows);
}

void ChainAccumulator::merge(const SolutionSet& contribution) {
  assert((contribution.dictionary() == nullptr ||
          contribution.dictionary() == dict_) &&
         "a contribution over another dictionary");
  if (carry_ == nullptr) {
    insert_rows(contribution);
  } else if (!contribution.empty()) {
    // A scan's matches all bind the pattern's variables, so every hop
    // probes the carry on the same key and one index serves them all.
    if (!carry_index_.has_value() ||
        carry_index_->probe_vars() != contribution.vars()) {
      carry_index_.emplace(*carry_, contribution.vars());
    }
    insert_rows(carry_index_->join(contribution));
  }
  if (!fresh_.empty()) merge_sorted_terms(parts_, fresh_);
}

void ChainAccumulator::insert_rows(const SolutionSet& s) {
  // Place the set's columns on the schema, growing it for a variable no
  // earlier row bound (rare: at most once per variable of the scan). Every
  // variable of s is bound by one of its rows, which either is inserted or
  // repeats a row that binds it already.
  for (const std::string& v : s.vars()) {
    if (!std::binary_search(parts_.vars.begin(), parts_.vars.end(), v)) {
      add_var(v);
    }
  }
  std::vector<std::size_t> to(s.width());  // s column -> schema column
  for (std::size_t c = 0; c < s.width(); ++c) {
    to[c] = static_cast<std::size_t>(
        std::lower_bound(parts_.vars.begin(), parts_.vars.end(),
                         s.vars()[c]) -
        parts_.vars.begin());
  }
  const std::size_t width = parts_.vars.size();
  for (std::size_t r = 0; r < s.size(); ++r) {
    const TermId* in = s.row(r);
    const std::size_t row = parts_.rows;
    parts_.cells.resize(parts_.cells.size() + width, kUnbound);
    TermId* cells = parts_.cells.data() + row * width;
    for (std::size_t c = 0; c < s.width(); ++c) cells[to[c]] = in[c];
    ++parts_.rows;
    if (!index_if_new(row)) {  // the tentative row repeats one: drop it
      --parts_.rows;
      parts_.cells.resize(parts_.rows * width);
      continue;
    }

    std::size_t bytes = Binding{}.byte_size();
    for (std::size_t c = 0; c < s.width(); ++c) {
      const TermId id = in[c];
      if (id == kUnbound) continue;
      bytes += Binding::slot_bytes(s.vars()[c], dict_->term(id));
      if (parts_.rank.size() <= id) parts_.rank.resize(dict_->size(), kNoRank);
      if (parts_.rank[id] == kNoRank) {
        parts_.rank[id] = kPending;
        fresh_.push_back(id);
      }
    }
    raw_bytes_ += bytes;
    wire_cached_ = 0;
  }
}

void ChainAccumulator::add_var(const std::string& var) {
  const std::size_t old_width = parts_.vars.size();
  const std::size_t at = schema_insert(parts_.vars, var);
  std::vector<TermId> cells(parts_.rows * (old_width + 1), kUnbound);
  for (std::size_t r = 0; r < parts_.rows; ++r) {
    const TermId* from = parts_.cells.data() + r * old_width;
    TermId* to = cells.data() + r * (old_width + 1);
    std::copy(from, from + at, to);
    std::copy(from + at, from + old_width, to + at + 1);
  }
  parts_.cells = std::move(cells);
  rehash(table_.size(), parts_.rows);
}

std::uint64_t ChainAccumulator::row_hash(std::size_t row) const noexcept {
  const std::size_t width = parts_.vars.size();
  return hash_ids(parts_.cells.data() + row * width, width);
}

bool ChainAccumulator::rows_equal(std::size_t a,
                                  std::size_t b) const noexcept {
  const std::size_t width = parts_.vars.size();
  const TermId* x = parts_.cells.data() + a * width;
  return std::equal(x, x + width, parts_.cells.data() + b * width);
}

void ChainAccumulator::index_row(std::size_t row) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = row_hash(row) & mask;
  while (table_[i] != kEmptySlot) i = (i + 1) & mask;
  table_[i] = static_cast<std::uint32_t>(row);
}

bool ChainAccumulator::index_if_new(std::size_t row) {
  if (table_.size() < 2 * parts_.rows) {
    rehash(std::max<std::size_t>(16, 2 * table_.size()), row);
  }
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = row_hash(row) & mask;; i = (i + 1) & mask) {
    if (table_[i] == kEmptySlot) {
      table_[i] = static_cast<std::uint32_t>(row);
      return true;
    }
    if (rows_equal(table_[i], row)) return false;
  }
}

void ChainAccumulator::rehash(std::size_t capacity, std::size_t rows) {
  table_.assign(capacity, kEmptySlot);
  for (std::size_t r = 0; r < rows; ++r) index_row(r);
}

SolutionSet ChainAccumulator::materialize() const {
  const std::size_t width = parts_.vars.size();
  const TermId* cells = parts_.cells.data();
  std::vector<std::size_t> order(parts_.rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Rows are distinct, so the canonical order is total; the maintained
  // ranks are exactly Term order over the terms the rows use.
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return canonical_less(cells + i * width, cells + j * width, width,
                          parts_.rank.data());
  });
  std::vector<TermId> sorted;
  sorted.reserve(parts_.cells.size());
  for (std::size_t r : order) {
    sorted.insert(sorted.end(), cells + r * width, cells + (r + 1) * width);
  }
  return SolutionSet(dict_, parts_.vars, std::move(sorted), parts_.rows);
}

}  // namespace ahsw::sparql
