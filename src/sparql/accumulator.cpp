#include "sparql/accumulator.hpp"

#include <algorithm>
#include <numeric>

#include "common/hash.hpp"
#include "common/varint.hpp"
#include "sparql/eval.hpp"

namespace ahsw::sparql {

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;
inline constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);
inline constexpr std::uint32_t kEmptySlot = 0xffffffffu;
/// Rank of a term no row binds yet / of one bound since the last fold.
inline constexpr std::uint32_t kNoRank = 0xffffffffu;
inline constexpr std::uint32_t kPending = 0xfffffffeu;

std::uint64_t hash_ids(const TermId* ids, std::size_t n) noexcept {
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; ++i) h = common::mix64(h ^ ids[i]);
  return h;
}

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
  const bool shared =
      carry.dictionary() == nullptr || carry.dictionary() == dict_;
  const SolutionSet rekeyed = shared ? SolutionSet{} : carry.rekeyed(dict_);
  const SolutionSet& c = shared ? carry : rekeyed;
  carry_.vars = c.vars();
  carry_.cells = c.cells();
  carry_.rows = c.size();
  carry_indexes_.clear();
  has_carry_ = true;
}

const ChainAccumulator::CarryIndex& ChainAccumulator::carry_index(
    const std::vector<std::size_t>& cols) {
  for (const CarryIndex& ix : carry_indexes_) {
    if (ix.cols == cols) return ix;
  }
  CarryIndex ix;
  ix.cols = cols;
  const std::size_t width = carry_.vars.size();
  std::vector<TermId> key(cols.size());
  for (std::size_t r = 0; r < carry_.rows; ++r) {
    const TermId* row = carry_.cells.data() + r * width;
    bool full = true;
    for (std::size_t k = 0; k < cols.size() && full; ++k) {
      key[k] = row[cols[k]];
      full = key[k] != kUnbound;
    }
    if (full) {
      ix.keyed.emplace_back(hash_ids(key.data(), key.size()), r);
    } else {
      ix.partial.push_back(r);
    }
  }
  std::sort(ix.keyed.begin(), ix.keyed.end());
  carry_indexes_.push_back(std::move(ix));
  return carry_indexes_.back();
}

void ChainAccumulator::add(const rdf::TripleStore& store,
                           const BgpPattern& p) {
  local_.rows = match_ids(store, p, local_.vars, local_.cells);
  import_local(store.dictionary());
  merge_local();
}

void ChainAccumulator::import_local(const rdf::TermDictionary& from) {
  if (memo_.size() < from.size()) memo_.resize(from.size(), kUnbound);
  for (TermId& id : local_.cells) {
    TermId& to = memo_[id];
    if (to == kUnbound) {
      to = dict_->intern(from.term(id), from.hash_of(id));
      imported_.push_back(id);
    }
    id = to;
  }
  for (TermId id : imported_) memo_[id] = kUnbound;
  imported_.clear();
}

void ChainAccumulator::merge_local() {
  if (has_carry_) {
    join_carry();
  } else {
    const std::size_t width = local_.vars.size();
    std::vector<Slot> slots;
    for (std::size_t r = 0; r < local_.rows; ++r) {
      const TermId* row = local_.cells.data() + r * width;
      slots.clear();
      for (std::size_t c = 0; c < width; ++c) {
        if (row[c] != kUnbound) slots.push_back({&local_.vars[c], row[c]});
      }
      insert_row(slots);
    }
  }
  if (!fresh_.empty()) merge_sorted_terms(parts_, fresh_);
}

void ChainAccumulator::join_carry() {
  const IdRows& in = local_;
  const std::size_t width = in.vars.size();
  std::vector<Slot> slots;

  // Join with the carry (hash join in id space). Only the set of merged
  // rows matters — they are deduplicated into the accumulator — so the
  // emission order is free.
  const std::size_t cwidth = carry_.vars.size();
  std::vector<std::size_t> to_carry(width, kNoCol);  // local col -> carry col
  for (std::size_t c = 0; c < width; ++c) {
    auto it = std::lower_bound(carry_.vars.begin(), carry_.vars.end(),
                               in.vars[c]);
    if (it != carry_.vars.end() && *it == in.vars[c]) {
      to_carry[c] = static_cast<std::size_t>(it - carry_.vars.begin());
    }
  }
  std::vector<std::size_t> cols;
  std::vector<std::size_t> shared_local;
  std::vector<TermId> key;
  for (std::size_t r = 0; r < in.rows; ++r) {
    const TermId* row = in.cells.data() + r * width;
    cols.clear();
    shared_local.clear();
    key.clear();
    for (std::size_t c = 0; c < width; ++c) {
      if (row[c] != kUnbound && to_carry[c] != kNoCol) {
        cols.push_back(to_carry[c]);
        shared_local.push_back(c);
        key.push_back(row[c]);
      }
    }
    const CarryIndex& ix = carry_index(cols);
    auto emit_if_compatible = [&](std::size_t cr) {
      const TermId* crow = carry_.cells.data() + cr * cwidth;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const TermId x = crow[cols[k]];
        if (x != kUnbound && x != row[shared_local[k]]) return;
      }
      // Merge both rows' bound slots by variable name; shared variables
      // carry equal ids (compatible), so either side's id will do.
      slots.clear();
      std::size_t a = 0;
      std::size_t b = 0;
      for (;;) {
        while (a < cwidth && crow[a] == kUnbound) ++a;
        while (b < width && row[b] == kUnbound) ++b;
        if (a == cwidth && b == width) break;
        if (b == width || (a < cwidth && carry_.vars[a] < in.vars[b])) {
          slots.push_back({&carry_.vars[a], crow[a]});
          ++a;
        } else if (a == cwidth || in.vars[b] < carry_.vars[a]) {
          slots.push_back({&in.vars[b], row[b]});
          ++b;
        } else {
          slots.push_back({&carry_.vars[a], crow[a]});
          ++a;
          ++b;
        }
      }
      insert_row(slots);
    };
    const std::pair<std::uint64_t, std::size_t> lo{
        hash_ids(key.data(), key.size()), 0};
    for (auto it = std::lower_bound(ix.keyed.begin(), ix.keyed.end(), lo);
         it != ix.keyed.end() && it->first == lo.first; ++it) {
      emit_if_compatible(it->second);
    }
    for (std::size_t cr : ix.partial) emit_if_compatible(cr);
  }
}

void ChainAccumulator::insert_row(const std::vector<Slot>& slots) {
  // Place the slots on the schema, growing it for a variable no earlier
  // row bound (rare: at most once per variable of the scan).
  std::size_t width = parts_.vars.size();
  std::size_t c = 0;
  for (const Slot& s : slots) {
    while (c < width && parts_.vars[c] < *s.var) ++c;
    if (c == width || parts_.vars[c] != *s.var) {
      add_var(*s.var);
      width = parts_.vars.size();
    }
    ++c;
  }
  const std::size_t row = parts_.rows;
  parts_.cells.resize(parts_.cells.size() + width, kUnbound);
  TermId* cells = parts_.cells.data() + row * width;
  c = 0;
  for (const Slot& s : slots) {
    while (parts_.vars[c] != *s.var) ++c;
    cells[c++] = s.id;
  }
  ++parts_.rows;

  // Probe for an equal row; the tentative row is dropped if one exists.
  if (table_.size() < 2 * parts_.rows) {
    rehash(std::max<std::size_t>(16, 2 * table_.size()), row);
  }
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = row_hash(row) & mask;; i = (i + 1) & mask) {
    if (table_[i] == kEmptySlot) {
      table_[i] = static_cast<std::uint32_t>(row);
      break;
    }
    if (rows_equal(table_[i], row)) {
      --parts_.rows;
      parts_.cells.resize(parts_.rows * width);
      return;
    }
  }

  std::size_t bytes = Binding{}.byte_size();
  for (const Slot& s : slots) {
    bytes += Binding::slot_bytes(*s.var, dict_->term(s.id));
    if (parts_.rank.size() <= s.id) {
      parts_.rank.resize(dict_->size(), kNoRank);
    }
    if (parts_.rank[s.id] == kNoRank) {
      parts_.rank[s.id] = kPending;
      fresh_.push_back(s.id);
    }
  }
  raw_bytes_ += bytes;
  wire_cached_ = 0;
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
