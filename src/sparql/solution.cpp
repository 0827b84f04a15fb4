#include "sparql/solution.hpp"

#include <algorithm>
#include <utility>

#include "sparql/accumulator.hpp"

namespace ahsw::sparql {

namespace {

/// Iterator to the slot for `var`, or end.
template <typename Slots>
auto find_slot(Slots& slots, std::string_view var) {
  return std::lower_bound(
      slots.begin(), slots.end(), var,
      [](const auto& slot, std::string_view v) { return slot.first < v; });
}

}  // namespace

const rdf::Term* Binding::get(std::string_view var) const noexcept {
  auto it = find_slot(slots_, var);
  if (it == slots_.end() || it->first != var) return nullptr;
  return &it->second;
}

void Binding::set(std::string_view var, rdf::Term term) {
  auto it = find_slot(slots_, var);
  if (it != slots_.end() && it->first == var) {
    it->second = std::move(term);
  } else {
    slots_.insert(it, {std::string(var), std::move(term)});
  }
}

Binding Binding::projected(const std::vector<std::string>& vars) const {
  Binding out;
  for (const std::string& v : vars) {
    if (const rdf::Term* t = get(v)) out.set(v, *t);
  }
  return out;
}

std::size_t Binding::byte_size() const noexcept {
  std::size_t n = 2;  // row framing
  for (const auto& [name, term] : slots_) {
    n += slot_bytes(name, term);
  }
  return n;
}

std::string Binding::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i != 0) out += ", ";
    out += slots_[i].first + "->" + slots_[i].second.to_string();
  }
  out += "}";
  return out;
}

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;

}  // namespace

SolutionSet::SolutionSet(const std::vector<Binding>& rows) {
  for (const Binding& b : rows) add(b);
}

SolutionSet::SolutionSet(std::shared_ptr<rdf::TermDictionary> dict,
                         std::vector<std::string> vars,
                         std::vector<TermId> cells, std::size_t rows)
    : dict_(std::move(dict)),
      vars_(std::move(vars)),
      cells_(std::move(cells)),
      rows_(rows),
      cached_bytes_(kDirty) {
  drop_unbound_columns();
}

SolutionSet& SolutionSet::operator=(SolutionSet&& other) noexcept {
  dict_ = std::move(other.dict_);
  vars_ = std::move(other.vars_);
  cells_ = std::move(other.cells_);
  rows_ = std::exchange(other.rows_, 0);
  cached_bytes_ = std::exchange(other.cached_bytes_, kSetFraming);
  wire_cached_ = std::exchange(other.wire_cached_, 0);
  other.vars_.clear();
  other.cells_.clear();
  return *this;
}

void SolutionSet::add(const Binding& b) {
  if (dict_ == nullptr && !b.empty()) {
    dict_ = std::make_shared<rdf::TermDictionary>();
  }
  for (const auto& [name, term] : b.slots()) {
    auto it = std::lower_bound(vars_.begin(), vars_.end(), name);
    if (it != vars_.end() && *it == name) continue;
    // A variable no earlier row bound: re-lay the cells with its column.
    const std::size_t at = static_cast<std::size_t>(it - vars_.begin());
    const std::size_t old_width = vars_.size();
    vars_.insert(it, name);
    std::vector<TermId> cells(rows_ * vars_.size(), kUnbound);
    for (std::size_t r = 0; r < rows_; ++r) {
      const TermId* from = cells_.data() + r * old_width;
      TermId* to = cells.data() + r * vars_.size();
      std::copy(from, from + at, to);
      std::copy(from + at, from + old_width, to + at + 1);
    }
    cells_ = std::move(cells);
  }
  const std::size_t width = vars_.size();
  cells_.resize(cells_.size() + width, kUnbound);
  TermId* cell = cells_.data() + rows_ * width;
  // Slots and vars_ are both sorted: a merge walk places each cell.
  std::size_t c = 0;
  for (const auto& [name, term] : b.slots()) {
    while (vars_[c] != name) ++c;
    cell[c++] = dict_->intern(term);
  }
  ++rows_;
  if (cached_bytes_ != kDirty) cached_bytes_ += b.byte_size();
  wire_cached_ = 0;
}

Binding SolutionSet::binding(std::size_t r) const {
  Binding b;
  const TermId* ids = row(r);
  b.reserve(static_cast<std::size_t>(std::count_if(
      ids, ids + width(), [](TermId id) { return id != kUnbound; })));
  // vars_ is sorted, so each set() appends at the back.
  for (std::size_t c = 0; c < width(); ++c) {
    if (ids[c] != kUnbound) b.set(vars_[c], term(ids[c]));
  }
  return b;
}

std::vector<Binding> SolutionSet::bindings() const {
  std::vector<Binding> out;
  out.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out.push_back(binding(r));
  return out;
}

std::size_t SolutionSet::column(std::string_view var) const noexcept {
  auto it = std::lower_bound(vars_.begin(), vars_.end(), var);
  if (it == vars_.end() || *it != var) return width();
  return static_cast<std::size_t>(it - vars_.begin());
}

SolutionSet SolutionSet::rekeyed(
    const std::shared_ptr<rdf::TermDictionary>& dict) const {
  SolutionSet out = *this;
  out.dict_ = dict;
  if (dict_ == nullptr || dict_ == dict) return out;
  std::vector<TermId> to(dict_->size(), kUnbound);
  for (TermId& id : out.cells_) {
    if (id == kUnbound) continue;
    if (to[id] == kUnbound) {
      to[id] = dict->intern(dict_->term(id), dict_->hash_of(id));
    }
    id = to[id];
  }
  return out;
}

std::size_t SolutionSet::byte_size() const noexcept {
  if (cached_bytes_ == kDirty) {
    // Binding::byte_size per row: 2 bytes of framing plus its slots.
    std::size_t n = kSetFraming + 2 * rows_;
    for (std::size_t r = 0; r < rows_; ++r) {
      const TermId* ids = row(r);
      for (std::size_t c = 0; c < width(); ++c) {
        if (ids[c] != kUnbound) {
          n += Binding::slot_bytes(vars_[c], term(ids[c]));
        }
      }
    }
    cached_bytes_ = n;
  }
  return cached_bytes_;
}

void SolutionSet::normalize() {
  const std::size_t bytes = cached_bytes_;
  const std::size_t wire = wire_cached_;
  keep_rows(canonical_order(*this));
  cached_bytes_ = bytes;
  wire_cached_ = wire;
}

void SolutionSet::project(const std::vector<std::string>& vars) {
  std::vector<std::size_t> keep;
  for (std::size_t c = 0; c < width(); ++c) {
    if (std::find(vars.begin(), vars.end(), vars_[c]) != vars.end()) {
      keep.push_back(c);
    }
  }
  if (keep.size() == width()) return;
  std::vector<TermId> cells;
  cells.reserve(rows_ * keep.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c : keep) cells.push_back(row(r)[c]);
  }
  std::vector<std::string> kept;
  for (std::size_t c : keep) kept.push_back(std::move(vars_[c]));
  vars_ = std::move(kept);
  cells_ = std::move(cells);
  cached_bytes_ = kDirty;
  wire_cached_ = 0;
}

void SolutionSet::keep_rows(const std::vector<std::size_t>& order) {
  std::vector<TermId> cells;
  cells.reserve(order.size() * width());
  for (std::size_t r : order) {
    cells.insert(cells.end(), row(r), row(r) + width());
  }
  cells_ = std::move(cells);
  rows_ = order.size();
  cached_bytes_ = kDirty;
  wire_cached_ = 0;
  drop_unbound_columns();
}

void SolutionSet::drop_unbound_columns() {
  const std::size_t width = vars_.size();
  if (width == 0) return;
  std::vector<char> used(width, 0);
  std::size_t n_used = 0;
  for (std::size_t i = 0; i < cells_.size() && n_used < width; ++i) {
    char& u = used[i % width];
    if (u == 0 && cells_[i] != kUnbound) {
      u = 1;
      ++n_used;
    }
  }
  if (n_used == width) return;
  std::size_t out = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (used[i % width] != 0) cells_[out++] = cells_[i];
  }
  cells_.resize(out);
  std::size_t c = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (used[i] == 0) continue;
    if (c != i) vars_[c] = std::move(vars_[i]);
    ++c;
  }
  vars_.resize(c);
}

std::string SolutionSet::to_string() const {
  std::string out = "[";
  for (std::size_t r = 0; r < rows_; ++r) {
    if (r != 0) out += ", ";
    out += "{";
    bool first = true;
    for (std::size_t c = 0; c < width(); ++c) {
      const TermId id = row(r)[c];
      if (id == kUnbound) continue;
      if (!first) out += ", ";
      first = false;
      out += vars_[c] + "->" + term(id).to_string();
    }
    out += "}";
  }
  out += "]";
  return out;
}

bool canonical_less(const TermId* x, const TermId* y, std::size_t width,
                    const std::uint32_t* rank) noexcept {
  std::size_t ci = 0;
  std::size_t cj = 0;
  for (;;) {
    while (ci < width && x[ci] == kUnbound) ++ci;
    while (cj < width && y[cj] == kUnbound) ++cj;
    if (ci == width || cj == width) break;
    if (ci != cj) return ci < cj;
    if (x[ci] != y[cj]) return rank[x[ci]] < rank[y[cj]];
    ++ci;
    ++cj;
  }
  return ci == width && cj < width;
}

std::vector<std::string> variables_of(const SolutionSet& s) {
  return s.vars();
}

}  // namespace ahsw::sparql
