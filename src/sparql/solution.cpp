#include "sparql/solution.hpp"

#include <algorithm>
#include <set>

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

std::size_t SolutionSet::byte_size() const noexcept {
  if (cached_bytes_ == kDirty) {
    std::size_t n = kSetFraming;
    for (const Binding& b : rows_) n += b.byte_size();
    cached_bytes_ = n;
  }
  return cached_bytes_;
}

void SolutionSet::normalize() { std::sort(rows_.begin(), rows_.end()); }

std::string SolutionSet::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i != 0) out += ", ";
    out += rows_[i].to_string();
  }
  out += "]";
  return out;
}

SolutionSet set_union(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  out.rows().reserve(a.size() + b.size());
  for (const Binding& r : a.rows()) out.add(r);
  for (const Binding& r : b.rows()) out.add(r);
  return out;
}

std::vector<std::string> variables_of(const SolutionSet& s) {
  std::set<std::string> vars;
  for (const Binding& r : s.rows()) {
    for (const auto& [name, _] : r.slots()) vars.insert(name);
  }
  return {vars.begin(), vars.end()};
}

}  // namespace ahsw::sparql
