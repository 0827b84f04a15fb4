#include "rdf/dictionary.hpp"

namespace ahsw::rdf {

std::size_t TermDictionary::probe(const Term& t,
                                  std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const TermId id = slots_[i];
    if (id == kInvalidTermId || (hashes_[id] == hash && terms_[id] == t)) {
      return i;
    }
  }
}

TermId TermDictionary::intern(const Term& t) {
  return intern(t, TermHash{}(t));
}

TermId TermDictionary::intern(const Term& t, std::uint64_t hash) {
  if (2 * (terms_.size() + 1) > slots_.size()) {
    // Keep the load at most 1/2; re-place every id by its stored hash.
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kInvalidTermId);
    const std::size_t mask = slots_.size() - 1;
    for (TermId id = 0; id < terms_.size(); ++id) {
      std::size_t i = hashes_[id] & mask;
      while (slots_[i] != kInvalidTermId) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }
  const std::size_t slot = probe(t, hash);
  if (slots_[slot] != kInvalidTermId) return slots_[slot];
  const auto id = static_cast<TermId>(terms_.size());
  slots_[slot] = id;
  terms_.push_back(t);
  hashes_.push_back(hash);
  return id;
}

std::optional<TermId> TermDictionary::find(const Term& t) const {
  if (slots_.empty()) return std::nullopt;
  const TermId id = slots_[probe(t, TermHash{}(t))];
  if (id == kInvalidTermId) return std::nullopt;
  return id;
}

}  // namespace ahsw::rdf
