#include "overlay/location_table.hpp"

#include <algorithm>
#include <cassert>

namespace ahsw::overlay {

void LocationTable::sort_row(std::vector<Provider>& row) {
  std::sort(row.begin(), row.end(), [](const Provider& a, const Provider& b) {
    if (a.frequency != b.frequency) return a.frequency < b.frequency;
    return a.address < b.address;
  });
}

std::size_t LocationTable::row_index(chord::Key key) const noexcept {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key,
      [](const Row& r, chord::Key k) { return r.key < k; });
  if (it == rows_.end() || it->key != key) return kNpos;
  return static_cast<std::size_t>(it - rows_.begin());
}

std::size_t LocationTable::row_index_or_insert(chord::Key key) {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key,
      [](const Row& r, chord::Key k) { return r.key < k; });
  if (it != rows_.end() && it->key == key) {
    return static_cast<std::size_t>(it - rows_.begin());
  }
  it = rows_.insert(it, Row{key, spare_.acquire()});
  return static_cast<std::size_t>(it - rows_.begin());
}

void LocationTable::erase_row_at(std::size_t i) {
  spare_.release(std::move(rows_[i].providers));
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
}

void LocationTable::erase_row(chord::Key key) {
  std::size_t i = row_index(key);
  if (i != kNpos) erase_row_at(i);
}

void LocationTable::bury(chord::Key key, net::NodeAddress address,
                         std::uint32_t version) {
  auto it = std::lower_bound(
      tombstones_.begin(), tombstones_.end(), std::make_pair(key, address),
      [](const Tombstone& t, const std::pair<chord::Key, net::NodeAddress>& k) {
        if (t.key != k.first) return t.key < k.first;
        return t.address < k.second;
      });
  if (it != tombstones_.end() && it->key == key && it->address == address) {
    it->version = std::max(it->version, version);
    return;
  }
  tombstones_.insert(it, Tombstone{key, address, version});
}

std::uint32_t LocationTable::revive(chord::Key key, net::NodeAddress address) {
  auto it = std::lower_bound(
      tombstones_.begin(), tombstones_.end(), std::make_pair(key, address),
      [](const Tombstone& t, const std::pair<chord::Key, net::NodeAddress>& k) {
        if (t.key != k.first) return t.key < k.first;
        return t.address < k.second;
      });
  if (it == tombstones_.end() || it->key != key || it->address != address) {
    return 0;
  }
  std::uint32_t buried = it->version;
  tombstones_.erase(it);
  return buried;
}

bool LocationTable::tombstoned(chord::Key key, net::NodeAddress address) const {
  return tombstone_version(key, address).has_value();
}

std::optional<std::uint32_t> LocationTable::tombstone_version(
    chord::Key key, net::NodeAddress address) const {
  auto it = std::lower_bound(
      tombstones_.begin(), tombstones_.end(), std::make_pair(key, address),
      [](const Tombstone& t, const std::pair<chord::Key, net::NodeAddress>& k) {
        if (t.key != k.first) return t.key < k.first;
        return t.address < k.second;
      });
  if (it == tombstones_.end() || it->key != key || it->address != address) {
    return std::nullopt;
  }
  return it->version;
}

void LocationTable::publish(chord::Key key, net::NodeAddress address,
                            std::uint32_t frequency) {
  if (frequency == 0) return;
  std::uint32_t buried = revive(key, address);
  std::vector<Provider>& row = rows_[row_index_or_insert(key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      p.frequency += frequency;
      ++p.version;
      sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, buried + 1});
  sort_row(row);
}

bool LocationTable::retract(chord::Key key, net::NodeAddress address,
                            std::uint32_t frequency) {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return false;
  std::vector<Provider>& row = rows_[ri].providers;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].address != address) continue;
    if (row[i].frequency <= frequency) {
      // Bury the version the entry died at: a stale replica snapshot can
      // only carry this version or older, so reconcile() rejects it.
      bury(key, address, row[i].version);
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      row[i].frequency -= frequency;
      ++row[i].version;
      sort_row(row);
    }
    if (row.empty()) erase_row_at(ri);
    return true;
  }
  return false;
}

void LocationTable::upsert(chord::Key key, net::NodeAddress address,
                           std::uint32_t frequency) {
  if (frequency == 0) {
    purge(key, address);
    return;
  }
  std::uint32_t buried = revive(key, address);
  std::vector<Provider>& row = rows_[row_index_or_insert(key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      p.frequency = frequency;
      ++p.version;
      sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, buried + 1});
  sort_row(row);
}

void LocationTable::upsert_replica(chord::Key key, net::NodeAddress address,
                                   std::uint32_t frequency,
                                   std::uint32_t version) {
  if (frequency == 0) {
    bury(key, address, version);
    std::size_t ri = row_index(key);
    if (ri == kNpos) return;
    std::vector<Provider>& row = rows_[ri].providers;
    auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
      return p.address == address && p.version <= version;
    });
    row.erase(pos, row.end());
    if (row.empty()) erase_row_at(ri);
    return;
  }
  if (std::optional<std::uint32_t> buried = tombstone_version(key, address);
      buried.has_value()) {
    if (*buried >= version) return;  // stale push from before the burial
    (void)revive(key, address);
  }
  std::vector<Provider>& row = rows_[row_index_or_insert(key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      if (version < p.version) return;  // out-of-order push
      p.frequency = frequency;
      p.version = version;
      sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, version});
  sort_row(row);
}

namespace {

const Row& deref(const Row& r) { return r; }
const Row& deref(const Row* r) { return *r; }

bool tombstone_less(const Tombstone& a, const Tombstone& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.address < b.address;
}

bool row_less(const Row& a, const Row& b) { return a.key < b.key; }

/// Merge ascending `from` into ascending `into` in place, from the back:
/// one move per displaced element, no second buffer. No element of `from`
/// compares equal to one of `into`.
template <typename T, typename Less>
void splice_sorted(std::vector<T>& into, std::vector<T>& from, Less less) {
  std::size_t i = into.size();
  std::size_t j = from.size();
  into.resize(i + j);
  std::size_t out = into.size();
  while (j > 0) {
    if (i > 0 && less(from[j - 1], into[i - 1])) {
      into[--out] = std::move(into[--i]);
    } else {
      into[--out] = std::move(from[--j]);
    }
  }
}

}  // namespace

struct LocationTable::MergeWalk {
  explicit MergeWalk(LocationTable& t) : table(t) {}

  LocationTable& table;
  chord::Key key = 0;
  std::vector<Provider>* row = nullptr;  // the key's row; nullptr while absent
  std::size_t tomb_lo = 0;               // tombstones_[tomb_lo, tomb_hi)
  std::size_t tomb_hi = 0;               //   carry `key`
  bool changed = false;                  // the row needs sort_row()
  std::vector<Row> added;                // rows new to the table, ascending
  std::vector<Tombstone> buried;         // burials new to the table
  std::vector<std::size_t> revived;      // tombstones_ indexes to drop
  bool emptied = false;                  // a row lost its last entry

  /// The key's tombstone for `address`, or nullptr.
  Tombstone* tombstone(net::NodeAddress address) {
    for (std::size_t i = tomb_lo; i < tomb_hi; ++i) {
      if (table.tombstones_[i].address == address) return &table.tombstones_[i];
    }
    return nullptr;
  }
  void revive(const Tombstone* t) {
    revived.push_back(static_cast<std::size_t>(t - table.tombstones_.data()));
  }
  void bury(net::NodeAddress address, std::uint32_t version) {
    if (Tombstone* t = tombstone(address)) {
      t->version = std::max(t->version, version);
    } else {
      buried.push_back(Tombstone{key, address, version});
    }
  }
  std::vector<Provider>& row_or_insert() {
    if (row == nullptr) {
      added.push_back(Row{key, table.spare_.acquire()});
      row = &added.back().providers;
    }
    return *row;
  }
};

template <typename RowRange, typename EntryOp>
void LocationTable::merge_rows(const RowRange& incoming, EntryOp apply) {
  MergeWalk w(*this);
  std::size_t ri = 0;
  std::size_t ti = 0;
  for (const auto& item : incoming) {
    const Row& in = deref(item);
    assert((&item == &*std::begin(incoming) || in.key > w.key) &&
           "incoming rows must be strictly ascending by key");
    w.key = in.key;
    while (ri < rows_.size() && rows_[ri].key < in.key) ++ri;
    w.row = ri < rows_.size() && rows_[ri].key == in.key ? &rows_[ri].providers
                                                        : nullptr;
    while (ti < tombstones_.size() && tombstones_[ti].key < in.key) ++ti;
    w.tomb_lo = ti;
    w.tomb_hi = ti;
    while (w.tomb_hi < tombstones_.size() &&
           tombstones_[w.tomb_hi].key == in.key) {
      ++w.tomb_hi;
    }
    // The steady state between repairs: a row identical to the incoming
    // one, with no burial under its key, stays as it is — each entry would
    // meet its twin at an equal version and frequency. (Rows never hold a
    // frequency-0 entry, so no removal push can match.)
    if (w.row != nullptr && w.tomb_lo == w.tomb_hi &&
        *w.row == in.providers) {
      continue;
    }
    w.changed = false;
    for (const Provider& p : in.providers) apply(w, p);
    if (w.row == nullptr) continue;
    if (w.changed) sort_row(*w.row);
    if (!w.row->empty()) continue;
    if (!w.added.empty() && w.row == &w.added.back().providers) {
      spare_.release(std::move(w.added.back().providers));
      w.added.pop_back();
    } else {
      w.emptied = true;
    }
  }

  if (w.emptied) {
    std::size_t keep = 0;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (rows_[r].providers.empty()) {
        spare_.release(std::move(rows_[r].providers));
        continue;
      }
      if (keep != r) rows_[keep] = std::move(rows_[r]);
      ++keep;
    }
    rows_.resize(keep);
  }
  splice_sorted(rows_, w.added, row_less);
  if (!w.revived.empty()) {
    std::sort(w.revived.begin(), w.revived.end());
    std::size_t keep = 0;
    std::size_t next = 0;
    for (std::size_t i = 0; i < tombstones_.size(); ++i) {
      if (next < w.revived.size() && w.revived[next] == i) {
        ++next;
        continue;
      }
      tombstones_[keep++] = tombstones_[i];
    }
    tombstones_.resize(keep);
  }
  std::sort(w.buried.begin(), w.buried.end(), tombstone_less);
  splice_sorted(tombstones_, w.buried, tombstone_less);
}

namespace {

/// reconcile()'s per-entry rule.
template <typename Walk>
void reconcile_entry(Walk& w, const Provider& in) {
  if (in.frequency == 0) return;  // replicas never mirror empty entries
  // A deleted provider only comes back when the snapshot is strictly
  // newer than its burial (it demonstrably re-published since).
  if (const Tombstone* t = w.tombstone(in.address)) {
    if (t->version >= in.version) return;
    w.revive(t);
  }
  std::vector<Provider>& row = w.row_or_insert();
  for (Provider& p : row) {
    if (p.address != in.address) continue;
    if (in.version > p.version) {
      // Newer snapshot wins outright — including a *lower* frequency
      // (the partial-retract case the old max-merge resurrected).
      p.frequency = in.frequency;
      p.version = in.version;
      w.changed = true;
    } else if (in.version == p.version && in.frequency > p.frequency) {
      // Same causal state from several replica holders: max keeps the
      // merge idempotent without inflating the row.
      p.frequency = in.frequency;
      w.changed = true;
    }
    return;
  }
  row.push_back(in);
  w.changed = true;
}

/// upsert_replica()'s rule, for one entry of mirror().
template <typename Walk>
void mirror_entry(Walk& w, const Provider& in) {
  if (in.frequency == 0) {
    w.bury(in.address, in.version);
    if (w.row == nullptr) return;
    std::erase_if(*w.row, [&](const Provider& p) {
      return p.address == in.address && p.version <= in.version;
    });
    return;
  }
  if (const Tombstone* t = w.tombstone(in.address)) {
    if (t->version >= in.version) return;  // stale push from before the burial
    w.revive(t);
  }
  std::vector<Provider>& row = w.row_or_insert();
  for (Provider& p : row) {
    if (p.address != in.address) continue;
    if (in.version < p.version) return;  // out-of-order push
    if (p.frequency != in.frequency || p.version != in.version) {
      p.frequency = in.frequency;
      p.version = in.version;
      w.changed = true;
    }
    return;
  }
  row.push_back(in);
  w.changed = true;
}

}  // namespace

void LocationTable::reconcile(const RowSnapshot& rows) {
  merge_rows(rows, reconcile_entry<MergeWalk>);
}

void LocationTable::reconcile(std::span<const Row* const> rows) {
  merge_rows(rows, reconcile_entry<MergeWalk>);
}

void LocationTable::mirror(const std::vector<Row>& rows) {
  merge_rows(rows, mirror_entry<MergeWalk>);
}

bool LocationTable::purge(chord::Key key, net::NodeAddress address) {
  std::size_t ri = row_index(key);
  if (ri == kNpos) {
    // Tombstone even when the entry is already gone: the purge expresses
    // delete intent, and a stale replica push may still be in flight.
    bury(key, address, 0);
    return false;
  }
  std::vector<Provider>& row = rows_[ri].providers;
  std::uint32_t died_at = 0;
  auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
    if (p.address != address) return false;
    died_at = std::max(died_at, p.version);
    return true;
  });
  bool changed = pos != row.end();
  row.erase(pos, row.end());
  bury(key, address, died_at);
  if (row.empty()) erase_row_at(ri);
  return changed;
}

void LocationTable::purge_everywhere(net::NodeAddress address) {
  // Single compaction pass: purge every row, drop the emptied ones, and
  // park their provider capacity — no per-row vector erase churn.
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::vector<Provider>& row = rows_[r].providers;
    std::uint32_t died_at = 0;
    auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
      if (p.address != address) return false;
      died_at = std::max(died_at, p.version);
      return true;
    });
    if (pos != row.end()) {
      row.erase(pos, row.end());
      bury(rows_[r].key, address, died_at);
    }
    if (row.empty()) {
      spare_.release(std::move(row));
      continue;
    }
    if (w != r) rows_[w] = std::move(rows_[r]);
    ++w;
  }
  rows_.resize(w);
}

std::vector<Provider> LocationTable::lookup(chord::Key key) const {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return {};
  return rows_[ri].providers;  // rows are kept sorted on mutation
}

const Provider* LocationTable::find(chord::Key key,
                                    net::NodeAddress address) const {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return nullptr;
  for (const Provider& p : rows_[ri].providers) {
    if (p.address == address) return &p;
  }
  return nullptr;
}

const Row* LocationTable::find_row(chord::Key key) const {
  std::size_t ri = row_index(key);
  return ri == kNpos ? nullptr : &rows_[ri];
}

RowSnapshot LocationTable::extract_range(chord::Key lo, chord::Key hi) {
  return extract_range_mapped(lo, hi, [](chord::Key k) { return k; });
}

RowSnapshot LocationTable::extract_range_mapped(
    chord::Key lo, chord::Key hi,
    const std::function<chord::Key(chord::Key)>& to_ring) {
  RowSnapshot out;
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (chord::in_open_closed(to_ring(rows_[r].key), lo, hi)) {
      out.push_back(std::move(rows_[r]));
    } else {
      if (w != r) rows_[w] = std::move(rows_[r]);
      ++w;
    }
  }
  rows_.resize(w);
  return out;  // ascending by key: rows_ was sorted
}

std::vector<Tombstone> LocationTable::extract_tombstones_mapped(
    chord::Key lo, chord::Key hi,
    const std::function<chord::Key(chord::Key)>& to_ring) {
  std::vector<Tombstone> out;
  std::erase_if(tombstones_, [&](const Tombstone& t) {
    if (!chord::in_open_closed(to_ring(t.key), lo, hi)) return false;
    out.push_back(t);
    return true;
  });
  return out;
}

void LocationTable::absorb_tombstones(
    const std::vector<Tombstone>& tombstones) {
  for (const Tombstone& t : tombstones) {
    if (find(t.key, t.address) == nullptr) bury(t.key, t.address, t.version);
  }
}

void LocationTable::absorb(const RowSnapshot& rows) {
  for (const Row& incoming : rows) {
    const chord::Key key = incoming.key;
    for (const Provider& in : incoming.providers) {
      if (in.frequency == 0) continue;
      // Preserve incoming versions: resetting a transferred entry to
      // version 1 would let that owner's replica mirrors (still carrying
      // the higher pre-transfer version) overwrite later mutations — the
      // resurrection bug reintroduced through ownership transfer.
      std::uint32_t buried = revive(key, in.address);
      std::vector<Provider>& row = rows_[row_index_or_insert(key)].providers;
      bool found = false;
      for (Provider& p : row) {
        if (p.address != in.address) continue;
        p.frequency += in.frequency;
        p.version = std::max(p.version, in.version) + 1;
        found = true;
        break;
      }
      if (!found) {
        row.push_back(
            Provider{in.address, in.frequency, std::max(in.version, buried + 1)});
      }
      sort_row(row);
    }
  }
}

std::size_t LocationTable::entry_count() const noexcept {
  std::size_t n = 0;
  for (const Row& r : rows_) n += r.providers.size();
  return n;
}

std::size_t LocationTable::byte_size() const noexcept {
  // 16 per provider: address (8) + frequency (4) + version (4). The
  // pre-version figure of 12 survived the replica-versioning change, so
  // every slice transfer and reconcile push undercounted by 4 bytes per
  // entry — and tombstones (key + address + buried version), which do
  // travel with snapshots to keep deletions from resurrecting, were never
  // charged at all.
  std::size_t n = 8;
  for (const Row& r : rows_) n += 8 + kProviderBytes * r.providers.size();
  n += kTombstoneBytes * tombstones_.size();
  return n;
}

}  // namespace ahsw::overlay
