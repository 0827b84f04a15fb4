// Seeded equivalence of the merged replica-maintenance walks:
// LocationTable::mirror(rows) must equal upsert_replica() per entry in key
// order, and reconcile(snapshot) — over rows or over row pointers — must
// equal one-row reconcile() calls in the same order, and both must equal
// the per-entry reconcile rule written out over plain maps (reconcile has
// no second implementation to compare with). Tables and pushes are
// drawn from small key/address/version domains so that every case the
// per-entry rules distinguish (tombstones older and newer than the push,
// equal versions, absent rows, rows that empty out, several providers per
// row) occurs many times; the test counts them to prove it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "overlay/location_table.hpp"

namespace ahsw::overlay {
namespace {

constexpr chord::Key kKeys = 16;
constexpr net::NodeAddress kAddresses = 5;  // addresses 1..kAddresses
constexpr std::uint32_t kVersions = 6;
constexpr std::uint32_t kFrequencies = 4;

/// A table in an arbitrary reachable state: entries at many versions,
/// burials, and emptied rows.
LocationTable random_table(common::Rng& rng) {
  LocationTable t;
  const std::uint64_t ops = rng.between(0, 60);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const chord::Key key = rng.below(kKeys);
    const auto address =
        static_cast<net::NodeAddress>(1 + rng.below(kAddresses));
    switch (rng.below(4)) {
      case 0:
        t.publish(key, address,
                  static_cast<std::uint32_t>(1 + rng.below(kFrequencies)));
        break;
      case 1:
        (void)t.purge(key, address);
        break;
      default:
        t.upsert_replica(key, address,
                         static_cast<std::uint32_t>(rng.below(kFrequencies)),
                         static_cast<std::uint32_t>(rng.below(kVersions)));
        break;
    }
  }
  return t;
}

/// Rows with strictly ascending keys and distinct addresses per row, the
/// providers in arbitrary order; frequency 0 marks a removal push.
RowSnapshot random_rows(common::Rng& rng) {
  RowSnapshot rows;
  for (chord::Key key = 0; key < kKeys; ++key) {
    if (!rng.chance(0.5)) continue;
    Row row{key, {}};
    std::vector<net::NodeAddress> addresses;
    for (net::NodeAddress a = 1; a <= kAddresses; ++a) addresses.push_back(a);
    rng.shuffle(addresses);
    addresses.resize(static_cast<std::size_t>(1 + rng.below(kAddresses)));
    for (net::NodeAddress a : addresses) {
      row.providers.push_back(
          Provider{a, static_cast<std::uint32_t>(rng.below(kFrequencies)),
                   static_cast<std::uint32_t>(rng.below(kVersions))});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void expect_same_table(const LocationTable& actual,
                       const LocationTable& expected, const std::string& what) {
  EXPECT_EQ(actual.rows(), expected.rows()) << what;
  EXPECT_EQ(actual.byte_size(), expected.byte_size()) << what;
  ASSERT_EQ(actual.tombstones().size(), expected.tombstones().size()) << what;
  for (chord::Key key = 0; key < kKeys; ++key) {
    for (net::NodeAddress a = 1; a <= kAddresses; ++a) {
      EXPECT_EQ(actual.tombstone_version(key, a),
                expected.tombstone_version(key, a))
          << what << " key " << key << " address " << a;
    }
  }
}

/// How often each distinguished case came up across a test's rounds.
struct Cases {
  int tombstone_older = 0;  // a burial the push is strictly newer than
  int tombstone_newer = 0;  // a burial at or past the push's version
  int equal_version = 0;    // a live entry at the push's version
  int absent_row = 0;       // no row for the key yet
  int emptied_row = 0;      // a row the walk removed entirely
  int multi_provider = 0;   // an incoming row with several providers

  void classify(const LocationTable& before, const Row& in) {
    if (before.find_row(in.key) == nullptr) ++absent_row;
    if (in.providers.size() > 1) ++multi_provider;
    for (const Provider& p : in.providers) {
      if (std::optional<std::uint32_t> b =
              before.tombstone_version(in.key, p.address)) {
        ++(*b < p.version ? tombstone_older : tombstone_newer);
      }
      const Provider* live = before.find(in.key, p.address);
      if (live != nullptr && live->version == p.version) ++equal_version;
    }
  }
  void expect_all_seen(bool rows_can_empty) const {
    EXPECT_GT(tombstone_older, 0);
    EXPECT_GT(tombstone_newer, 0);
    EXPECT_GT(equal_version, 0);
    EXPECT_GT(absent_row, 0);
    if (rows_can_empty) {
      EXPECT_GT(emptied_row, 0);
    }
    EXPECT_GT(multi_provider, 0);
  }
};

int emptied_rows(const LocationTable& before, const LocationTable& after,
                 const RowSnapshot& rows) {
  int n = 0;
  for (const Row& r : rows) {
    if (before.find_row(r.key) != nullptr && after.find_row(r.key) == nullptr) {
      ++n;
    }
  }
  return n;
}

/// reconcile()'s per-entry rule over plain maps: the reference model.
class ReconcileModel {
 public:
  explicit ReconcileModel(const LocationTable& t) {
    for (const Row& r : t.rows()) {
      for (const Provider& p : r.providers) entries_[{r.key, p.address}] = p;
    }
    for (const Tombstone& b : t.tombstones()) {
      tombstones_[{b.key, b.address}] = b.version;
    }
  }

  void reconcile(const Row& in) {
    for (const Provider& p : in.providers) {
      if (p.frequency == 0) continue;
      const std::pair<chord::Key, net::NodeAddress> id{in.key, p.address};
      if (auto b = tombstones_.find(id); b != tombstones_.end()) {
        if (b->second >= p.version) continue;  // buried at or past the push
        tombstones_.erase(b);
      }
      auto e = entries_.find(id);
      if (e == entries_.end()) {
        entries_[id] = p;
      } else if (p.version > e->second.version) {
        e->second = p;
      } else if (p.version == e->second.version) {
        e->second.frequency = std::max(e->second.frequency, p.frequency);
      }
    }
  }

  void expect_matches(const LocationTable& t, const std::string& what) const {
    std::vector<Row> rows;
    for (const auto& [id, p] : entries_) {
      if (rows.empty() || rows.back().key != id.first) {
        rows.push_back(Row{id.first, {}});
      }
      rows.back().providers.push_back(p);
    }
    for (Row& r : rows) {
      std::sort(r.providers.begin(), r.providers.end(),
                [](const Provider& a, const Provider& b) {
                  return std::tie(a.frequency, a.address) <
                         std::tie(b.frequency, b.address);
                });
    }
    EXPECT_EQ(t.rows(), rows) << what << " (model)";
    std::vector<std::tuple<chord::Key, net::NodeAddress, std::uint32_t>> tombs;
    for (const Tombstone& b : t.tombstones()) {
      tombs.emplace_back(b.key, b.address, b.version);
    }
    std::vector<std::tuple<chord::Key, net::NodeAddress, std::uint32_t>> want;
    for (const auto& [id, version] : tombstones_) {
      want.emplace_back(id.first, id.second, version);
    }
    EXPECT_EQ(tombs, want) << what << " (model)";
  }

 private:
  std::map<std::pair<chord::Key, net::NodeAddress>, Provider> entries_;
  std::map<std::pair<chord::Key, net::NodeAddress>, std::uint32_t> tombstones_;
};

TEST(RepairMerge, MirrorEqualsPerEntryUpsertReplica) {
  common::Rng rng(0x6d1770);
  Cases cases;
  for (int round = 0; round < 1500; ++round) {
    LocationTable expected = random_table(rng);
    LocationTable actual = expected;
    // Several pushes in a row, as successive repairs deliver them.
    for (int push = 0; push < 3; ++push) {
      const RowSnapshot rows = random_rows(rng);
      const LocationTable before = expected;
      for (const Row& r : rows) {
        cases.classify(before, r);
        for (const Provider& p : r.providers) {
          expected.upsert_replica(r.key, p.address, p.frequency, p.version);
        }
      }
      cases.emptied_row += emptied_rows(before, expected, rows);
      actual.mirror(rows);
      expect_same_table(actual, expected,
                        "round " + std::to_string(round) + " push " +
                            std::to_string(push));
      if (testing::Test::HasFailure()) return;
    }
  }
  cases.expect_all_seen(/*rows_can_empty=*/true);
}

TEST(RepairMerge, MergedReconcileEqualsOneRowReconciles) {
  common::Rng rng(0x4ec0c1);
  Cases cases;
  for (int round = 0; round < 1500; ++round) {
    LocationTable expected = random_table(rng);
    LocationTable merged = expected;
    LocationTable by_pointer = expected;
    ReconcileModel model(expected);
    for (int push = 0; push < 3; ++push) {
      const RowSnapshot rows = random_rows(rng);
      for (const Row& r : rows) {
        cases.classify(expected, r);
        expected.reconcile(RowSnapshot{r});
        model.reconcile(r);
      }
      merged.reconcile(rows);
      std::vector<const Row*> pointers;
      for (const Row& r : rows) pointers.push_back(&r);
      by_pointer.reconcile(pointers);
      const std::string what =
          "round " + std::to_string(round) + " push " + std::to_string(push);
      expect_same_table(merged, expected, what + " (rows)");
      expect_same_table(by_pointer, expected, what + " (pointers)");
      model.expect_matches(merged, what);
      if (testing::Test::HasFailure()) return;
    }
  }
  // Reconcile only adds or updates entries, so no row empties out.
  cases.expect_all_seen(/*rows_can_empty=*/false);
}

TEST(RepairMerge, MirrorOfCurrentRowsChangesNothing) {
  // The steady state between repairs: the replica already mirrors the
  // owner, so a second push must leave it byte-for-byte as it was.
  LocationTable owner;
  owner.publish(1, 10, 3);
  owner.publish(1, 11, 5);
  owner.publish(2, 10, 1);
  LocationTable replica;
  replica.mirror(owner.rows());
  const LocationTable before = replica;
  replica.mirror(owner.rows());
  EXPECT_EQ(replica.rows(), before.rows());
  EXPECT_EQ(replica.rows(), owner.rows());
  EXPECT_EQ(replica.byte_size(), before.byte_size());
}

TEST(RepairMerge, MirrorRemovalBuriesAndEmptiesTheRow) {
  LocationTable replica;
  replica.mirror({{5, {{20, 4, 2}}}, {7, {{21, 1, 1}}}});
  replica.mirror({{5, {{20, 0, 3}}}});  // the owner's entry died at version 3
  EXPECT_EQ(replica.find_row(5), nullptr);
  EXPECT_EQ(replica.tombstone_version(5, 20), std::optional<std::uint32_t>(3));
  replica.mirror({{5, {{20, 6, 3}}}});  // not newer than the burial
  EXPECT_EQ(replica.find_row(5), nullptr);
  replica.mirror({{5, {{20, 6, 4}}}});  // re-published since
  ASSERT_NE(replica.find(5, 20), nullptr);
  EXPECT_EQ(replica.find(5, 20)->frequency, 6u);
  EXPECT_FALSE(replica.tombstoned(5, 20));
  EXPECT_EQ(replica.row_count(), 2u);
}

}  // namespace
}  // namespace ahsw::overlay
