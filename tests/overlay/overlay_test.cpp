#include "overlay/overlay.hpp"

#include <gtest/gtest.h>

#include "workload/generators.hpp"
#include "workload/vocab.hpp"

namespace ahsw::overlay {
namespace {

using rdf::Term;
using rdf::Triple;
using rdf::TriplePattern;
using rdf::Variable;

Term iri(const std::string& x) { return Term::iri("http://" + x); }

struct Fixture {
  net::Network network;
  HybridOverlay overlay;

  explicit Fixture(OverlayConfig cfg = {}) : overlay(network, cfg) {}

  void add_index_nodes(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) overlay.add_index_node();
    overlay.ring().fix_all_fingers_oracle();
  }
};

TEST(Overlay, ShareTriplesPublishesSixKeysEach) {
  Fixture f;
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  f.overlay.share_triples(d, {{iri("s"), iri("p"), iri("o")}}, 0);
  std::size_t entries = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    entries += ix.table.entry_count();
  }
  EXPECT_EQ(entries, 6u);
  EXPECT_EQ(f.overlay.storage_nodes().at(d).published.size(), 6u);
  EXPECT_EQ(f.overlay.store_of(d).size(), 1u);
}

TEST(Overlay, SharedKeysAggregateFrequencies) {
  Fixture f;
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  // Two triples with the same subject: the S-key row should carry freq 2.
  f.overlay.share_triples(
      d, {{iri("s"), iri("p1"), iri("o1")}, {iri("s"), iri("p2"), iri("o2")}},
      0);
  chord::Key s_key = index_key(IndexKeyKind::kS, iri("s"));
  chord::Key owner = f.overlay.ring().oracle_successor(
      f.overlay.ring().truncate(s_key));
  auto row = f.overlay.index_nodes().at(owner).table.lookup(
      f.overlay.ring().truncate(s_key));
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].frequency, 2u);
}

TEST(Overlay, DuplicateShareDoesNotDoublePublish) {
  Fixture f;
  f.add_index_nodes(2);
  net::NodeAddress d = f.overlay.add_storage_node();
  Triple t{iri("s"), iri("p"), iri("o")};
  f.overlay.share_triples(d, {t}, 0);
  f.overlay.share_triples(d, {t}, 0);  // same triple again
  std::size_t entries = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    for (const auto& [key, row] : ix.table.rows()) {
      for (const Provider& p : row) entries += p.frequency;
    }
  }
  EXPECT_EQ(entries, 6u);
}

TEST(Overlay, LocateFindsProvidersForEveryBoundShape) {
  Fixture f;
  f.add_index_nodes(4);
  net::NodeAddress d1 = f.overlay.add_storage_node();
  net::NodeAddress d2 = f.overlay.add_storage_node();
  Triple t{iri("s"), iri("p"), iri("o")};
  f.overlay.share_triples(d1, {t}, 0);
  f.overlay.share_triples(d2, {t}, 0);
  f.overlay.share_triples(d2, {{iri("s2"), iri("p"), iri("o")}}, 0);

  // (s,p,?) -> both providers.
  auto loc = f.overlay.locate(d1, TriplePattern{t.s, t.p, Variable{"o"}}, 0);
  ASSERT_TRUE(loc.ok);
  EXPECT_EQ(loc.providers.size(), 2u);

  // (?,p,o) -> both (d2 with freq 2).
  loc = f.overlay.locate(d1, TriplePattern{Variable{"s"}, t.p, t.o}, 0);
  ASSERT_TRUE(loc.ok);
  ASSERT_EQ(loc.providers.size(), 2u);
  EXPECT_EQ(loc.providers.back().frequency, 2u);  // ascending order

  // (s2,?,?) -> only d2.
  loc = f.overlay.locate(d1,
                         TriplePattern{iri("s2"), Variable{"p"}, Variable{"o"}},
                         0);
  ASSERT_TRUE(loc.ok);
  ASSERT_EQ(loc.providers.size(), 1u);
  EXPECT_EQ(loc.providers[0].address, d2);
}

TEST(Overlay, LocateUnknownKeyYieldsNoProviders) {
  Fixture f;
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  f.overlay.share_triples(d, {{iri("s"), iri("p"), iri("o")}}, 0);
  auto loc = f.overlay.locate(
      d, TriplePattern{iri("nothere"), Variable{"p"}, Variable{"o"}}, 0);
  EXPECT_TRUE(loc.ok);
  EXPECT_TRUE(loc.providers.empty());
}

TEST(Overlay, LocateFullyUnboundIsBroadcast) {
  Fixture f;
  f.add_index_nodes(2);
  net::NodeAddress d1 = f.overlay.add_storage_node();
  net::NodeAddress d2 = f.overlay.add_storage_node();
  f.overlay.share_triples(d1, {{iri("a"), iri("b"), iri("c")}}, 0);
  auto loc = f.overlay.locate(
      d2, TriplePattern{Variable{"s"}, Variable{"p"}, Variable{"o"}}, 0);
  EXPECT_TRUE(loc.ok);
  EXPECT_TRUE(loc.broadcast);
  EXPECT_EQ(loc.providers.size(), 2u);
}

TEST(Overlay, LocateChargesIndexTraffic) {
  Fixture f;
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  f.overlay.share_triples(d, {{iri("s"), iri("p"), iri("o")}}, 0);
  f.network.reset_stats();
  (void)f.overlay.locate(d, TriplePattern{iri("s"), iri("p"), Variable{"o"}},
                         0);
  auto idx = static_cast<std::size_t>(net::Category::kIndex);
  EXPECT_GE(f.network.stats().messages_by[idx], 2u);  // request + response
}

TEST(Overlay, UnshareRetractsIndexEntries) {
  Fixture f;
  f.add_index_nodes(3);
  net::NodeAddress d = f.overlay.add_storage_node();
  Triple t{iri("s"), iri("p"), iri("o")};
  f.overlay.share_triples(d, {t}, 0);
  f.overlay.unshare_triples(d, {t}, 0);
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    EXPECT_EQ(ix.table.entry_count(), 0u);
  }
  EXPECT_TRUE(f.overlay.store_of(d).empty());
  EXPECT_TRUE(f.overlay.storage_nodes().at(d).published.empty());
}

TEST(Overlay, StorageLeaveRetractsEverything) {
  Fixture f;
  f.add_index_nodes(3);
  net::NodeAddress d1 = f.overlay.add_storage_node();
  net::NodeAddress d2 = f.overlay.add_storage_node();
  f.overlay.share_triples(d1, {{iri("s"), iri("p"), iri("o")}}, 0);
  f.overlay.share_triples(d2, {{iri("s"), iri("p"), iri("o2")}}, 0);
  f.overlay.storage_node_leave(d1, 0);
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    for (const auto& [key, row] : ix.table.rows()) {
      for (const Provider& p : row) EXPECT_NE(p.address, d1);
    }
  }
  EXPECT_EQ(f.overlay.storage_nodes().count(d1), 0u);
}

TEST(Overlay, IndexJoinMovesLocationTableSlice) {
  Fixture f;
  f.add_index_nodes(2);
  net::NodeAddress d = f.overlay.add_storage_node();
  std::vector<Triple> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back({iri("s" + std::to_string(i)), iri("p"), iri("o")});
  }
  f.overlay.share_triples(d, data, 0);
  std::size_t before = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    before += ix.table.entry_count();
  }

  // A third index node takes over part of the key space.
  f.overlay.add_index_node();
  f.overlay.ring().fix_all_fingers_oracle();

  std::size_t after = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    after += ix.table.entry_count();
    // Every row must now live at its oracle owner.
    for (const auto& [key, row] : ix.table.rows()) {
      EXPECT_EQ(f.overlay.ring().oracle_successor(key), id);
    }
  }
  EXPECT_EQ(before, after);  // nothing lost, nothing duplicated
}

TEST(Overlay, IndexLeaveHandsTableToSuccessor) {
  Fixture f;
  f.add_index_nodes(3);
  net::NodeAddress d = f.overlay.add_storage_node();
  std::vector<Triple> data;
  for (int i = 0; i < 10; ++i) {
    data.push_back({iri("s" + std::to_string(i)), iri("p"), iri("o")});
  }
  f.overlay.share_triples(d, data, 0);
  std::size_t before = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    before += ix.table.entry_count();
  }
  chord::Key leaver = f.overlay.index_nodes().begin()->first;
  f.overlay.index_node_leave(leaver, 0);
  f.overlay.ring().fix_all_fingers_oracle();
  std::size_t after = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    after += ix.table.entry_count();
  }
  EXPECT_EQ(before, after);
  EXPECT_EQ(f.overlay.index_nodes().size(), 2u);
  // Locates still work for all data.
  auto loc = f.overlay.locate(d, TriplePattern{iri("s3"), iri("p"), iri("o")},
                              0);
  EXPECT_TRUE(loc.ok);
  EXPECT_EQ(loc.providers.size(), 1u);
}

TEST(Overlay, ReplicationMasksIndexNodeFailure) {
  OverlayConfig cfg;
  cfg.replication_factor = 2;
  Fixture f(cfg);
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  std::vector<Triple> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back({iri("s" + std::to_string(i)), iri("p"), iri("o")});
  }
  f.overlay.share_triples(d, data, 0);
  std::size_t before = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    before += ix.table.entry_count();
  }

  chord::Key victim = f.overlay.index_nodes().begin()->first;
  std::size_t lost = f.overlay.index_nodes().at(victim).table.entry_count();
  ASSERT_GT(lost, 0u);
  f.overlay.index_node_fail(victim);
  f.overlay.repair(0);
  f.overlay.ring().fix_all_fingers_oracle();

  // All entries must be locatable again (promoted from replicas).
  std::size_t after = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    after += ix.table.entry_count();
  }
  EXPECT_EQ(after, before);  // nothing permanently lost
  for (int i = 0; i < 20; ++i) {
    auto loc = f.overlay.locate(
        d, TriplePattern{iri("s" + std::to_string(i)), iri("p"), iri("o")}, 0);
    ASSERT_TRUE(loc.ok) << i;
    EXPECT_EQ(loc.providers.size(), 1u) << i;
  }
}

TEST(Overlay, RepairDoesNotResurrectUnsharedProvider) {
  // Regression for the reconcile resurrection hole: a storage node unshares
  // its triples, but a replica holder that was displaced from the owner's
  // successor list still has the pre-retraction snapshot. The next repair()
  // pushes that stale row back to the owner — the max-merge used to bring
  // the retracted provider back to life.
  OverlayConfig cfg;
  cfg.ring.bits = 4;
  cfg.replication_factor = 2;
  Fixture f(cfg);

  Triple t{iri("s"), iri("p"), iri("o")};
  chord::Key s_key = index_key(IndexKeyKind::kS, t.s);
  chord::Key tk = f.overlay.ring().truncate(s_key);
  // Owner exactly at the key's ring position; the replica of its rows lands
  // at the next node clockwise.
  chord::Key owner = f.overlay.add_index_node_with_id(tk, 0);
  chord::Key old_holder = f.overlay.add_index_node_with_id((tk + 3) & 15, 0);
  f.overlay.add_index_node_with_id((tk + 8) & 15, 0);
  f.overlay.ring().fix_all_fingers_oracle();

  net::NodeAddress d = f.overlay.add_storage_node_attached(owner);
  f.overlay.share_triples(d, {t}, 0);
  ASSERT_FALSE(f.overlay.index_nodes().at(owner).table.lookup(s_key).empty());
  ASSERT_FALSE(
      f.overlay.index_nodes().at(old_holder).replicas.lookup(s_key).empty())
      << "scenario setup: replica should live at the owner's successor";

  // A new index node splices in right after the owner, displacing the old
  // replica holder — which keeps its (now untracked) snapshot.
  f.overlay.add_index_node_with_id((tk + 1) & 15, 5);
  f.overlay.ring().fix_all_fingers_oracle();

  // The provider unshares: the owner's row empties, and the retraction
  // snapshot only reaches the *current* successor, not the old holder.
  f.overlay.unshare_triples(d, {t}, 10);
  ASSERT_TRUE(f.overlay.index_nodes().at(owner).table.lookup(s_key).empty());
  ASSERT_FALSE(
      f.overlay.index_nodes().at(old_holder).replicas.lookup(s_key).empty())
      << "scenario setup: the stale replica must survive the retraction";

  // Recovery reconciliation pushes the stale replica to the owner.
  f.overlay.repair(20);
  EXPECT_TRUE(f.overlay.index_nodes().at(owner).table.lookup(s_key).empty())
      << "unshared provider resurrected by a stale replica push";
  auto loc = f.overlay.locate(d, TriplePattern{t.s, Variable{"p"},
                                               Variable{"o"}}, 30);
  ASSERT_TRUE(loc.ok);
  EXPECT_TRUE(loc.providers.empty());
}

TEST(Overlay, JoinCarriesTombstonesSoRepublishSurvivesJoinerCrash) {
  // Regression: a joining index node took over a key's rows but not its
  // tombstones. After a retract buried the entry at the old owner, a
  // re-share through the joiner started a version below the burial, and
  // when the joiner crashed, repair() reconciled the promoted replica row
  // against the old owner's stale tombstone — the live entry was dropped.
  OverlayConfig cfg;
  cfg.replication_factor = 2;
  Fixture f(cfg);
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();

  Triple t{iri("s"), iri("p"), iri("o")};
  chord::Key s_key = index_key(IndexKeyKind::kS, t.s);
  chord::Key tk = f.overlay.ring().truncate(s_key);
  chord::Key old_owner = f.overlay.ring().oracle_successor(tk);
  ASSERT_NE(old_owner, tk) << "scenario setup: the joiner id must be free";

  const LocationTable& old_table = f.overlay.index_nodes().at(old_owner).table;
  f.overlay.share_triples(d, {t}, 0);
  f.overlay.unshare_triples(d, {t}, 10);
  ASSERT_TRUE(old_table.tombstoned(s_key, d));

  // The joiner sits exactly at the key, so it takes the key over and the
  // old owner becomes its successor (the replica holder).
  chord::Key joiner = f.overlay.add_index_node_with_id(tk, 20);
  f.overlay.ring().fix_all_fingers_oracle();
  ASSERT_EQ(f.overlay.ring().oracle_successor(tk), joiner);

  f.overlay.share_triples(d, {t}, 30);
  ASSERT_NE(f.overlay.index_nodes().at(joiner).table.find(s_key, d), nullptr);

  f.overlay.index_node_fail(joiner);
  f.overlay.repair(40);
  f.overlay.ring().fix_all_fingers_oracle();
  EXPECT_NE(old_table.find(s_key, d), nullptr)
      << "re-published entry lost to a tombstone left behind at the join";
}

TEST(Overlay, WithoutReplicationRepublishRestoresIndex) {
  Fixture f;  // replication_factor = 1
  f.add_index_nodes(4);
  net::NodeAddress d = f.overlay.add_storage_node();
  std::vector<Triple> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back({iri("s" + std::to_string(i)), iri("p"), iri("o")});
  }
  f.overlay.share_triples(d, data, 0);
  std::size_t before = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    before += ix.table.entry_count();
  }

  chord::Key victim = f.overlay.index_nodes().begin()->first;
  std::size_t lost = f.overlay.index_nodes().at(victim).table.entry_count();
  ASSERT_GT(lost, 0u);
  f.overlay.index_node_fail(victim);
  f.overlay.repair(0);
  f.overlay.ring().fix_all_fingers_oracle();

  std::size_t after_fail = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    after_fail += ix.table.entry_count();
  }
  EXPECT_EQ(after_fail, before - lost);  // those rows are gone...

  f.overlay.republish_all(0);
  std::size_t after_repub = 0;
  for (const auto& [id, ix] : f.overlay.index_nodes()) {
    after_repub += ix.table.entry_count();
  }
  EXPECT_EQ(after_repub, before);  // ...until providers republish
}

TEST(Overlay, ReportDeadProviderPurgesRow) {
  Fixture f;
  f.add_index_nodes(3);
  net::NodeAddress d1 = f.overlay.add_storage_node();
  net::NodeAddress d2 = f.overlay.add_storage_node();
  Triple t{iri("s"), iri("p"), iri("o")};
  f.overlay.share_triples(d1, {t}, 0);
  f.overlay.share_triples(d2, {t}, 0);
  f.overlay.storage_node_fail(d1);
  TriplePattern pat{t.s, t.p, Variable{"o"}};
  f.overlay.report_dead_provider(d2, pat, d1, 0);
  auto loc = f.overlay.locate(d2, pat, 0);
  ASSERT_TRUE(loc.ok);
  ASSERT_EQ(loc.providers.size(), 1u);
  EXPECT_EQ(loc.providers[0].address, d2);
}

TEST(Overlay, StorageReattachesWhenItsIndexNodeDies) {
  Fixture f;
  f.add_index_nodes(3);
  net::NodeAddress d = f.overlay.add_storage_node_attached(
      f.overlay.index_nodes().begin()->first);
  chord::Key attached = f.overlay.storage_nodes().at(d).attached_index;
  f.overlay.index_node_fail(attached);
  f.overlay.repair(0);
  f.overlay.ring().fix_all_fingers_oracle();
  // entry_ring_node re-attaches transparently.
  chord::Key entry = f.overlay.entry_ring_node(d);
  EXPECT_NE(entry, attached);
  EXPECT_TRUE(f.overlay.ring().contains(entry));
}

TEST(Overlay, MergedStoreUnionsLiveStorageNodes) {
  Fixture f;
  f.add_index_nodes(2);
  net::NodeAddress d1 = f.overlay.add_storage_node();
  net::NodeAddress d2 = f.overlay.add_storage_node();
  f.overlay.share_triples(d1, {{iri("a"), iri("p"), iri("x")}}, 0);
  f.overlay.share_triples(d2, {{iri("b"), iri("p"), iri("y")}}, 0);
  EXPECT_EQ(f.overlay.merged_store().size(), 2u);
  f.overlay.storage_node_fail(d2);
  EXPECT_EQ(f.overlay.merged_store().size(), 1u);
}

TEST(OverlayProperty, ShareThenUnshareIsIdentityOnIndexState) {
  // Property over random datasets: sharing a batch and unsharing it again
  // leaves every location table (and the node's published map) exactly as
  // before — no leaked rows, no residual frequencies.
  common::Rng rng(1234);
  for (int trial = 0; trial < 5; ++trial) {
    Fixture f;
    f.add_index_nodes(4);
    net::NodeAddress base = f.overlay.add_storage_node();
    net::NodeAddress churner = f.overlay.add_storage_node();

    std::vector<Triple> base_data, churn_data;
    for (int i = 0; i < 30; ++i) {
      base_data.push_back({iri("s" + std::to_string(rng.below(10))),
                           iri("p" + std::to_string(rng.below(3))),
                           iri("o" + std::to_string(rng.below(15)))});
      churn_data.push_back({iri("s" + std::to_string(rng.below(10))),
                            iri("p" + std::to_string(rng.below(3))),
                            iri("o" + std::to_string(rng.below(15)))});
    }
    f.overlay.share_triples(base, base_data, 0);

    auto snapshot = [&] {
      std::map<chord::Key, overlay::RowSnapshot> out;
      for (const auto& [id, ix] : f.overlay.index_nodes()) {
        out[id] = ix.table.rows();
      }
      return out;
    };
    auto before = snapshot();

    f.overlay.share_triples(churner, churn_data, 0);
    f.overlay.unshare_triples(churner, churn_data, 0);

    EXPECT_EQ(snapshot(), before) << "trial " << trial;
    EXPECT_TRUE(f.overlay.storage_nodes().at(churner).published.empty());
    EXPECT_TRUE(f.overlay.store_of(churner).empty());
  }
}

TEST(Overlay, RoundRobinAttachmentSpreadsStorageNodes) {
  Fixture f;
  f.add_index_nodes(3);
  std::map<chord::Key, int> counts;
  for (int i = 0; i < 9; ++i) {
    net::NodeAddress d = f.overlay.add_storage_node();
    ++counts[f.overlay.storage_nodes().at(d).attached_index];
  }
  for (const auto& [id, c] : counts) EXPECT_EQ(c, 3);
}

}  // namespace
}  // namespace ahsw::overlay
