// Golden of index-replica repair: a seeded overlay sequence — publish and
// retract, index-node crashes, a storage crash with lazy purge and rejoin,
// an owner table that missed updates, HybridOverlay::repair,
// fault::converge, then a ring join and a second convergence — must leave
// every index node's primary rows, replica rows and tombstones, and the
// per-category TrafficStats, exactly as frozen in kGoldens below. Repair's
// table work may be reorganised freely (batched, merged, deduplicated);
// none of that may move a row, a tombstone or a message.
//
// A deliberate behaviour change re-baselines a stage: the failure message
// prints the observed outcome in the table's own format.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fault/harness.hpp"
#include "workload/testbed.hpp"
#include "workload/vocab.hpp"

namespace ahsw::fault {
namespace {

using PerCategory = std::array<std::uint64_t, net::kCategoryCount>;

/// The overlay's state at the end of one stage. Table contents are kept as
/// one FNV-1a digest over every index node; everything numeric is exact.
struct StageGolden {
  std::string_view stage;
  std::size_t index_nodes = 0;
  std::size_t primary_entries = 0;
  std::size_t replica_entries = 0;
  std::size_t tombstones = 0;  // primary and replica tables together
  std::uint64_t state_digest = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  PerCategory messages_by{};
  PerCategory bytes_by{};

  friend bool operator==(const StageGolden&, const StageGolden&) = default;
};

std::uint64_t digest_line(std::uint64_t h, std::string_view line) {
  return common::fnv1a64("\n", common::fnv1a64(line, h));
}

std::uint64_t digest_table(std::uint64_t h, std::string_view label,
                           const overlay::LocationTable& table) {
  h = digest_line(h, label);
  for (const overlay::Row& r : table.rows()) {
    std::string line = "row " + std::to_string(r.key);
    for (const overlay::Provider& p : r.providers) {
      line += " " + std::to_string(p.address) + ":" +
              std::to_string(p.frequency) + "@" + std::to_string(p.version);
    }
    h = digest_line(h, line);
  }
  for (const overlay::Tombstone& t : table.tombstones()) {
    h = digest_line(h, "tomb " + std::to_string(t.key) + " " +
                           std::to_string(t.address) + "@" +
                           std::to_string(t.version));
  }
  return h;
}

StageGolden observe(std::string_view stage,
                    const overlay::HybridOverlay& overlay) {
  StageGolden g;
  g.stage = stage;
  g.state_digest = common::fnv1a64("");
  for (const auto& [id, ix] : overlay.index_nodes()) {
    ++g.index_nodes;
    g.primary_entries += ix.table.entry_count();
    g.replica_entries += ix.replicas.entry_count();
    g.tombstones +=
        ix.table.tombstones().size() + ix.replicas.tombstones().size();
    g.state_digest = digest_line(g.state_digest,
                                 "node " + std::to_string(id) + " " +
                                     std::to_string(ix.address));
    g.state_digest = digest_table(g.state_digest, "primary", ix.table);
    g.state_digest = digest_table(g.state_digest, "replicas", ix.replicas);
  }
  const net::TrafficStats& s = overlay.network().stats();
  g.messages = s.messages;
  g.bytes = s.bytes;
  for (std::size_t c = 0; c < g.messages_by.size(); ++c) {
    g.messages_by[c] = s.messages_by[c];
    g.bytes_by[c] = s.bytes_by[c];
  }
  return g;
}

std::string per_category(const PerCategory& v) {
  std::string out = "{";
  for (std::size_t c = 0; c < v.size(); ++c) {
    out += (c == 0 ? "" : ", ") + std::to_string(v[c]);
  }
  return out + "}";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
  return buf;
}

/// `g` as a kGoldens initializer.
std::string to_cpp(const StageGolden& g) {
  std::ostringstream os;
  os << "    {\"" << g.stage << "\", " << g.index_nodes << ", "
     << g.primary_entries << ", " << g.replica_entries << ", " << g.tombstones
     << ", " << hex64(g.state_digest) << ",\n     " << g.messages << ", "
     << g.bytes << ", " << per_category(g.messages_by) << ",\n     "
     << per_category(g.bytes_by) << "},\n";
  return os.str();
}

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 10;
  cfg.storage_nodes = 6;
  cfg.overlay.replication_factor = 3;
  cfg.overlay.seed = 61;
  cfg.foaf.persons = 40;
  cfg.foaf.seed = 62;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 63;
  return cfg;
}

/// Fresh sensor readings, drawn from `rng` (duplicates are fine: sharing
/// skips them).
std::vector<rdf::Triple> readings(common::Rng& rng, std::size_t n) {
  std::vector<rdf::Triple> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rdf::Triple{
        rdf::Term::iri("http://example.org/sensor/" +
                       std::to_string(rng.below(6))),
        rdf::Term::iri("http://example.org/reading/" +
                       std::to_string(rng.below(3))),
        rdf::Term::integer(static_cast<long long>(rng.below(40)))});
  }
  return out;
}

/// Up to `n` triples of `addr`'s store, in a seeded order.
std::vector<rdf::Triple> some_triples(overlay::HybridOverlay& overlay,
                                      net::NodeAddress addr, common::Rng& rng,
                                      std::size_t n) {
  std::vector<rdf::Triple> all;
  overlay.store_of(addr).for_each(
      [&](const rdf::Triple& t) { all.push_back(t); });
  rng.shuffle(all);
  if (all.size() > n) all.resize(n);
  return all;
}

/// Seeded corruption of one owner table: the first row is lost, the
/// second row's first entry goes back one version with a higher frequency,
/// and the next entry counting more than one triple keeps its version at a
/// lower frequency.
void diverge(overlay::LocationTable& table) {
  ASSERT_GE(table.row_count(), 3u);
  const overlay::Row lost = table.rows()[0];
  const overlay::Row stale = table.rows()[1];
  std::optional<std::pair<chord::Key, overlay::Provider>> lower;
  for (std::size_t r = 2; r < table.row_count() && !lower; ++r) {
    for (const overlay::Provider& p : table.rows()[r].providers) {
      if (p.frequency >= 2) lower.emplace(table.rows()[r].key, p);
    }
  }
  ASSERT_TRUE(lower.has_value());
  table.erase_row(lost.key);
  const overlay::Provider older = stale.providers.front();
  table.erase_row(stale.key);
  table.upsert_replica(stale.key, older.address, older.frequency + 7,
                       older.version - 1);
  table.erase_row(lower->first);
  table.upsert_replica(lower->first, lower->second.address,
                       lower->second.frequency - 1, lower->second.version);
}

/// The frozen sequence, observed once at the end of each stage.
std::vector<StageGolden> run_sequence() {
  workload::Testbed bed(config());
  overlay::HybridOverlay& ov = bed.overlay();
  const std::vector<net::NodeAddress>& storage = bed.storage_addrs();
  common::Rng rng(0x4e9a1);
  net::SimTime t = bed.setup_completed_at();
  std::vector<StageGolden> out;

  // Publish and retract: fresh triples at one node, a partial unshare at
  // another (full retractions bury tombstones, partial ones bump versions).
  t = ov.share_triples(storage[2], readings(rng, 30), t);
  t = ov.unshare_triples(storage[1], some_triples(ov, storage[1], rng, 25), t);
  out.push_back(observe("publish", ov));

  // Two index-node crashes; a storage crash whose corpse a query reporter
  // purges lazily (with propagation to the replica holders); a second
  // storage crash that stays down; the first node recovers and rejoins.
  std::vector<chord::Key> ids = bed.index_ids();
  rng.shuffle(ids);
  ov.index_node_fail(ids[0]);
  ov.index_node_fail(ids[1]);
  ov.storage_node_fail(storage[3]);
  ov.storage_node_fail(storage[4]);
  rdf::TriplePattern knows{rdf::Variable{"x"},
                           rdf::Term::iri(std::string(workload::foaf::kKnows)),
                           rdf::Variable{"o"}};
  t = ov.report_dead_provider(storage[0], knows, storage[3], t);
  bed.network().recover(storage[3]);
  t = ov.storage_node_rejoin(storage[3], t);
  // A surviving owner that missed updates its replica holders kept: it lost
  // one row, holds another at an older version with a higher frequency,
  // and a third at the same version with a lower frequency. Reconcile must
  // restore all three from the holders (newer version wins, equal versions
  // merge by max), so the frozen state is the one without this damage.
  diverge(ov.index_state(ids[2]).table);
  ov.repair(t);
  out.push_back(observe("repair", ov));

  converge(ov, t);
  out.push_back(observe("converge", ov));

  // A join moves a slice (tombstones included) and re-replicates it from
  // the new owner; more publishes, one more crash, a second convergence.
  (void)ov.add_index_node(t);
  t = ov.share_triples(storage[5], readings(rng, 20), t);
  t = ov.unshare_triples(storage[2], some_triples(ov, storage[2], rng, 10), t);
  ov.index_node_fail(ids[2]);
  converge(ov, t);
  out.push_back(observe("join-converge", ov));
  return out;
}

// Fields in declaration order: stage, index nodes, primary entries, replica
// entries, tombstones, state digest; cumulative messages and bytes, then
// messages / bytes per net::Category (routing, index, query, data, result).
// clang-format off
const StageGolden kGoldens[] = {
    {"publish", 10, 1336, 2672, 273, 0x5dd518a7f3857125ull,
     1408, 56424, {521, 887, 0, 0, 0},
     {33344, 23080, 0, 0, 0}},
    {"repair", 8, 1336, 2672, 221, 0xababe20f2f8c5c90ull,
     6424, 218808, {993, 5431, 0, 0, 0},
     {63552, 155256, 0, 0, 0}},
    {"converge", 8, 1113, 2226, 890, 0x1edec1728e539b95ull,
     10722, 349384, {993, 9729, 0, 0, 0},
     {63552, 285832, 0, 0, 0}},
    {"join-converge", 8, 1151, 2314, 933, 0x422316f211dc0207ull,
     15613, 508616, {1335, 14278, 0, 0, 0},
     {85440, 423176, 0, 0, 0}},
};
// clang-format on

TEST(RepairGolden, SeededChurnSequenceMatchesFrozenState) {
  std::vector<StageGolden> observed = run_sequence();
  std::string dump;
  for (const StageGolden& g : observed) dump += to_cpp(g);
  ASSERT_EQ(observed.size(), std::size(kGoldens)) << "observed:\n" << dump;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], kGoldens[i])
        << "stage " << kGoldens[i].stage << " drifted; observed:\n"
        << to_cpp(observed[i]);
  }
}

TEST(RepairGolden, SequenceIsDeterministic) {
  EXPECT_EQ(run_sequence(), run_sequence());
}

}  // namespace
}  // namespace ahsw::fault
