// Golden equivalence of the DAG executor, per query class: every observable
// of a single-query execution — result rows, per-category TrafficStats,
// response time, report counters and plan notes — must equal the outcome
// frozen in kGoldens below. The goldens were recorded from the original
// recursive interpreter, which the DAG executor replaced; they are the
// executable record of the guarantees that engine gave: same logical start
// times for every subtree, left-to-right operand evaluation, and lazy index
// repairs interleaving with lookups in that order (the dead-provider
// variants pin the control-edge sequencing — a different repair order
// changes traffic). Each case runs on its own freshly built identical-seed
// testbed, because execution mutates shared index state (lazy repairs).
//
// A deliberate behaviour change re-baselines a case: the failure message
// prints the observed outcome in the table's own format.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "check/audit.hpp"
#include "common/hash.hpp"
#include "dqp_test_util.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::JoinSitePolicy;
using optimizer::PrimitiveStrategy;
using sparql::QueryForm;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 31;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 32;
  cfg.overlay.seed = 33;
  return cfg;
}

void expect_traffic_eq(const net::TrafficStats& a, const net::TrafficStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    EXPECT_EQ(a.messages_by[c], b.messages_by[c]) << what << " category " << c;
    EXPECT_EQ(a.bytes_by[c], b.bytes_by[c]) << what << " category " << c;
    EXPECT_EQ(a.timeouts_by[c], b.timeouts_by[c]) << what << " category " << c;
  }
}

using PerCategory = std::array<std::uint64_t, net::kCategoryCount>;

/// One frozen execution outcome. Rows, the ASK answer / DESCRIBE graph and
/// the plan notes are kept as FNV-1a digests; everything numeric is exact.
struct Golden {
  std::string_view variant;
  std::string_view query_class;
  QueryForm form = QueryForm::kSelect;
  std::size_t rows = 0;
  std::size_t triples = 0;
  std::uint64_t rows_digest = 0;    // rows in result order, Binding::to_string
  std::uint64_t answer_digest = 0;  // ask_answer + graph triples
  double response_time = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t timeouts = 0;
  PerCategory messages_by{};
  PerCategory bytes_by{};
  PerCategory timeouts_by{};
  int index_lookups = 0;
  int ring_hops = 0;
  int providers_contacted = 0;
  int dead_providers_skipped = 0;
  bool complete = true;
  std::uint64_t notes_digest = 0;

  friend bool operator==(const Golden&, const Golden&) = default;
};

std::uint64_t digest_line(std::uint64_t h, std::string_view line) {
  return common::fnv1a64("\n", common::fnv1a64(line, h));
}

std::string_view form_enumerator(QueryForm f) {
  switch (f) {
    case QueryForm::kSelect: return "kSelect";
    case QueryForm::kConstruct: return "kConstruct";
    case QueryForm::kAsk: return "kAsk";
    case QueryForm::kDescribe: return "kDescribe";
  }
  return "?";
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

/// `g` as a kGoldens initializer (response time as an exact hexfloat).
std::string to_cpp(const Golden& g) {
  std::ostringstream os;
  os << "    {\"" << g.variant << "\", \"" << g.query_class << "\", ";
  os << "QueryForm::" << form_enumerator(g.form) << ", ";
  os << g.rows << ", " << g.triples << ",\n     ";
  os << hex64(g.rows_digest) << ", " << hex64(g.answer_digest) << ", ";
  os << std::hexfloat << g.response_time << std::defaultfloat << ",\n     ";
  os << g.messages << ", " << g.bytes << ", " << g.raw_bytes << ", ";
  os << g.timeouts << ",\n     ";
  os << per_category(g.messages_by) << ", " << per_category(g.bytes_by);
  os << ",\n     " << per_category(g.timeouts_by) << ",\n     ";
  os << g.index_lookups << ", " << g.ring_hops << ", ";
  os << g.providers_contacted << ", " << g.dead_providers_skipped << ", ";
  os << (g.complete ? "true" : "false") << ", " << hex64(g.notes_digest);
  os << "},\n";
  return os.str();
}

Golden observe(std::string_view variant, std::string_view query_class,
               const sparql::QueryResult& result, const ExecutionReport& rep) {
  Golden g;
  g.variant = variant;
  g.query_class = query_class;
  g.form = result.form;
  g.rows = result.solutions.size();
  g.triples = result.graph.size();
  g.rows_digest = common::fnv1a64("");
  for (const sparql::Binding& b : result.solutions.rows()) {
    g.rows_digest = digest_line(g.rows_digest, b.to_string());
  }
  const char* ask = result.ask_answer ? "ask:true" : "ask:false";
  g.answer_digest = digest_line(common::fnv1a64(""), ask);
  for (const rdf::Triple& t : result.graph) {
    g.answer_digest = digest_line(g.answer_digest, t.to_string());
  }
  g.response_time = rep.response_time;
  g.messages = rep.traffic.messages;
  g.bytes = rep.traffic.bytes;
  g.raw_bytes = rep.traffic.raw_bytes;
  g.timeouts = rep.traffic.timeouts;
  for (std::size_t c = 0; c < g.messages_by.size(); ++c) {
    g.messages_by[c] = rep.traffic.messages_by[c];
    g.bytes_by[c] = rep.traffic.bytes_by[c];
    g.timeouts_by[c] = rep.traffic.timeouts_by[c];
  }
  g.index_lookups = rep.index_lookups;
  g.ring_hops = rep.ring_hops;
  g.providers_contacted = rep.providers_contacted;
  g.dead_providers_skipped = rep.dead_providers_skipped;
  g.complete = rep.complete;
  g.notes_digest = common::fnv1a64("");
  for (const std::string& note : rep.plan_notes) {
    g.notes_digest = digest_line(g.notes_digest, note);
  }
  return g;
}

// Fields in declaration order: variant, query class, form, rows, triples,
// rows digest, answer digest, response time; messages, bytes, raw bytes,
// timeouts; messages / bytes / timeouts per net::Category (routing, index,
// query, data, result); index lookups, ring hops, providers contacted, dead
// providers skipped, complete; plan-notes digest.
// clang-format off
const Golden kGoldens[] = {
    {"DefaultPolicyHealthy", "primitive", QueryForm::kSelect, 195, 0,
     0xc68ca8735ef88b3full, 0xb51c355e2e9719f3ull, 0x1.d7a9fbe76c8b6p+4,
     12, 5479, 53389, 0,
     {2, 3, 1, 5, 1}, {128, 176, 71, 4061, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x8a61fa668f800308ull},
    {"DefaultPolicyHealthy", "conjunction", QueryForm::kSelect, 31, 0,
     0x57c17a48a720dcfcull, 0xb51c355e2e9719f3ull, 0x1.c16c8b439581p+5,
     35, 10927, 37334, 0,
     {6, 9, 3, 16, 1}, {384, 528, 211, 8964, 840},
     {0, 0, 0, 0, 0},
     3, 3, 18, 0, true, 0xd334a756c5d2ffebull},
    {"DefaultPolicyHealthy", "optional", QueryForm::kSelect, 195, 0,
     0xe996497b5bbb9351ull, 0xb51c355e2e9719f3ull, 0x1.d92f1a9fbe76dp+4,
     24, 7211, 56685, 0,
     {4, 6, 2, 11, 1}, {256, 352, 141, 5323, 1139},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0xab2db28758797f39ull},
    {"DefaultPolicyHealthy", "union", QueryForm::kSelect, 45, 0,
     0xbcc29d42a848e92dull, 0xb51c355e2e9719f3ull, 0x1.8c20c49ba5e36p+4,
     22, 4123, 7176, 0,
     {4, 6, 2, 10, 0}, {256, 352, 140, 3375, 0},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0x2ef47e7aecdd0dc6ull},
    {"DefaultPolicyHealthy", "filter", QueryForm::kSelect, 53, 0,
     0x40e74957ce10dcfcull, 0xb51c355e2e9719f3ull, 0x1.ced916872b021p+4,
     12, 4928, 10313, 0,
     {2, 3, 1, 5, 1}, {128, 176, 87, 3325, 1212},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x8b54782d21364451ull},
    {"DefaultPolicyHealthy", "ask", QueryForm::kAsk, 0, 0,
     0xcbf29ce484222325ull, 0xef4e0e7477830aeeull, 0x1.d7a5e353f7ceep+4,
     12, 5478, 53389, 0,
     {2, 3, 1, 5, 1}, {128, 176, 71, 4060, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x3ae438ac6a6f3993ull},
    {"DefaultPolicyHealthy", "describe", QueryForm::kDescribe, 0, 30,
     0xcbf29ce484222325ull, 0xfe46e66c3afd9473ull, 0x1.a0d916872b021p+4,
     21, 3051, 9777, 0,
     {4, 5, 2, 8, 2}, {256, 288, 144, 1866, 497},
     {0, 0, 0, 0, 0},
     2, 2, 10, 0, true, 0xcc92fba1c39977eaull},
    {"DefaultPolicyHealthy", "modifiers", QueryForm::kSelect, 5, 0,
     0x0e44c885a24d2be0ull, 0xb51c355e2e9719f3ull, 0x1.e1851eb851eb8p+4,
     12, 6095, 13622, 0,
     {2, 3, 1, 5, 1}, {128, 176, 70, 4173, 1548},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0xb3d3a61af7955837ull},
    {"DefaultPolicyDeadProvider", "primitive", QueryForm::kSelect, 173, 0,
     0x34915e2227eb8477ull, 0xb51c355e2e9719f3ull, 0x1.cad374bc6a7fp+7,
     13, 5437, 51844, 1,
     {2, 4, 1, 5, 1}, {128, 200, 71, 4061, 977},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x7b8e87c97ba7ef3dull},
    {"DefaultPolicyDeadProvider", "conjunction", QueryForm::kSelect, 23, 0,
     0xee6d4a2474709c39ull, 0xb51c355e2e9719f3ull, 0x1.4781a9fbe76c9p+9,
     38, 9834, 31284, 3,
     {6, 12, 3, 16, 1}, {384, 600, 211, 7970, 669},
     {0, 0, 3, 0, 0},
     3, 3, 15, 3, true, 0x72540f12b15c25abull},
    {"DefaultPolicyDeadProvider", "optional", QueryForm::kSelect, 173, 0,
     0x3a6da6533e9b57dfull, 0xb51c355e2e9719f3ull, 0x1.cafae147ae148p+7,
     26, 7021, 54608, 2,
     {4, 8, 2, 11, 1}, {256, 400, 141, 5169, 1055},
     {0, 0, 2, 0, 0},
     2, 2, 10, 2, true, 0x517807f1ffc296bbull},
    {"DefaultPolicyDeadProvider", "union", QueryForm::kSelect, 39, 0,
     0x2268d7eb28957ce6ull, 0xb51c355e2e9719f3ull, 0x1.c07851eb851ecp+7,
     24, 3524, 5609, 2,
     {4, 8, 2, 10, 0}, {256, 400, 140, 2728, 0},
     {0, 0, 2, 0, 0},
     2, 2, 10, 2, true, 0xff2faa5f57528102ull},
    {"DefaultPolicyDeadProvider", "filter", QueryForm::kSelect, 43, 0,
     0xc91c9d5783853ddcull, 0xb51c355e2e9719f3ull, 0x1.c89916872b02p+7,
     13, 4323, 8635, 1,
     {2, 4, 1, 5, 1}, {128, 200, 87, 2898, 1010},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x41f2c59f8250a832ull},
    {"DefaultPolicyDeadProvider", "ask", QueryForm::kAsk, 0, 0,
     0xcbf29ce484222325ull, 0xef4e0e7477830aeeull, 0x1.cad2f1a9fbe77p+7,
     13, 5436, 51844, 1,
     {2, 4, 1, 5, 1}, {128, 200, 71, 4060, 977},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x89a9cce5c0247e10ull},
    {"DefaultPolicyDeadProvider", "describe", QueryForm::kDescribe, 0, 27,
     0xcbf29ce484222325ull, 0xf1cba6e0c8b3c611ull, 0x1.c3dba5e353f7cp+7,
     23, 2877, 8428, 2,
     {4, 7, 2, 8, 2}, {256, 336, 144, 1670, 471},
     {0, 0, 2, 0, 0},
     2, 2, 8, 2, true, 0xec771a765bfcfa89ull},
    {"DefaultPolicyDeadProvider", "modifiers", QueryForm::kSelect, 5, 0,
     0x55396c0fe2ddc875ull, 0xb51c355e2e9719f3ull, 0x1.ca9f3b645a1cbp+7,
     13, 5335, 11556, 1,
     {2, 4, 1, 5, 1}, {128, 200, 70, 3635, 1302},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0xa2c2422978f3d4d4ull},
    {"BasicStrategyThirdSite", "primitive", QueryForm::kSelect, 195, 0,
     0xc68ca8735ef88b3full, 0xb51c355e2e9719f3ull, 0x1.1ea7ef9db22d1p+4,
     18, 4548, 33364, 0,
     {2, 3, 6, 6, 1}, {128, 176, 426, 2775, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0xcdaa2054c92a1afbull},
    {"BasicStrategyThirdSite", "conjunction", QueryForm::kSelect, 31, 0,
     0x57c17a48a720dcfcull, 0xb51c355e2e9719f3ull, 0x1.6076c8b439582p+4,
     54, 9305, 32987, 0,
     {6, 9, 18, 20, 1}, {384, 528, 1266, 6287, 840},
     {0, 0, 0, 0, 0},
     3, 3, 18, 0, true, 0xaaa8e6330f191dfbull},
    {"BasicStrategyThirdSite", "optional", QueryForm::kSelect, 195, 0,
     0xe996497b5bbb9351ull, 0xb51c355e2e9719f3ull, 0x1.1ea7ef9db22d1p+4,
     36, 6046, 35723, 0,
     {4, 6, 12, 14, 0}, {256, 352, 846, 4592, 0},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0x98c29b65aa094211ull},
    {"BasicStrategyThirdSite", "union", QueryForm::kSelect, 45, 0,
     0xbcc29d42a848e92dull, 0xb51c355e2e9719f3ull, 0x1.1b126e978d4fep+4,
     35, 4129, 7056, 0,
     {4, 6, 12, 12, 1}, {256, 352, 840, 1656, 1025},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0x05fe42a8c1e0f7f7ull},
    {"BasicStrategyThirdSite", "filter", QueryForm::kSelect, 53, 0,
     0x40e74957ce10dcfcull, 0xb51c355e2e9719f3ull, 0x1.204dd2f1a9fbep+4,
     18, 3899, 7421, 0,
     {2, 3, 6, 6, 1}, {128, 176, 522, 1861, 1212},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0xda91c58870836b20ull},
    {"BasicStrategyThirdSite", "ask", QueryForm::kAsk, 0, 0,
     0xcbf29ce484222325ull, 0xef4e0e7477830aeeull, 0x1.1ea7ef9db22d1p+4,
     18, 4548, 33364, 0,
     {2, 3, 6, 6, 1}, {128, 176, 426, 2775, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x6d81c56b2c782d76ull},
    {"BasicStrategyThirdSite", "describe", QueryForm::kDescribe, 0, 30,
     0xcbf29ce484222325ull, 0xfe46e66c3afd9473ull, 0x1.0db645a1cac08p+4,
     31, 2946, 7079, 0,
     {4, 5, 10, 10, 2}, {256, 288, 720, 1185, 497},
     {0, 0, 0, 0, 0},
     2, 2, 10, 0, true, 0x382fd88e1727ec8bull},
    {"BasicStrategyThirdSite", "modifiers", QueryForm::kSelect, 5, 0,
     0x0e44c885a24d2be0ull, 0xb51c355e2e9719f3ull, 0x1.265e353f7cedap+4,
     18, 4585, 9348, 0,
     {2, 3, 6, 6, 1}, {128, 176, 420, 2313, 1548},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x0fab428bcbedd1f7ull},
    {"ChainNoOverlapNoPushdown", "primitive", QueryForm::kSelect, 195, 0,
     0xc68ca8735ef88b3full, 0xb51c355e2e9719f3ull, 0x1.dap+4,
     12, 5625, 55345, 0,
     {2, 3, 1, 5, 1}, {128, 176, 71, 4207, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x61a678e2399a1abeull},
    {"ChainNoOverlapNoPushdown", "conjunction", QueryForm::kSelect, 31, 0,
     0x57c17a48a720dcfcull, 0xb51c355e2e9719f3ull, 0x1.5ea8f5c28f5c5p+6,
     36, 40414, 201908, 0,
     {6, 9, 3, 17, 1}, {384, 528, 211, 38451, 840},
     {0, 0, 0, 0, 0},
     3, 3, 18, 0, true, 0x5fbbd110839bffe2ull},
    {"ChainNoOverlapNoPushdown", "optional", QueryForm::kSelect, 195, 0,
     0xe996497b5bbb9351ull, 0xb51c355e2e9719f3ull, 0x1.db89374bc6a7fp+4,
     23, 7268, 58544, 0,
     {4, 6, 2, 10, 1}, {256, 352, 141, 5380, 1139},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0xb7533efc6846d037ull},
    {"ChainNoOverlapNoPushdown", "union", QueryForm::kSelect, 45, 0,
     0xbcc29d42a848e92dull, 0xb51c355e2e9719f3ull, 0x1.bddb22d0e5604p+4,
     23, 5413, 10713, 0,
     {4, 6, 2, 10, 1}, {256, 352, 140, 3640, 1025},
     {0, 0, 0, 0, 0},
     2, 2, 12, 0, true, 0x7579b5384e25d066ull},
    {"ChainNoOverlapNoPushdown", "filter", QueryForm::kSelect, 53, 0,
     0x40e74957ce10dcfcull, 0xb51c355e2e9719f3ull, 0x1.dd70a3d70a3d7p+4,
     12, 5840, 12901, 0,
     {2, 3, 1, 5, 1}, {128, 176, 70, 4254, 1212},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x76e25949282d0d54ull},
    {"ChainNoOverlapNoPushdown", "ask", QueryForm::kAsk, 0, 0,
     0xcbf29ce484222325ull, 0xef4e0e7477830aeeull, 0x1.dap+4,
     12, 5625, 55345, 0,
     {2, 3, 1, 5, 1}, {128, 176, 71, 4207, 1043},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0xf4c777d5cd9af2ebull},
    {"ChainNoOverlapNoPushdown", "describe", QueryForm::kDescribe, 0, 30,
     0xcbf29ce484222325ull, 0xfe46e66c3afd9473ull, 0x1.a3020c49ba5e3p+4,
     21, 3263, 10420, 0,
     {4, 5, 2, 8, 2}, {256, 288, 144, 2078, 497},
     {0, 0, 0, 0, 0},
     2, 2, 10, 0, true, 0xa88f769bebda6041ull},
    {"ChainNoOverlapNoPushdown", "modifiers", QueryForm::kSelect, 5, 0,
     0x0e44c885a24d2be0ull, 0xb51c355e2e9719f3ull, 0x1.e2d0e56041894p+4,
     12, 6176, 13833, 0,
     {2, 3, 1, 5, 1}, {128, 176, 70, 4254, 1548},
     {0, 0, 0, 0, 0},
     1, 1, 6, 0, true, 0x32d442ddca82328eull},
    {"AdaptiveDeadProvider", "primitive", QueryForm::kSelect, 173, 0,
     0x34915e2227eb8477ull, 0xb51c355e2e9719f3ull, 0x1.aeb4395810625p+7,
     18, 4016, 28389, 1,
     {2, 4, 6, 5, 1}, {128, 200, 426, 2285, 977},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x914d289a3514d2e7ull},
    {"AdaptiveDeadProvider", "conjunction", QueryForm::kSelect, 23, 0,
     0xee6d4a2474709c39ull, 0xb51c355e2e9719f3ull, 0x1.b74cccccccccdp+7,
     54, 8107, 27168, 3,
     {6, 12, 18, 17, 1}, {384, 600, 1266, 5188, 669},
     {0, 0, 3, 0, 0},
     3, 3, 15, 3, true, 0x464708886e4fa80dull},
    {"AdaptiveDeadProvider", "optional", QueryForm::kSelect, 173, 0,
     0x3a6da6533e9b57dfull, 0xb51c355e2e9719f3ull, 0x1.b3578d4fdf3b6p+7,
     36, 5515, 30860, 2,
     {4, 8, 12, 11, 1}, {256, 400, 846, 2958, 1055},
     {0, 0, 2, 0, 0},
     2, 2, 10, 2, true, 0xe5915a3100082147ull},
    {"AdaptiveDeadProvider", "union", QueryForm::kSelect, 39, 0,
     0x2268d7eb28957ce6ull, 0xb51c355e2e9719f3ull, 0x1.ae86a7ef9db23p+7,
     35, 3787, 6321, 2,
     {4, 8, 12, 10, 1}, {256, 400, 840, 1402, 889},
     {0, 0, 2, 0, 0},
     2, 2, 10, 2, true, 0xd189f78b00eb7c66ull},
    {"AdaptiveDeadProvider", "filter", QueryForm::kSelect, 43, 0,
     0xc91c9d5783853ddcull, 0xb51c355e2e9719f3ull, 0x1.aecd4fdf3b645p+7,
     18, 3364, 6176, 1,
     {2, 4, 6, 5, 1}, {128, 200, 522, 1504, 1010},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x1153e10fcd8018edull},
    {"AdaptiveDeadProvider", "ask", QueryForm::kAsk, 0, 0,
     0xcbf29ce484222325ull, 0xef4e0e7477830aeeull, 0x1.aeb4395810625p+7,
     18, 4016, 28389, 1,
     {2, 4, 6, 5, 1}, {128, 200, 426, 2285, 977},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0x11c1a6d95d645edcull},
    {"AdaptiveDeadProvider", "describe", QueryForm::kDescribe, 0, 27,
     0xcbf29ce484222325ull, 0xf1cba6e0c8b3c611ull, 0x1.b5ccccccccccdp+7,
     28, 2647, 6253, 2,
     {4, 7, 7, 8, 2}, {256, 336, 504, 1080, 471},
     {0, 0, 2, 0, 0},
     2, 2, 8, 2, true, 0x0f44837acf4b7024ull},
    {"AdaptiveDeadProvider", "modifiers", QueryForm::kSelect, 5, 0,
     0x55396c0fe2ddc875ull, 0xb51c355e2e9719f3ull, 0x1.af5a1cac08312p+7,
     18, 3915, 7769, 1,
     {2, 4, 6, 5, 1}, {128, 200, 420, 1865, 1302},
     {0, 0, 1, 0, 0},
     1, 1, 5, 1, true, 0xa7df7b85f46eeaaaull},
};
// clang-format on

// One query per class the plan compiler distinguishes.
struct QueryClass {
  const char* name;
  const char* text;

  friend void PrintTo(const QueryClass& qc, std::ostream* os) {
    *os << qc.name;
  }
};

const QueryClass kQueryClasses[] = {
    {"primitive", "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }"},
    {"conjunction",
     "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . "
     "?o foaf:nick ?k . }"},
    {"optional",
     "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
     "OPTIONAL { ?y foaf:nick ?n . } }"},
    {"union",
     "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION { ?x foaf:mbox ?m . } }"},
    {"filter",
     "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }"},
    {"ask", "ASK { ?x foaf:knows ?y . }"},
    {"describe", "DESCRIBE <http://example.org/people/p0>"},
    {"modifiers",
     "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n "
     "LIMIT 5 OFFSET 2"},
};

/// Run one query class on a fresh testbed, tracing the execution and
/// auditing I5 conservation on it, and compare the outcome with its golden.
void expect_golden(std::string_view variant, const QueryClass& qc,
                   const ExecutionPolicy& policy, bool kill_provider = false) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay(), policy);
  if (kill_provider) {
    bed.overlay().storage_node_fail(bed.storage_addrs()[2]);
  }
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  const std::string query = std::string(kPrologue) + qc.text;
  const net::NodeAddress initiator = bed.storage_addrs().front();
  ExecutionReport rep;
  sparql::QueryResult result = proc.execute(query, initiator, &rep);

  check::AuditReport audit;
  check::AuditOptions opts;
  opts.churned = kill_provider;
  check::audit_conservation(trace, rep.traffic, audit, opts);
  EXPECT_TRUE(audit.pristine()) << audit.to_string();
  proc.set_trace(nullptr);

  const Golden got = observe(variant, qc.name, result, rep);
  const Golden* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.variant == variant && g.query_class == qc.name) want = &g;
  }
  const std::string observed = "observed:\n" + to_cpp(got);
  ASSERT_NE(want, nullptr) << "no golden; " << observed;
  EXPECT_TRUE(got == *want) << "golden:\n" + to_cpp(*want) << observed;
}

class DagEquivalence : public ::testing::TestWithParam<QueryClass> {};

TEST_P(DagEquivalence, DefaultPolicyHealthy) {
  expect_golden("DefaultPolicyHealthy", GetParam(), ExecutionPolicy{});
}

TEST_P(DagEquivalence, DefaultPolicyDeadProvider) {
  expect_golden("DefaultPolicyDeadProvider", GetParam(), ExecutionPolicy{},
                /*kill_provider=*/true);
}

TEST_P(DagEquivalence, BasicStrategyThirdSite) {
  ExecutionPolicy policy;
  policy.primitive = PrimitiveStrategy::kBasic;
  policy.join_site = JoinSitePolicy::kThirdSite;
  expect_golden("BasicStrategyThirdSite", GetParam(), policy);
}

TEST_P(DagEquivalence, ChainNoOverlapNoPushdown) {
  ExecutionPolicy policy;
  policy.primitive = PrimitiveStrategy::kChain;
  policy.overlap_aware_sites = false;
  policy.frequency_join_order = false;
  policy.push_filters = false;
  expect_golden("ChainNoOverlapNoPushdown", GetParam(), policy);
}

TEST_P(DagEquivalence, AdaptiveDeadProvider) {
  ExecutionPolicy policy;
  policy.adaptive = true;
  expect_golden("AdaptiveDeadProvider", GetParam(), policy,
                /*kill_provider=*/true);
}

INSTANTIATE_TEST_SUITE_P(QueryClasses, DagEquivalence,
                         ::testing::ValuesIn(kQueryClasses));

// Batch of one must agree with single-query execution byte for byte (the
// execute() fast path is itself a batch of one; this pins the public API).
TEST(DagBatch, SingleQueryBatchMatchesExecute) {
  const std::string query = std::string(kPrologue) + kQueryClasses[1].text;

  workload::Testbed bed_a(config());
  DistributedQueryProcessor proc_a(bed_a.overlay());
  ExecutionReport rep;
  sparql::QueryResult direct =
      proc_a.execute(query, bed_a.storage_addrs().front(), &rep);

  workload::Testbed bed_b(config());
  DistributedQueryProcessor proc_b(bed_b.overlay());
  BatchResult batch = proc_b.execute_batch(
      {query}, {bed_b.storage_addrs().front()});

  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results[0].solutions.rows(), direct.solutions.rows());
  EXPECT_EQ(batch.reports[0].response_time, rep.response_time);
  EXPECT_EQ(batch.makespan, rep.response_time);
  expect_traffic_eq(batch.reports[0].traffic, rep.traffic, "batch of one");
}

}  // namespace
}  // namespace ahsw::dqp
