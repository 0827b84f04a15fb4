// Building a system and running one pass of a workload's script over it:
// writes, the closed batch (serial or parallel, plain or under faults),
// the simulated sample, the output checks and the determinism fingerprint.
#include <algorithm>
#include <bit>

#include "bench.hpp"
#include "check/audit.hpp"
#include "fault/harness.hpp"
#include "sparql/eval.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using namespace ahsw;

namespace {

constexpr auto kIndexCategory = static_cast<std::size_t>(net::Category::kIndex);

/// FNV-1a over the simulated observables of a pass.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const net::TrafficStats& t) {
    add(t.messages);
    add(t.bytes);
    add(t.raw_bytes);
    add(t.timeouts);
    for (int c = 0; c < net::kCategoryCount; ++c) {
      add(t.messages_by[c]);
      add(t.bytes_by[c]);
      add(t.timeouts_by[c]);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Canonical form of an answer: the distinct rows in canonical order, or
/// the ASK answer (distributed merging has set semantics).
std::string canonical(const sparql::QueryResult& r) {
  if (r.form == sparql::QueryForm::kAsk) return r.ask_answer ? "yes" : "no";
  std::string out = sparql::deduplicated(r.solutions).to_string();
  std::vector<std::string> graph;
  for (const rdf::Triple& t : r.graph) graph.push_back(t.to_string());
  std::sort(graph.begin(), graph.end());
  for (const std::string& t : graph) out += t + "\n";
  return out;
}

/// What the self-test plants to prove the answer check is live.
void plant_wrong_answer(sparql::QueryResult& r) {
  if (r.form == sparql::QueryForm::kAsk) {
    r.ask_answer = !r.ask_answer;
    return;
  }
  sparql::Binding bogus;
  bogus.set("planted", rdf::Term::literal("wrong answer"));
  r.solutions.add(std::move(bogus));
}

}  // namespace

System::System(const workload::TestbedConfig& cfg)
    : bed(cfg), proc(bed.overlay()) {}

net::SimTime write_triples(System& sys, std::size_t node,
                           const std::vector<rdf::Triple>& triples, bool share,
                           WriteCost& cost, HostTrace& trace, net::SimTime now) {
  overlay::HybridOverlay& ov = sys.bed.overlay();
  const net::NodeAddress addr = sys.bed.storage_addrs().at(node);
  const net::TrafficStats before = ov.network().stats();
  Scope span(trace, share ? "overlay.share_triples" : "overlay.unshare_triples");
  span.set_items(triples.size());
  const net::SimTime done = share ? ov.share_triples(addr, triples, now)
                                  : ov.unshare_triples(addr, triples, now);
  const double seconds = span.stop();
  const net::TrafficStats d = ov.network().stats().delta_since(before);
  cost.index_msgs += d.messages_by[kIndexCategory];
  cost.index_bytes += d.bytes_by[kIndexCategory];
  (share ? cost.shared : cost.unshared) += triples.size();
  (share ? cost.share_s : cost.unshare_s) += seconds;
  return done;
}

std::unique_ptr<System> build_system(const WorkloadSpec& spec,
                                     HostTrace& trace) {
  workload::TestbedConfig empty = spec.testbed;
  empty.foaf.persons = 0;
  auto sys = std::make_unique<System>(empty);
  // The initial share, exactly as workload::Testbed's constructor does it,
  // but one timed call per storage node.
  const std::vector<net::NodeAddress>& addrs = sys->bed.storage_addrs();
  workload::PartitionConfig part = spec.testbed.partition;
  part.nodes = addrs.size();
  const std::vector<std::vector<rdf::Triple>> shares =
      workload::partition(workload::generate_foaf(spec.testbed.foaf), part);
  net::SimTime done = sys->bed.setup_completed_at();
  for (std::size_t j = 0; j < addrs.size(); ++j) {
    done = std::max(
        done, write_triples(*sys, j, shares[j], true, sys->setup_writes, trace,
                            done));
  }
  sys->bed.network().reset_stats();
  sys->proc.policy() = spec.policy;
  if (spec.policy.cache.enabled) {
    sys->bed.overlay().configure_caches(spec.policy.cache);
  }
  return sys;
}

void reset_system(System& sys, const WorkloadSpec& spec) {
  if (spec.policy.cache.enabled) {
    sys.bed.overlay().configure_caches(spec.policy.cache);
  }
}

PassResult run_pass(System& sys, const WorkloadSpec& spec,
                    const PassOptions& opts, HostTrace& trace) {
  PassResult out;
  Fingerprint fp;
  overlay::HybridOverlay& ov = sys.bed.overlay();
  const std::vector<net::NodeAddress>& addrs = sys.bed.storage_addrs();
  const overlay::CacheStats cache_before = ov.cache_stats_total();
  const std::size_t steps = std::min(opts.max_steps, spec.script.size());

  for (std::size_t r = 0; r < steps; ++r) {
    const Step& step = spec.script[r];
    for (const auto& [node, triples] : step.shares) {
      write_triples(sys, node, triples, true, out.writes, trace, 0);
    }
    for (const auto& [node, triples] : step.unshares) {
      write_triples(sys, node, triples, false, out.writes, trace, 0);
    }

    std::vector<net::NodeAddress> initiators;
    for (const std::size_t j : step.initiators) initiators.push_back(addrs.at(j));
    fault::FaultSchedule schedule;
    if (step.faults) {
      std::vector<net::NodeAddress> victims;
      for (const std::size_t j : spec.fault_victims) victims.push_back(addrs.at(j));
      schedule = fault::FaultSchedule::generate(
          spec.churn, victims, ov.ring().live_ids(), step.fault_seed);
    }
    dqp::BatchOptions batch_opts;
    batch_opts.workers = opts.workers;

    obs::QueryTrace sim_trace;
    if (opts.traced) sys.proc.set_trace(&sim_trace);
    const net::TrafficStats before = ov.network().stats();
    dqp::BatchResult batch;
    fault::FaultRunResult faulted;
    Scope batch_span(trace, "dqp.execute_batch");
    batch_span.set_items(step.queries.size());
    if (step.faults) {
      std::vector<dqp::BatchQuery> parsed;
      parsed.reserve(step.queries.size());
      for (std::size_t i = 0; i < step.queries.size(); ++i) {
        parsed.push_back(dqp::BatchQuery{sparql::parse_query(step.queries[i]),
                                         initiators[i]});
      }
      faulted =
          fault::run_with_faults(sys.proc, ov, parsed, schedule, batch_opts);
      batch = std::move(faulted.batch);
    } else {
      batch = sys.proc.execute_batch(step.queries, initiators, batch_opts);
    }
    const double seconds = batch_span.stop();
    if (opts.traced) {
      sys.proc.set_trace(nullptr);
      check::AuditReport conservation;
      check::audit_conservation(
          sim_trace, ov.network().stats().delta_since(before), conservation);
      out.conservation_violations += conservation.corrupt;
      out.sim_spans += sim_trace.spans().size();
      for (const obs::PhaseCost& p : obs::phase_rollup(sim_trace)) {
        obs::PhaseCost& acc = out.phases[p.phase];
        acc.phase = p.phase;
        acc.spans += p.spans;
        acc.messages += p.messages;
        acc.bytes += p.bytes;
        acc.timeouts += p.timeouts;
      }
    }
    if (step.faults) {
      out.faults_applied += static_cast<std::uint64_t>(faulted.injection_log.applied);
      out.convergence_ms.push_back(faulted.availability.convergence_ms());
      // Repair, finger fix-up and purge, so every step starts converged.
      fault::converge(ov, batch.makespan);
      fp.add(static_cast<std::uint64_t>(faulted.injection_log.applied));
    }

    out.batch_s += seconds;
    out.batch_ms.push_back(seconds * 1e3);
    out.queries += step.queries.size();
    out.makespans.push_back(batch.makespan);
    out.last_makespan = batch.makespan;
    fp.add(batch.makespan);
    for (std::size_t i = 0; i < batch.reports.size(); ++i) {
      const dqp::ExecutionReport& rep = batch.reports[i];
      out.responses.push_back(rep.response_time);
      out.traffic.accumulate(rep.traffic);
      out.index_lookups += static_cast<std::uint64_t>(rep.index_lookups);
      out.ring_hops += static_cast<std::uint64_t>(rep.ring_hops);
      out.providers += static_cast<std::uint64_t>(rep.providers_contacted);
      out.dead_providers +=
          static_cast<std::uint64_t>(rep.dead_providers_skipped);
      out.retries += static_cast<std::uint64_t>(rep.retries);
      out.relookups += static_cast<std::uint64_t>(rep.relookups);
      out.incomplete += rep.complete ? 0 : 1;
      out.query_cache.accumulate(rep.cache);
      fp.add(rep.response_time);
      fp.add(rep.traffic);
      for (const int v : {rep.index_lookups, rep.ring_hops,
                          rep.providers_contacted, rep.dead_providers_skipped,
                          rep.retries, rep.relookups}) {
        fp.add(static_cast<std::uint64_t>(v));
      }
      for (const std::uint64_t v :
           {rep.cache.hits, rep.cache.misses, rep.cache.invalidations,
            rep.cache.expirations, rep.cache.insertions, rep.cache.leases}) {
        fp.add(v);
      }
      fp.add(static_cast<std::uint64_t>(rep.complete));
      const sparql::QueryResult& res = batch.results[i];
      fp.add(static_cast<std::uint64_t>(res.ask_answer));
      fp.add(res.solutions.to_string());
    }

    if (opts.check) {
      // Outside every timer: the centralized oracle over the union of the
      // live stores, as they stand after this step's writes.
      Scope span(trace, "check.oracle");
      const rdf::TripleStore merged = ov.merged_store();
      std::map<std::string, std::string> expected;
      for (std::size_t i = 0; i < batch.results.size(); ++i) {
        const std::string& text = step.queries[i];
        auto it = expected.find(text);
        if (it == expected.end()) {
          it = expected
                   .emplace(text, canonical(sparql::execute_local(
                                      sparql::parse_query(text), merged)))
                   .first;
        }
        sparql::QueryResult got = batch.results[i];
        if (opts.plant_wrong_answer && r == 0 && i == 0) {
          plant_wrong_answer(got);
        }
        ++out.checked;
        if (!batch.reports[i].complete || canonical(got) != it->second) {
          ++out.wrong;
        }
      }
    }
    if (opts.after_step) opts.after_step();
  }
  out.overlay_cache = ov.cache_stats_total().delta_since(cache_before);
  out.fingerprint = fp.value();
  return out;
}

std::string audit_system(System& sys, const WorkloadSpec& spec,
                         net::SimTime now) {
  check::AuditOptions opts;
  opts.now = now;
  // Faulted workloads converge after every step (fault::converge), so
  // I6 applies; lazily repaired drift may still report as stale.
  opts.churned = spec.mutates;
  opts.converged = spec.mutates;
  const check::AuditReport rep = check::audit(sys.bed.overlay(), opts);
  return rep.clean() ? std::string() : rep.to_string();
}

}  // namespace perfbench
