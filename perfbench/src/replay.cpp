// The traced run's outside replay: each layer's public functions called on
// the workload's own inputs against a twin system, one span per call. This
// is how per-layer host time is measured without touching src/.
//
//   sparql.parse_query        sparql::parse_query
//   dqp.plan                  DistributedQueryProcessor::plan (parses too)
//   overlay.locate            HybridOverlay::locate, per BGP pattern
//   sparql.match_pattern      LocalEngine::match_pattern, per provider
//   sparql.deduplicated       the chain merge of the accumulated set
//   net.wire.charged_bytes    net::wire::charged_bytes on the fresh set
//   overlay.(un)share_triples the step's writes; for read-only workloads
//                             the twin's initial share and a retraction
//                             of one eighth of every store at the end
#include "bench.hpp"
#include "net/wire.hpp"
#include "optimizer/planner.hpp"
#include "sparql/eval.hpp"

namespace perfbench {

using namespace ahsw;

namespace {

void collect_patterns(const sparql::Algebra& a,
                      std::vector<sparql::BgpPattern>& out) {
  out.insert(out.end(), a.bgp.begin(), a.bgp.end());
  if (a.left) collect_patterns(*a.left, out);
  if (a.right) collect_patterns(*a.right, out);
}

}  // namespace

ReplayStats replay_layers(System& twin, const WorkloadSpec& spec,
                          HostTrace& trace) {
  ReplayStats st;
  WriteCost unused;  // the spans carry the replay's write costs
  overlay::HybridOverlay& ov = twin.bed.overlay();
  const std::vector<net::NodeAddress>& addrs = twin.bed.storage_addrs();
  const std::size_t steps = std::min(spec.replay_steps, spec.script.size());
  std::int64_t qid = 0;
  for (std::size_t r = 0; r < steps; ++r) {
    const Step& step = spec.script[r];
    for (const auto& [node, triples] : step.shares) {
      write_triples(twin, node, triples, true, unused, trace, 0);
    }
    for (const auto& [node, triples] : step.unshares) {
      write_triples(twin, node, triples, false, unused, trace, 0);
    }
    for (std::size_t i = 0; i < step.queries.size(); ++i) {
      const std::string& text = step.queries[i];
      const net::NodeAddress initiator = addrs.at(step.initiators[i]);
      Scope query_span(trace, "replay.query", qid);
      {
        Scope span(trace, "sparql.parse_query", qid);
        (void)sparql::parse_query(text);
      }
      sparql::AlgebraPtr plan;
      {
        Scope span(trace, "dqp.plan", qid);
        plan = twin.proc.plan(text);
      }
      std::vector<sparql::BgpPattern> patterns;
      collect_patterns(*plan, patterns);
      for (const sparql::BgpPattern& p : patterns) {
        overlay::HybridOverlay::Located loc;
        {
          Scope span(trace, "overlay.locate", qid);
          loc = ov.locate(initiator, p.pattern, 0);
          span.set_items(loc.providers.size());
        }
        ++st.lookups;
        st.providers += loc.providers.size();
        const std::vector<overlay::Provider> chain =
            optimizer::chain_order(loc.providers, spec.policy.primitive);
        sparql::SolutionSet acc;
        for (const overlay::Provider& prov : chain) {
          if (ov.network().is_failed(prov.address)) continue;
          sparql::SolutionSet local;
          {
            Scope span(trace, "sparql.match_pattern", qid);
            local = sparql::LocalEngine(ov.store_of(prov.address))
                        .match_pattern(p);
            span.set_items(local.size());
          }
          sparql::SolutionSet merged = sparql::set_union(acc, local);
          {
            Scope span(trace, "sparql.deduplicated", qid);
            acc = sparql::deduplicated(std::move(merged));
            span.set_items(acc.size());
          }
          {
            Scope span(trace, "net.wire.charged_bytes", qid);
            st.wire_bytes += net::wire::charged_bytes(acc);
          }
          st.raw_bytes += acc.byte_size();
          st.rows += acc.size();
          ++st.hops;
        }
      }
      ++st.queries;
      ++qid;
    }
  }
  if (!spec.mutates) {
    // Read-only workloads write nothing while measured; retract one eighth
    // of every store so the retraction path has a per-triple cost too.
    for (std::size_t j = 0; j < addrs.size(); ++j) {
      std::vector<rdf::Triple> slice;
      const rdf::TripleStore& store = ov.store_of(addrs[j]);
      const std::size_t want = store.size() / 8;
      store.for_each([&](const rdf::Triple& t) {
        if (slice.size() < want) slice.push_back(t);
      });
      write_triples(twin, j, slice, false, unused, trace, 0);
    }
  }
  return st;
}

}  // namespace perfbench
