// E14 — concurrent multi-query throughput through the DAG engine's shared
// event scheduler: N initiators issue a mixed workload simultaneously and
// the batch makespan is compared against running the same queries serially.
//
// Expected shape: with no per-node contention the makespan equals the
// slowest single query (perfect overlap), so speedup approaches N for a
// balanced mix; a non-zero service time shifts queueing delay onto queries
// whose work collides on a node, degrading speedup gracefully. Traffic is
// identical in all variants — concurrency costs time, never bytes.
#include <numeric>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "sparql/format.hpp"

namespace {

using namespace ahsw;

workload::TestbedConfig make_config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 8;
  cfg.storage_nodes = 8;
  cfg.foaf.persons = 120;
  cfg.foaf.seed = 91;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 92;
  cfg.overlay.seed = 93;
  return cfg;
}

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// The batch: `n` queries cycling through the plan classes, one initiator
/// per storage node (round-robin).
std::vector<std::string> make_queries(int n) {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . }",
      "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
      "OPTIONAL { ?y foaf:nick ?n . } }",
      "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION "
      "{ ?x foaf:mbox ?m . } }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
      "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 5",
  };
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::string(kPrologue) +
                  bodies[static_cast<std::size_t>(i) % std::size(bodies)]);
  }
  return out;
}

std::vector<net::NodeAddress> make_initiators(const workload::Testbed& bed,
                                              std::size_t n) {
  std::vector<net::NodeAddress> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(bed.storage_addrs()[i % bed.storage_addrs().size()]);
  }
  return out;
}

/// Serial baseline: the same queries one at a time on a fresh identical
/// testbed; returns the sum of their response times.
net::SimTime serial_sum(const std::vector<std::string>& queries) {
  workload::Testbed bed(make_config());
  dqp::DistributedQueryProcessor proc(bed.overlay());
  net::SimTime sum = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    dqp::ExecutionReport rep;
    (void)proc.execute(queries[i],
                       bed.storage_addrs()[i % bed.storage_addrs().size()],
                       &rep);
    sum += rep.response_time;
  }
  return sum;
}

/// Under --audit, check I5 conservation of the interleaved trace against
/// the batch-wide network delta AND exact per-query attribution (the
/// per-query traffic reports must sum to the delta, nothing lost, nothing
/// double-charged). Corruption aborts: see benchutil::maybe_audit.
void audit_batch(const obs::QueryTrace& trace, const net::TrafficStats& delta,
                 const dqp::BatchResult& r) {
  if (!benchutil::audit_flag()) return;
  check::AuditReport rep;
  check::audit_conservation(trace, delta, rep);
  net::TrafficStats sum;
  for (const dqp::ExecutionReport& q : r.reports) {
    sum.accumulate(q.traffic);
  }
  bool attributed = sum.messages == delta.messages &&
                    sum.bytes == delta.bytes && sum.timeouts == delta.timeouts;
  if (!rep.pristine() || !attributed) {
    std::cerr << "[audit] batch conservation violated:\n"
              << rep.to_string() << "\nattributed msgs=" << sum.messages
              << "/" << delta.messages << " bytes=" << sum.bytes << "/"
              << delta.bytes << "\n";
    std::exit(1);
  }
}

// Args: {N initiators, service_ms*10}.
void BM_Throughput_Batch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double service_ms = static_cast<double>(state.range(1)) / 10.0;
  std::vector<std::string> queries = make_queries(n);
  const net::SimTime serial = serial_sum(queries);

  workload::Testbed bed(make_config());
  benchutil::maybe_audit(bed, "throughput/setup");
  dqp::DistributedQueryProcessor proc(bed.overlay());
  obs::QueryTrace trace;
  dqp::BatchOptions opts;
  opts.service.service_ms = service_ms;
  // `--workers N` routes the batch through the parallel driver (byte-
  // identical simulated series, faster wall-clock). The parallel driver
  // grafts its shard traces into the bound trace, so every worker count
  // traces and runs the span-based I5 audit and the per-query traffic
  // attribution check.
  opts.workers = benchutil::batch_workers();
  proc.set_trace(&trace);

  char svc[16];
  std::snprintf(svc, sizeof svc, "%.1f", service_ms);
  std::string name = "batch/n=" + std::to_string(n) + "/service_ms=" + svc;

  for (auto _ : state) {
    trace.clear();
    const net::TrafficStats before = bed.network().stats();
    dqp::BatchResult r =
        proc.execute_batch(queries, make_initiators(bed, queries.size()), opts);
    audit_batch(trace, bed.network().stats().delta_since(before), r);

    state.counters["makespan_ms"] = r.makespan;
    state.counters["serial_ms"] = serial;
    state.counters["speedup"] = serial / r.makespan;
    benchutil::record_mean_json(state, name, r.reports, &trace);
  }
  benchutil::maybe_audit(bed, "throughput/done");
}

BENCHMARK(BM_Throughput_Batch)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({8, 10})
    ->Args({8, 40})
    ->Args({16, 10})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// E15 — location-row cache effectiveness vs workload skew (docs/caching.md).
//
// The same Zipf-skewed point-query batch (E1 single-pattern / E2 two-pattern
// subject queries) runs cache-off and cache-on against fresh identical
// testbeds. Caching changes only where location rows come from, never what
// they say, so the result tables must stay byte-identical while
// index-category bytes drop with skew: the hotter the head of the Zipf
// distribution, the more lookups a few cached rows absorb.

/// Zipf-skewed E1/E2 batch: person ranks drawn from ZipfSampler (rank 0
/// hottest), even queries single-pattern, odd queries two-pattern.
std::vector<std::string> make_zipf_queries(int n, double skew) {
  common::Rng rng(94);
  common::ZipfSampler zipf(make_config().foaf.persons, skew);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const std::string p = "<http://example.org/people/p" +
                          std::to_string(zipf.sample(rng)) + ">";
    if (i % 2 == 0) {
      out.push_back(std::string(kPrologue) + "SELECT ?o WHERE { " + p +
                    " foaf:knows ?o . }");
    } else {
      out.push_back(std::string(kPrologue) + "SELECT ?n ?o WHERE { " + p +
                    " foaf:name ?n . " + p + " foaf:knows ?o . }");
    }
  }
  return out;
}

/// Caches live per initiator, so hit rate depends on the same node
/// re-asking for a key: a small hammering pool of 4 initiators models the
/// "few hot consumers" shape the cache targets.
std::vector<net::NodeAddress> cache_initiators(const workload::Testbed& bed,
                                               std::size_t n) {
  std::vector<net::NodeAddress> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(bed.storage_addrs()[i % 4]);
  }
  return out;
}

std::uint64_t index_bytes(const std::vector<dqp::ExecutionReport>& reps) {
  std::uint64_t b = 0;
  for (const dqp::ExecutionReport& r : reps) {
    b += r.traffic.bytes_by[static_cast<std::size_t>(net::Category::kIndex)];
  }
  return b;
}

// Args: {queries, skew*100}.
void BM_Cache_Zipf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double skew = static_cast<double>(state.range(1)) / 100.0;
  std::vector<std::string> queries = make_zipf_queries(n, skew);

  char sk[16];
  std::snprintf(sk, sizeof sk, "%.2f", skew);
  std::string name = "cache_zipf/n=" + std::to_string(n) + "/s=" + sk;

  for (auto _ : state) {
    workload::Testbed base(make_config());
    dqp::DistributedQueryProcessor proc_off(base.overlay());
    dqp::BatchResult off = proc_off.execute_batch(
        queries, cache_initiators(base, queries.size()));

    workload::Testbed bed(make_config());
    benchutil::maybe_audit(bed, "cache_zipf/setup");
    dqp::DistributedQueryProcessor proc(bed.overlay());
    proc.policy().cache.enabled = true;
    bed.overlay().configure_caches(proc.policy().cache);
    dqp::BatchResult on =
        proc.execute_batch(queries, cache_initiators(bed, queries.size()));

    // Caching must be invisible to query answers.
    bool identical = off.results.size() == on.results.size();
    for (std::size_t i = 0; identical && i < on.results.size(); ++i) {
      identical = sparql::to_table(off.results[i]) ==
                  sparql::to_table(on.results[i]);
    }
    if (!identical) {
      std::cerr << "[cache_zipf] cache-on results diverge from cache-off\n";
      std::exit(1);
    }

    overlay::CacheStats cs;
    for (const dqp::ExecutionReport& r : on.reports) cs.accumulate(r.cache);
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    const double hit_rate =
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
    const auto bytes_off = static_cast<double>(index_bytes(off.reports));
    const auto bytes_on = static_cast<double>(index_bytes(on.reports));
    const double saved_pct =
        bytes_off > 0 ? 100.0 * (bytes_off - bytes_on) / bytes_off : 0.0;

    state.counters["cache_hit_rate"] = hit_rate;
    state.counters["index_saved_pct"] = saved_pct;
    benchutil::record_mean_extra_json(state, name, on.reports,
                                      {{"cache_hit_rate", hit_rate},
                                       {"index_bytes_off", bytes_off},
                                       {"index_bytes_on", bytes_on},
                                       {"index_saved_pct", saved_pct}});

    // Age cached rows to the batch end so the auditor exercises the
    // documented staleness bound rather than trivially fresh rows.
    check::AuditOptions opt;
    opt.now = on.makespan;
    benchutil::maybe_audit(bed.overlay(), "cache_zipf/done", opt);
  }
}

BENCHMARK(BM_Cache_Zipf)
    ->Args({64, 0})
    ->Args({64, 80})
    ->Args({64, 120})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
