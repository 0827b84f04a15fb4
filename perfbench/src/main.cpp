// perfbench: the repository's seeded end-to-end benchmark.
//
//   perfbench --workload <mixed|point-zipf|publish-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--size tiny]
//             [--plant-wrong-answer] [--trace-dir <dir>]
//
// Untraced (--trace 0): set the system up several times, then run passes
// over the workload's script until --seconds are used; prints the
// end-to-end metrics. Traced (--trace 1): one untraced and one traced pass
// (their simulated counters must agree), the serial-vs-parallel probe and
// the outside layer replay on a twin system; prints the per-layer metrics
// and writes the span file. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. A failed
// determinism, conservation or audit check aborts with exit code 3 and no
// result line. perfbench/README.md documents every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace ahsw;

/// Set-ups before measuring. While measuring, one more set-up is timed
/// after any step that ends at least kSetupEvery seconds after the last
/// one, so the setup_s samples are spread over the whole run; setup_s is
/// their median.
constexpr int kSetups = 3;
constexpr double kSetupEvery = 0.4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant_wrong_answer = false;
  std::string trace_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void die(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(3);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "# failed_share = " << number(ratio(failed, attempted))
            << " ratio (" << failed << " of " << attempted << ")\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::uint64_t category_bytes(const PassResult& p, net::Category c) {
  return p.traffic.bytes_by[static_cast<std::size_t>(c)];
}

class Runner {
 public:
  explicit Runner(const Options& o)
      : opts_(o), spec_(make_workload(o.workload, o.seed, o.tiny)),
        trace_(o.trace) {}

  int run() {
    for (int k = 0; k < kSetups; ++k) rebuild();
    PassOptions first = measured();
    first.check = true;
    first.plant_wrong_answer = opts_.plant_wrong_answer;
    const Clock::time_point window = Clock::now();
    passes_.push_back(run_pass(*sys_, spec_, first, trace_));
    return opts_.trace ? traced(window) : untraced(window);
  }

 private:
  /// A fresh system; its build time is one setup_s sample.
  std::unique_ptr<System> timed_build() {
    Scope span(trace_, "setup");
    std::unique_ptr<System> sys = build_system(spec_, trace_);
    setup_s_.push_back(span.stop());
    const WriteCost& w = sys->setup_writes;
    setup_triples_per_s_.push_back(ratio(static_cast<double>(w.triples()),
                                         w.seconds()));
    last_setup_ = Clock::now();
    return sys;
  }
  void rebuild() {
    sys_.reset();
    sys_ = timed_build();
  }
  /// Options of a measured pass: the workload's worker count, and a spare
  /// set-up between steps now and then (untraced runs only).
  PassOptions measured() {
    PassOptions o;
    o.workers = spec_.workers;
    if (!opts_.trace) {
      o.after_step = [this] {
        if (seconds_since(last_setup_) >= kSetupEvery) timed_build();
      };
    }
    return o;
  }
  /// Bring the system back to its post-build state for the next pass.
  void next_system() {
    if (spec_.mutates) {
      rebuild();
    } else {
      reset_system(*sys_, spec_);
    }
  }
  void expect_same(const PassResult& p, const std::string& what) {
    if (p.fingerprint != passes_.front().fingerprint) {
      die("simulated counters differ: " + what);
    }
  }
  void final_audit(net::SimTime now) {
    Scope span(trace_, "check.audit");
    const std::string problems = audit_system(*sys_, spec_, now);
    if (!problems.empty()) die("invariant audit failed:\n" + problems);
  }

  int untraced(Clock::time_point window) {
    // Further passes while another one fits in --seconds; each must repeat
    // the first pass's simulated counters exactly.
    for (;;) {
      const double elapsed = seconds_since(window);
      if (elapsed + elapsed / static_cast<double>(passes_.size()) >
          opts_.seconds) {
        break;
      }
      next_system();
      passes_.push_back(run_pass(*sys_, spec_, measured(), trace_));
      expect_same(passes_.back(), "pass " + std::to_string(passes_.size() - 1) +
                                      " vs pass 0");
    }
    if (spec_.workers > 1) {
      next_system();
      PassOptions serial;
      serial.workers = 1;
      expect_same(run_pass(*sys_, spec_, serial, trace_),
                  "serial vs workers=" + std::to_string(spec_.workers));
    }
    const PassResult& p0 = passes_.front();
    final_audit(passes_.back().last_makespan);

    std::vector<double> qps;
    std::vector<double> write_tps;
    for (const PassResult& p : passes_) {
      qps.push_back(ratio(static_cast<double>(p.queries), p.batch_s));
      write_tps.push_back(ratio(static_cast<double>(p.writes.triples()),
                                p.writes.seconds()));
    }
    const WriteCost& writes =
        spec_.mutates ? p0.writes : sys_->setup_writes;
    std::cout << "# workload " << spec_.name << ", seed " << opts_.seed
              << ", " << passes_.size() << " passes of " << p0.queries
              << " queries, " << setup_s_.size() << " set-ups\n";
    print_result(
        {{"setup_s", median(setup_s_), "s"},
         {"queries_per_s", median(qps), "1/s"},
         {"sim_response_ms_p50", percentile(p0.responses, 0.50), "ms"},
         {"sim_response_ms_p99", percentile(p0.responses, 0.99), "ms"},
         {"sim_makespan_ms", median(p0.makespans), "ms"},
         {"bytes_per_query", ratio(p0.traffic.bytes, p0.queries), "B"},
         {"messages_per_query", ratio(p0.traffic.messages, p0.queries), "1"},
         {"triples_per_s",
          spec_.mutates ? median(write_tps) : median(setup_triples_per_s_),
          "1/s"},
         {"index_bytes_per_triple",
          ratio(writes.index_bytes, writes.triples()), "B"},
         {"peak_rss_mb", peak_rss_mib(), "MiB"}},
        p0.wrong == 0, p0.checked, p0.wrong);
    return 0;
  }

  int traced(Clock::time_point window) {
    const PassResult& plain = passes_.front();
    next_system();
    PassOptions traced_opts;
    traced_opts.workers = spec_.workers;
    traced_opts.traced = true;
    const PassResult t = run_pass(*sys_, spec_, traced_opts, trace_);
    expect_same(t, "traced vs untraced");
    if (t.conservation_violations > 0) {
      die("I5 conservation: span counters do not sum to the traffic delta");
    }
    final_audit(t.last_makespan);

    // Serial vs parallel on the same steps.
    PassOptions probe;
    probe.max_steps = spec_.probe_steps;
    probe.workers = 1;
    next_system();
    const PassResult serial = run_pass(*sys_, spec_, probe, trace_);
    probe.workers = 2;
    next_system();
    const PassResult parallel = run_pass(*sys_, spec_, probe, trace_);
    if (serial.fingerprint != parallel.fingerprint) {
      die("simulated counters differ: serial vs workers=2 probe");
    }

    // The outside replay, on fresh twins until --seconds are used.
    ReplayStats rs;
    std::size_t replays = 0;
    do {
      std::unique_ptr<System> twin;
      {
        Scope span(trace_, "twin.setup");
        twin = build_system(spec_, trace_);
      }
      rs.add(replay_layers(*twin, spec_, trace_));
      ++replays;
    } while (seconds_since(window) < opts_.seconds);
    const std::map<std::string, SpanRollup>& roll = trace_.rollup();
    auto self_us = [&](const char* name) {
      const auto it = roll.find(name);
      return it == roll.end() ? 0.0 : it->second.self_us_per_call();
    };
    auto self_us_per_item = [&](const char* name) {
      const auto it = roll.find(name);
      return it == roll.end() ? 0.0 : it->second.self_us_per_item();
    };
    const WriteCost& writes = spec_.mutates ? t.writes : sys_->setup_writes;
    const auto q = t.queries;
    const double convergence_ms = ratio(
        std::accumulate(t.convergence_ms.begin(), t.convergence_ms.end(), 0.0),
        static_cast<double>(t.convergence_ms.size()));

    const std::vector<Metric> metrics = {
        {"sparql.parse_us_per_query", self_us("sparql.parse_query"), "us"},
        {"optimizer.plan_us_per_query", self_us("dqp.plan"), "us"},
        {"sparql.local_eval_us_per_call", self_us("sparql.match_pattern"), "us"},
        {"sparql.merge_us_per_hop", self_us("sparql.deduplicated"), "us"},
        {"sparql.rows_per_hop", ratio(rs.rows, rs.hops), "rows"},
        {"net.wire_us_per_hop", self_us("net.wire.charged_bytes"), "us"},
        {"net.wire_ratio", ratio(rs.wire_bytes, rs.raw_bytes), "ratio"},
        {"net.routing_bytes_per_query",
         ratio(category_bytes(t, net::Category::kRouting), q), "B"},
        {"net.index_bytes_per_query",
         ratio(category_bytes(t, net::Category::kIndex), q), "B"},
        {"net.query_bytes_per_query",
         ratio(category_bytes(t, net::Category::kQuery), q), "B"},
        {"net.data_bytes_per_query",
         ratio(category_bytes(t, net::Category::kData), q), "B"},
        {"net.result_bytes_per_query",
         ratio(category_bytes(t, net::Category::kResult), q), "B"},
        {"net.timeouts_per_query", ratio(t.traffic.timeouts, q), "count"},
        {"chord.hops_per_lookup", ratio(t.ring_hops, t.index_lookups), "count"},
        {"overlay.locate_us_per_call", self_us("overlay.locate"), "us"},
        {"overlay.lookups_per_query", ratio(t.index_lookups, q), "count"},
        {"overlay.providers_per_lookup", ratio(rs.providers, rs.lookups),
         "count"},
        {"overlay.cache_hit_rate",
         ratio(t.query_cache.hits, t.query_cache.hits + t.query_cache.misses),
         "ratio"},
        {"overlay.cache_invalidations_per_query",
         ratio(t.overlay_cache.invalidations, q), "count"},
        {"overlay.share_us_per_triple",
         self_us_per_item("overlay.share_triples"), "us"},
        {"overlay.unshare_us_per_triple",
         self_us_per_item("overlay.unshare_triples"), "us"},
        {"overlay.index_msgs_per_triple",
         ratio(writes.index_msgs, writes.triples()), "count"},
        {"dqp.batch_ms", median(t.batch_ms), "ms"},
        {"dqp.providers_per_query", ratio(t.providers, q), "count"},
        {"dqp.parallel_speedup", ratio(serial.batch_s, parallel.batch_s),
         "ratio"},
        {"dqp.retries_per_query", ratio(t.retries, q), "count"},
        {"dqp.relookups_per_query", ratio(t.relookups, q), "count"},
        {"dqp.dead_providers_per_query", ratio(t.dead_providers, q), "count"},
        {"fault.faults_applied", static_cast<double>(t.faults_applied),
         "count"},
        {"fault.convergence_ms", convergence_ms, "ms"},
        {"obs.spans_per_query", ratio(t.sim_spans, q), "count"},
        {"obs.trace_overhead_pct", 100.0 * (ratio(t.batch_s, plain.batch_s) - 1.0),
         "%"},
    };
    write_trace_file(t, metrics);
    std::cout << "# workload " << spec_.name << ", seed " << opts_.seed
              << ", traced pass of " << q << " queries, replayed "
              << rs.queries << " queries on " << replays << " twins\n";
    print_result(metrics, plain.wrong == 0, plain.checked, plain.wrong);
    return 0;
  }

  void write_trace_file(const PassResult& t, const std::vector<Metric>& metrics) {
    std::filesystem::create_directories(opts_.trace_dir);
    const std::string path = opts_.trace_dir + "/trace-" + spec_.name +
                             "-seed" + std::to_string(opts_.seed) + ".json";
    std::ostringstream extra;
    extra << ", \"workload\": \"" << spec_.name << "\", \"seed\": "
          << opts_.seed << ", \"sim_phases\": [";
    bool first = true;
    for (const auto& [name, p] : t.phases) {
      extra << (first ? "" : ", ") << "{\"phase\": \"" << name
            << "\", \"spans\": " << p.spans << ", \"messages\": " << p.messages
            << ", \"bytes\": " << p.bytes << ", \"timeouts\": " << p.timeouts
            << "}";
      first = false;
    }
    extra << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      extra << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
            << "\": " << number(metrics[i].value);
    }
    extra << "}";
    std::ofstream out(path);
    trace_.write_json(out, extra.str());
    if (!out) die("cannot write " + path);
    std::cerr << "perfbench: spans written to " << path << "\n";
  }

  Options opts_;
  WorkloadSpec spec_;
  HostTrace trace_;
  std::unique_ptr<System> sys_;
  std::vector<PassResult> passes_;
  std::vector<double> setup_s_;
  std::vector<double> setup_triples_per_s_;
  Clock::time_point last_setup_ = Clock::now();
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--size") {
      const std::string size = value();
      if (size != "tiny" && size != "full") {
        throw std::invalid_argument("--size is tiny or full");
      }
      o.tiny = size == "tiny";
    } else if (arg == "--plant-wrong-answer") {
      o.plant_wrong_answer = true;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return !o.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    if (!perfbench::parse_args(argc, argv, opts)) {
      std::cerr << "usage: perfbench --workload <mixed|point-zipf|"
                   "publish-churn> --seed <n> --seconds <s> --trace <0|1> "
                   "[--size tiny] [--plant-wrong-answer] [--trace-dir <dir>]\n";
      return 2;
    }
    return perfbench::Runner(opts).run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
