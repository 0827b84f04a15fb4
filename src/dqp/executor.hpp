// Deterministic event-driven executor for physical plans.
//
// Runs N queries concurrently through one scheduler: every operator of
// every plan becomes a task; a task becomes ready when all of its inputs
// (data and control) have finished; ready events pop in (time, query, task)
// order from net::EventQueue, so a batch replays bit-for-bit.
//
// Two invariants make a query's outcome independent of scheduling; the
// per-query-class goldens in tests/dqp/dag_equivalence_test.cpp pin both:
//
//   1. *Value identity.* Every task computes its output from logical start
//      times, not from fire order — all subtrees of one query start at t=0,
//      DESCRIBE parts at the result's arrival — with one merge/dedup
//      canonicalization and one set of traffic charges. Event order only
//      decides *when* a charge is booked, never how large it is, so results,
//      TrafficStats and response times do not depend on how fires
//      interleave.
//
//   2. *State-mutation order.* Lazy index repairs mutate shared overlay
//      state; the plan's control edges serialize each query's fires into
//      left-to-right operand order, so repairs and lookups interleave the
//      same way on every run.
//
// Dynamic expansion: chain hops, scatter legs and DESCRIBE part queries
// depend on runtime information (provider lists, join order, result
// bindings), so those tasks are spawned at fire time; their ids are
// assigned in deterministic creation order. A DESCRIBE part's lookup, scan
// and ship are appended to the query's plan as ops, so every lookup, scan
// and ship task reads its pattern and settings through its op.
//
// Contention: with BatchOptions::service.service_ms > 0, a provider node
// serving one query delays work arriving from *other* queries until it is
// free (per-node busy-until bookkeeping). The default 0 disables the model,
// keeping single-query execution byte-identical.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dqp/processor.hpp"
#include "net/event_queue.hpp"
#include "sparql/accumulator.hpp"

namespace ahsw::dqp {

/// One shared-overlay mutation performed by the executor on behalf of a
/// query, recorded so the parallel batch driver can replay worker-shard
/// side effects onto the master overlay in the serial driver's global
/// (time, query, task) order. The ordering key is the *enclosing fire's*
/// event key — the serial scheduler orders whole fires, and mutations
/// within one fire happen in program order (`seq` preserves it across the
/// merge). `when` is the simulated time the mutation itself used.
struct StateAction {
  enum class Kind : std::uint8_t {
    kCacheLookup,      // cache_for(initiator).lookup(key, when)
    kCacheInsert,      // cache_for(initiator).insert(key, providers, ...)
    kSubscribe,        // subscribe_invalidations(key, initiator)
    kCacheInvalidate,  // cache_for(initiator).invalidate(key)
    kReportDead,       // report_dead_provider(initiator, pattern, dead, when)
  };
  Kind kind = Kind::kCacheLookup;
  net::SimTime at = 0;        // enclosing fire's event time
  std::uint32_t qid = 0;      // enclosing fire's query id
  std::uint32_t task = 0;     // enclosing fire's task id
  std::uint32_t seq = 0;      // program order within the fire / worker log
  net::SimTime when = 0;      // sim time the mutation was issued at
  net::NodeAddress initiator = net::kNoAddress;
  net::NodeAddress dead = net::kNoAddress;  // kReportDead: the dead provider
  rdf::TriplePattern pattern;               // kReportDead: reported pattern
  chord::Key key = 0;                       // cache row key
  chord::Key index_node = 0;                // kCacheInsert: serving owner
  net::SimTime fetched_at = 0;              // kCacheInsert: snapshot time
  std::vector<overlay::Provider> providers; // kCacheInsert: row snapshot
};

/// Ordered per-worker log of shared-state mutations (append-only; already
/// sorted by (at, qid, task, seq) because the worker's event loop is).
using StateLog = std::vector<StateAction>;

class DagExecutor {
 public:
  DagExecutor(overlay::HybridOverlay& ov, ExecutionPolicy policy,
              obs::QueryTrace* trace, BatchOptions opts = {})
      : overlay_(&ov), policy_(policy), trace_(trace),
        opts_(std::move(opts)) {}

  /// Execute the batch to completion; returns per-query results/reports in
  /// batch order plus the batch makespan.
  [[nodiscard]] BatchResult run(const std::vector<BatchQuery>& batch);

  /// Worker-shard entry point: run `batch` with externally assigned query
  /// ids (`qids[i]` is batch[i]'s id in the full batch; sizes must match).
  /// Event ordering, claim() bookkeeping and span labels all use the
  /// original ids, so a shard interleaves exactly as its queries would in
  /// the full serial batch.
  [[nodiscard]] BatchResult run(const std::vector<BatchQuery>& batch,
                                const std::vector<std::uint32_t>& qids);

  /// Record every shared-overlay mutation into `log` (nullptr disables).
  /// The parallel driver replays the log on the master overlay.
  void set_state_log(StateLog* log) noexcept { state_log_ = log; }

 private:
  /// An intermediate solution set living at a node of the overlay.
  struct Located {
    sparql::SolutionSet set;
    net::NodeAddress site = net::kNoAddress;
    net::SimTime ready_at = 0;
  };

  using TaskId = std::uint32_t;
  static constexpr TaskId kNoTask = 0xffffffffu;

  enum class TaskKind : std::uint8_t {
    kConst,
    kLookup,
    kScan,         // one pattern under its strategy (static or DESCRIBE part)
    kScatterLeg,   // dynamic: one provider of a scatter/gather pattern
    kChainHop,     // dynamic: one provider visit of a chain
    kRelookup,     // dynamic: lazy-repair re-lookup after provider exhaustion
    kShip,
    kJoin,
    kLeftJoin,
    kUnion,
    kFilter,
    kPostProcess,
    kDescribeGather,  // dynamic: assemble DESCRIBE part results
  };

  /// Runtime state of one scan, from its fire until it completes: the
  /// strategy, the merge accumulator, the provider chain or scatter legs
  /// and the set carried in from the previous conjunction slot. The scan
  /// task holds it and releases it when the scan completes, so the legs,
  /// hops and re-lookup it spawns carry none of it.
  struct ScanState {
    explicit ScanState(std::shared_ptr<rdf::TermDictionary> dict)
        : acc(std::move(dict)) {}

    OpId lookup = kNoOp;  // the lookup op: the scan's pattern and its row
    /// Chosen when the scan fires; a re-lookup distributes with it again.
    optimizer::PrimitiveStrategy strategy =
        optimizer::PrimitiveStrategy::kBasic;
    obs::SpanId pattern_span = obs::kNoSpan;
    /// Conjunction slot > 0: the set so far. A chain's accumulator refers
    /// to it without copying, so it outlives every hop of the scan; a
    /// re-lookup distributes again and sets it on the new accumulator.
    std::optional<Located> carry;
    std::size_t carry_bytes = 0;      // wire (charged) size of the carry
    std::size_t carry_raw_bytes = 0;  // uncompressed counterpart
    /// The scatter/chain merge, handed over once when the scan completes.
    sparql::ChainAccumulator acc;
    std::vector<overlay::Provider> chain;         // providers in visit order
    net::NodeAddress assembly = net::kNoAddress;  // scatter: gather site
    std::size_t remaining = 0;                    // outstanding scatter legs
    net::SimTime done_at = 0;                     // scatter completion max
    net::SimTime t = 0;                           // chain clock
    net::NodeAddress sender = net::kNoAddress;    // chain: last sender
    net::NodeAddress site = net::kNoAddress;      // chain: where the set is
    std::size_t failed_contacts = 0;              // providers given up on
    bool relooked = false;                        // re-lookup already spent
  };

  /// One schedulable unit: the scheduling header every kind keeps. Every
  /// lookup, scan, ship, set operator and filter task runs a plan op;
  /// the static ones are created in op order, so their id is their op's.
  struct Task {
    TaskKind kind = TaskKind::kConst;
    bool done = false;
    bool taken = false;  // `out` handed to its one data reader
    OpId op = kNoOp;
    std::uint32_t pending = 0;
    std::vector<TaskId> deps;
    std::vector<TaskId> dependents;
    net::SimTime base = 0;     // earliest logical start (0 / DESCRIBE t0)
    net::SimTime finish = 0;   // when done: drives dependents' event times
    obs::SpanId parent_span = obs::kNoSpan;  // reopened around this fire
    Located out;

    // kScatterLeg / kChainHop / kRelookup: the owning scan, the provider's
    // index within it and the contacts of this slot so far.
    TaskId scan = kNoTask;
    std::uint32_t position = 0;
    int attempt = 0;

    std::unique_ptr<ScanState> state;  // kScan, until it completes
  };

  struct QueryRun {
    std::uint32_t qid = 0;
    /// The query's dictionary: every solution set of the query holds its
    /// ids, from a scan's merge through delivery, so operators never
    /// convert between dictionaries and no term is decoded before the
    /// result is read.
    std::shared_ptr<rdf::TermDictionary> dict =
        std::make_shared<rdf::TermDictionary>();
    sparql::Query query;
    net::NodeAddress initiator = net::kNoAddress;
    /// The compiled plan, with each DESCRIBE part's lookup, scan and ship
    /// ops appended when the expansion runs.
    PhysicalPlan plan;
    std::deque<Task> tasks;  // deque: fires append while holding references
    /// Location rows by lookup op: the scans of a conjunction read every
    /// lookup of their BGP when they fire.
    std::map<OpId, overlay::HybridOverlay::Located> located;
    /// Join order over the BGP positions of each conjunction, by its slot-0
    /// op: resolved when slot 0 fires, read by every later slot.
    std::map<OpId, std::vector<std::size_t>> join_orders;
    /// DESCRIBE: the described terms; term i fills part ships 2i and 2i+1.
    std::vector<rdf::Term> describe_targets;
    ExecutionReport rep;
    obs::SpanId root_span = obs::kNoSpan;
    sparql::QueryResult result;
    TaskId final_task = kNoTask;
  };

  // Setup.
  void setup_query(QueryRun& run);
  TaskId add_task(QueryRun& run, Task t);
  /// Spawn a leg, hop or re-lookup of scan `scan_id`, starting at `base`
  /// under the scan's pattern span.
  void spawn(QueryRun& run, TaskKind kind, TaskId scan_id,
             std::uint32_t position, int attempt, net::SimTime base);
  void schedule(QueryRun& run, TaskId id);
  void complete(QueryRun& run, TaskId id, net::SimTime finish);

  // Firing. Each fire_* returns the end hint folded into the parent span's
  // close (0 when children already extended it).
  void fire(QueryRun& run, TaskId id);
  net::SimTime fire_lookup(QueryRun& run, TaskId id);
  net::SimTime fire_scan(QueryRun& run, TaskId id);
  net::SimTime fire_scatter_leg(QueryRun& run, TaskId id);
  net::SimTime fire_chain_hop(QueryRun& run, TaskId id);
  net::SimTime fire_relookup(QueryRun& run, TaskId id);
  net::SimTime fire_ship(QueryRun& run, TaskId id);
  net::SimTime fire_binary(QueryRun& run, TaskId id);
  net::SimTime fire_filter(QueryRun& run, TaskId id);
  net::SimTime fire_post(QueryRun& run, TaskId id);
  net::SimTime fire_describe_gather(QueryRun& run, TaskId id);

  // Primitives shared by the fire handlers.
  /// The output of finished task `producer`, moved to its consumer. The
  /// plan is a tree, so every output has one data reader; control and
  /// preferred-end edges read only `out.site`, which a move leaves intact.
  static Located take_output(QueryRun& run, TaskId producer);
  /// Once a query's result is delivered, drop what only its execution
  /// read: the query dictionary, the location rows and the join orders.
  /// Its sets are gone already, each moved to its consumer, so a closed
  /// batch does not hold every finished query's scan terms until it ends.
  static void release_query(QueryRun& run);
  /// Start scan `id`'s distribution over the providers of `loc`: spawn one
  /// scatter leg per provider, or ship the sub-query and any carry to the
  /// first provider of the chain (ending at `pend` when overlap-aware) and
  /// spawn its first hop. Returns when the distribution left.
  net::SimTime distribute(QueryRun& run, TaskId id,
                          const overlay::HybridOverlay::Located& loc,
                          std::optional<net::NodeAddress> pend);
  /// Send the chain's travelling payload — the sub-query, the rows merged
  /// so far and the carry — from its last sender to `to`.
  net::SimTime send_hop(const QueryRun& run, const ScanState& s,
                        net::NodeAddress to, net::SimTime at,
                        net::Category category);
  /// Complete scan `id` with `out` and release its state.
  net::SimTime finish_scan(QueryRun& run, TaskId id, Located out);
  /// Complete scan `id` with no rows, at `at` or when its carry is ready:
  /// at the carry's site when it carries one, else at the initiator.
  net::SimTime finish_scan_empty(QueryRun& run, TaskId id, net::SimTime at);
  overlay::HybridOverlay::Located locate(const rdf::TriplePattern& p,
                                         net::NodeAddress initiator,
                                         net::SimTime now,
                                         ExecutionReport& rep);
  Located ship(Located from, net::NodeAddress target, net::Category category);
  /// Contact a provider: returns its store, which the caller's accumulator
  /// reads the sub-query's matches from; charges a timeout and returns
  /// nullptr when it is dead, without giving up on it — the caller decides
  /// between a retry (RetryPolicy) and `give_up_on_provider`.
  const rdf::TripleStore* run_at_provider(net::NodeAddress provider,
                                          net::SimTime& now,
                                          ExecutionReport& rep);
  /// Final failure handling for a dead provider: count the skip and trigger
  /// the paper's lazy index repair. With retries off, every contact failure
  /// is final, reproducing the pre-retry behavior exactly.
  void give_up_on_provider(net::NodeAddress provider,
                           const sparql::BgpPattern& p, net::SimTime now,
                           net::NodeAddress initiator, ExecutionReport& rep);
  std::pair<Located, Located> colocate(Located a, Located b,
                                       net::NodeAddress initiator,
                                       ExecutionReport& rep);

  /// Service model: delay `at` until `node` is free of other queries' work,
  /// then occupy it for service_ms. Identity when the model is disabled.
  net::SimTime claim(net::NodeAddress node, std::uint32_t qid,
                     net::SimTime at);

  // Span plumbing for the interleaved DAG: firings of different queries
  // interleave arbitrarily, so a task's enclosing span is re-entered around
  // each fire instead of being held open by one RAII scope. These three
  // helpers are the only sanctioned manual QueryTrace calls outside
  // SpanScope (rule O1); each is a no-op without a bound trace, and fire()
  // balances every open/reopen with a close.
  obs::SpanId open_span(obs::SpanKind kind, std::string label,
                        net::SimTime at, net::NodeAddress site);
  void close_span(obs::SpanId span, net::SimTime end);
  void reopen_span(obs::SpanId span);

  [[nodiscard]] net::Network& net() { return overlay_->network(); }

  /// Append `a` to the state log (no-op without one), stamping the
  /// enclosing fire's (at, qid, task) ordering key and the next seq.
  void record(StateAction a);

  overlay::HybridOverlay* overlay_;
  ExecutionPolicy policy_;
  obs::QueryTrace* trace_;
  BatchOptions opts_;
  net::EventQueue queue_;
  std::deque<QueryRun> runs_;  // deque: QueryRun is pinned (not movable)
  /// Dense map query id -> index into runs_ (identity for plain batches;
  /// sparse shard ids for worker runs).
  std::vector<std::uint32_t> run_of_qid_;
  StateLog* state_log_ = nullptr;
  net::SimTime fire_at_ = 0;       // event time of the fire in progress
  std::uint32_t fire_qid_ = 0;     // query id of the fire in progress
  std::uint32_t fire_task_ = 0;    // task id of the fire in progress
  std::uint32_t fire_seq_ = 0;     // next StateAction seq
  /// node -> (busy until, last claimant qid + 1). Ordered map for
  /// deterministic bookkeeping.
  std::map<net::NodeAddress, std::pair<net::SimTime, std::uint32_t>> busy_;
};

}  // namespace ahsw::dqp
