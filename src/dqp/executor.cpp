#include "dqp/executor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>

#include "net/wire.hpp"
#include "obs/explain.hpp"
#include "sparql/ast.hpp"

namespace ahsw::dqp {

using optimizer::JoinSitePolicy;
using optimizer::PrimitiveStrategy;
using sparql::Binding;
using sparql::SolutionSet;

namespace {

[[nodiscard]] std::string_view form_name(sparql::QueryForm f) {
  switch (f) {
    case sparql::QueryForm::kSelect: return "SELECT";
    case sparql::QueryForm::kConstruct: return "CONSTRUCT";
    case sparql::QueryForm::kAsk: return "ASK";
    case sparql::QueryForm::kDescribe: return "DESCRIBE";
  }
  return "?";
}

/// Move `end` to the back of `chain` if present (chains may be asked to
/// finish at an overlap node; relative order of the rest is preserved).
void rotate_end_to_back(std::vector<overlay::Provider>& chain,
                        net::NodeAddress end) {
  auto it = std::find_if(
      chain.begin(), chain.end(),
      [&](const overlay::Provider& p) { return p.address == end; });
  if (it == chain.end()) return;
  overlay::Provider saved = *it;
  chain.erase(it);
  chain.push_back(saved);
}

/// A completed scan's set, handed over once as the accumulator's id rows.
/// It inherits the accumulator's wire size as its memo: same distinct rows,
/// same canonical encoding, so the next ship or colocate does not re-rank
/// its terms.
SolutionSet take_merged(const sparql::ChainAccumulator& acc) {
  SolutionSet out = acc.materialize();
  out.set_wire_cache(net::wire::charged_bytes(acc));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives shared by the fire handlers.

DagExecutor::Located DagExecutor::take_output(QueryRun& run,
                                              TaskId producer) {
  Task& p = run.tasks[producer];
  assert(!p.taken && "an output is taken by its one data reader only");
  p.taken = true;
  return std::move(p.out);
}

void DagExecutor::release_query(QueryRun& run) {
  run.located.clear();
  run.join_orders.clear();
  run.dict.reset();
}

overlay::HybridOverlay::Located DagExecutor::locate(
    const rdf::TriplePattern& p, net::NodeAddress initiator, net::SimTime now,
    ExecutionReport& rep) {
  overlay::HybridOverlay::Located loc = overlay_->locate(initiator, p, now);
  ++rep.index_lookups;
  rep.ring_hops += loc.hops;
  if (!loc.ok) rep.complete = false;
  return loc;
}

DagExecutor::Located DagExecutor::ship(Located from, net::NodeAddress target,
                                       net::Category category) {
  if (from.site == target) return from;
  from.ready_at =
      net().send(from.site, target, net::wire::charged_bytes(from.set),
                 from.ready_at, category, from.set.byte_size());
  from.site = target;
  return from;
}

const rdf::TripleStore* DagExecutor::run_at_provider(
    net::NodeAddress provider, net::SimTime& now, ExecutionReport& rep) {
  if (net().is_failed(provider)) {
    now = net().timeout(now, provider, net::Category::kQuery);
    return nullptr;
  }
  ++rep.providers_contacted;
  return &overlay_->store_of(provider);
}

void DagExecutor::give_up_on_provider(net::NodeAddress provider,
                                      const sparql::BgpPattern& p,
                                      net::SimTime now,
                                      net::NodeAddress initiator,
                                      ExecutionReport& rep) {
  ++rep.dead_providers_skipped;
  if (policy_.cache.enabled) {
    // Invalidate-on-timeout: the cached row listed a provider that just
    // exhausted its retries, so the next lookup of this key must re-fetch
    // instead of paying the dead-provider timeout again.
    if (std::optional<chord::Key> key = overlay_->row_key(p.pattern)) {
      overlay::LocationCache& cache = overlay_->cache_for(initiator);
      const overlay::CacheStats before = cache.stats();
      if (state_log_ != nullptr) {
        StateAction a;
        a.kind = StateAction::Kind::kCacheInvalidate;
        a.when = now;
        a.initiator = initiator;
        a.key = *key;
        record(std::move(a));
      }
      if (cache.invalidate(*key)) {
        obs::SpanScope span(
            trace_, obs::SpanKind::kCache,
            "invalidate key " + std::to_string(overlay_->ring().truncate(*key)),
            now, initiator);
        span.finish(now);
      }
      rep.cache.accumulate(cache.stats().delta_since(before));
    }
  }
  if (state_log_ != nullptr) {
    StateAction a;
    a.kind = StateAction::Kind::kReportDead;
    a.when = now;
    a.initiator = initiator;
    a.dead = provider;
    a.pattern = p.pattern;
    record(std::move(a));
  }
  overlay_->report_dead_provider(initiator, p.pattern, provider, now);
}

std::pair<DagExecutor::Located, DagExecutor::Located> DagExecutor::colocate(
    Located a, Located b, net::NodeAddress initiator, ExecutionReport& rep) {
  std::vector<optimizer::SiteCandidate> candidates;
  if (policy_.join_site == JoinSitePolicy::kThirdSite) {
    for (net::NodeAddress addr : overlay_->live_storage_addresses()) {
      candidates.push_back(optimizer::SiteCandidate{
          addr, overlay_->storage_state(addr).capacity});
    }
  }
  // Operand sizes are the *charged* (wire-encoded) sizes: move-small
  // decisions follow what shipping actually costs under compression.
  net::NodeAddress site = optimizer::choose_join_site(
      policy_.join_site,
      optimizer::LocatedOperand{a.site, net::wire::charged_bytes(a.set)},
      optimizer::LocatedOperand{b.site, net::wire::charged_bytes(b.set)},
      initiator, candidates);
  rep.plan_notes.push_back(
      std::string("join-site: ") +
      std::string(optimizer::join_site_policy_name(policy_.join_site)) +
      " -> node " + std::to_string(site));
  obs::SpanScope span(trace_, obs::SpanKind::kJoinSite,
                      "node " + std::to_string(site),
                      std::min(a.ready_at, b.ready_at), site);
  Located ca = ship(std::move(a), site, net::Category::kData);
  Located cb = ship(std::move(b), site, net::Category::kData);
  span.finish(std::max(ca.ready_at, cb.ready_at));
  return {std::move(ca), std::move(cb)};
}

obs::SpanId DagExecutor::open_span(obs::SpanKind kind, std::string label,
                                   net::SimTime at, net::NodeAddress site) {
  if (trace_ == nullptr) return obs::kNoSpan;
  // ahsw-lint: allow(O1) interleaved firings cannot hold one RAII scope
  // per task; fire() balances every open with a close_span.
  return trace_->open(kind, std::move(label), at, site);
}

void DagExecutor::close_span(obs::SpanId span, net::SimTime end) {
  if (trace_ == nullptr || span == obs::kNoSpan) return;
  // ahsw-lint: allow(O1) the matching close for open_span / reopen_span.
  trace_->close(span, end);
}

void DagExecutor::reopen_span(obs::SpanId span) {
  if (trace_ == nullptr || span == obs::kNoSpan) return;
  // ahsw-lint: allow(O1) a task span is re-entered once per interleaved
  // firing; close_span balances it before the next event fires.
  trace_->reopen(span);
}

net::SimTime DagExecutor::claim(net::NodeAddress node, std::uint32_t qid,
                                net::SimTime at) {
  if (opts_.service.service_ms <= 0) return at;
  auto& [busy_until, last] = busy_[node];
  // Only *cross-query* overlap queues: a query never waits on its own work
  // (one query's own parallelism is modelled as free).
  if (last != 0 && last != qid + 1 && busy_until > at) at = busy_until;
  busy_until = std::max(busy_until, at + opts_.service.service_ms);
  last = qid + 1;
  return at;
}

// ---------------------------------------------------------------------------
// Setup.

DagExecutor::TaskId DagExecutor::add_task(QueryRun& run, Task t) {
  TaskId id = static_cast<TaskId>(run.tasks.size());
  t.pending = 0;
  for (TaskId d : t.deps) {
    if (!run.tasks[d].done) ++t.pending;
  }
  run.tasks.push_back(std::move(t));
  for (TaskId d : run.tasks[id].deps) run.tasks[d].dependents.push_back(id);
  if (run.tasks[id].pending == 0) schedule(run, id);
  return id;
}

void DagExecutor::spawn(QueryRun& run, TaskKind kind, TaskId scan_id,
                        std::uint32_t position, int attempt,
                        net::SimTime base) {
  Task t;
  t.kind = kind;
  t.scan = scan_id;
  t.position = position;
  t.attempt = attempt;
  t.base = base;
  t.parent_span = run.tasks[scan_id].state->pattern_span;
  add_task(run, std::move(t));
}

void DagExecutor::schedule(QueryRun& run, TaskId id) {
  Task& t = run.tasks[id];
  net::SimTime at = t.base;
  for (TaskId d : t.deps) at = std::max(at, run.tasks[d].finish);
  queue_.push(net::ReadyEvent{at, run.qid, id});
}

void DagExecutor::complete(QueryRun& run, TaskId id, net::SimTime finish) {
  Task& t = run.tasks[id];
  assert(!t.done && "task completed twice");
  t.done = true;
  t.finish = finish;
  for (TaskId d : t.dependents) {
    Task& dep = run.tasks[d];
    assert(dep.pending > 0);
    if (--dep.pending == 0) schedule(run, d);
  }
}

void DagExecutor::setup_query(QueryRun& run) {
  const sparql::Query& q = run.query;

  std::string label = std::string(form_name(q.form));
  if (opts_.label_query_ids) {
    label = "q" + std::to_string(run.qid) + " " + label;
  }
  run.root_span = open_span(obs::SpanKind::kQuery, std::move(label), 0.0,
                            run.initiator);
  obs::SpanId plan_span = open_span(
      obs::SpanKind::kPlan, "transform + global optimization", 0.0,
      run.initiator);
  sparql::AlgebraPtr pattern = sparql::translate_pattern(q.where);
  if (policy_.push_filters) pattern = optimizer::push_filters(pattern);
  close_span(plan_span, 0.0);
  close_span(run.root_span, 0.0);
  run.rep.plan_notes.push_back("algebra: " + pattern->to_string());
  run.plan = compile_physical_plan(*pattern, policy_, q.form);

  // One static task per plan op, in op order (so task id == op id). Control
  // and preferred-end edges gate firing alongside the data inputs.
  for (const PhysicalOp& op : run.plan.ops) {
    Task t;
    t.op = op.id;
    t.parent_span = run.root_span;
    t.deps = op.inputs;
    for (OpId c : op.control) {
      if (std::find(t.deps.begin(), t.deps.end(), c) == t.deps.end()) {
        t.deps.push_back(c);
      }
    }
    if (op.preferred_end_from != kNoOp &&
        std::find(t.deps.begin(), t.deps.end(), op.preferred_end_from) ==
            t.deps.end()) {
      t.deps.push_back(op.preferred_end_from);
    }
    switch (op.kind) {
      case PhysOpKind::kConst: t.kind = TaskKind::kConst; break;
      case PhysOpKind::kIndexLookup: t.kind = TaskKind::kLookup; break;
      case PhysOpKind::kProviderScan: t.kind = TaskKind::kScan; break;
      case PhysOpKind::kShip: t.kind = TaskKind::kShip; break;
      case PhysOpKind::kJoin: t.kind = TaskKind::kJoin; break;
      case PhysOpKind::kLeftJoin: t.kind = TaskKind::kLeftJoin; break;
      case PhysOpKind::kUnion: t.kind = TaskKind::kUnion; break;
      case PhysOpKind::kFilter: t.kind = TaskKind::kFilter; break;
      case PhysOpKind::kPostProcess: t.kind = TaskKind::kPostProcess; break;
    }
    add_task(run, std::move(t));
  }
  run.final_task = run.plan.post;
}

// ---------------------------------------------------------------------------
// Firing.

void DagExecutor::record(StateAction a) {
  if (state_log_ == nullptr) return;
  a.at = fire_at_;
  a.qid = fire_qid_;
  a.task = fire_task_;
  a.seq = fire_seq_++;
  state_log_->push_back(std::move(a));
}

void DagExecutor::fire(QueryRun& run, TaskId id) {
  const net::TrafficStats before = net().stats();
  const obs::SpanId parent = run.tasks[id].parent_span;
  reopen_span(parent);

  net::SimTime hint = 0;
  switch (run.tasks[id].kind) {
    case TaskKind::kConst: {
      Task& t = run.tasks[id];
      t.out.set.add(Binding{});  // the empty BGP has the empty solution
      t.out.site = run.initiator;
      t.out.ready_at = t.base;
      complete(run, id, t.out.ready_at);
      break;
    }
    case TaskKind::kLookup: hint = fire_lookup(run, id); break;
    case TaskKind::kScan: hint = fire_scan(run, id); break;
    case TaskKind::kScatterLeg: hint = fire_scatter_leg(run, id); break;
    case TaskKind::kChainHop: hint = fire_chain_hop(run, id); break;
    case TaskKind::kRelookup: hint = fire_relookup(run, id); break;
    case TaskKind::kShip: hint = fire_ship(run, id); break;
    case TaskKind::kJoin:
    case TaskKind::kLeftJoin:
    case TaskKind::kUnion: hint = fire_binary(run, id); break;
    case TaskKind::kFilter: hint = fire_filter(run, id); break;
    case TaskKind::kPostProcess: hint = fire_post(run, id); break;
    case TaskKind::kDescribeGather:
      hint = fire_describe_gather(run, id);
      break;
  }

  close_span(parent, hint);
  run.rep.traffic.accumulate(net().stats().delta_since(before));
}

net::SimTime DagExecutor::fire_lookup(QueryRun& run, TaskId id) {
  Task& t = run.tasks[id];
  const rdf::TriplePattern& pattern = run.plan.ops[t.op].pattern.pattern;
  overlay::HybridOverlay::Located& loc = run.located[t.op];
  std::optional<chord::Key> key;
  if (policy_.cache.enabled) key = overlay_->row_key(pattern);
  if (key.has_value()) {
    overlay::LocationCache& cache = overlay_->cache_for(run.initiator);
    const overlay::CacheStats before = cache.stats();
    const std::string klabel = std::to_string(overlay_->ring().truncate(*key));
    if (state_log_ != nullptr) {
      StateAction a;
      a.kind = StateAction::Kind::kCacheLookup;
      a.when = t.base;
      a.initiator = run.initiator;
      a.key = *key;
      record(std::move(a));
    }
    if (const overlay::CachedRow* row = cache.lookup(*key, t.base)) {
      // Hit: the row is served at the initiator — no ring lookup, no index
      // traffic, completion at the task's own start time.
      obs::SpanScope span(trace_, obs::SpanKind::kCache, "hit key " + klabel,
                          t.base, run.initiator);
      loc.providers = row->providers;
      loc.index_node = row->index_node;
      loc.ok = true;
      loc.completed_at = t.base;
      loc.cached = true;
      loc.snapshot_age_ms = t.base - row->inserted_at;
      span.finish(t.base);
      run.rep.cache.accumulate(cache.stats().delta_since(before));
      complete(run, id, t.base);
      return 0;
    }
    {
      obs::SpanScope span(trace_, obs::SpanKind::kCache, "miss key " + klabel,
                          t.base, run.initiator);
      span.finish(t.base);
    }
    loc = locate(pattern, run.initiator, t.base, run.rep);
    if (loc.ok && !loc.broadcast) {
      if (state_log_ != nullptr) {
        StateAction a;
        a.kind = StateAction::Kind::kCacheInsert;
        a.when = loc.completed_at;
        a.initiator = run.initiator;
        a.key = *key;
        a.index_node = loc.index_node;
        a.fetched_at = loc.completed_at;
        a.providers = loc.providers;
        record(std::move(a));
      }
      if (cache.insert(*key, loc.providers, loc.index_node, loc.completed_at)) {
        // The key crossed the hot threshold: the cached row becomes a
        // leased extra replica — the owner pushes invalidations to this
        // initiator on every row mutation (subscription rides the lookup
        // response, so it is free).
        overlay_->subscribe_invalidations(*key, run.initiator);
        if (state_log_ != nullptr) {
          StateAction a;
          a.kind = StateAction::Kind::kSubscribe;
          a.when = loc.completed_at;
          a.initiator = run.initiator;
          a.key = *key;
          record(std::move(a));
        }
      }
    }
    run.rep.cache.accumulate(cache.stats().delta_since(before));
    complete(run, id, loc.completed_at);
    return 0;
  }
  loc = locate(pattern, run.initiator, t.base, run.rep);
  complete(run, id, loc.completed_at);
  return 0;
}

net::SimTime DagExecutor::fire_scan(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp& op = run.plan.ops[task.op];
  task.state = std::make_unique<ScanState>(run.dict);
  ScanState& s = *task.state;
  std::optional<net::NodeAddress> pend;
  if (op.preferred_end_from != kNoOp) {
    pend = run.tasks[op.preferred_end_from].out.site;
  }

  if (op.slot < 0) {
    // Standalone single-pattern BGP or DESCRIBE part.
    s.lookup = op.lookup;
    if (!run.located.at(s.lookup).ok) {
      finish_scan_empty(run, id, task.base);
      return 0;
    }
  } else {
    // One slot of a conjunction (Sect. IV-D).
    const std::vector<OpId>& lookups = run.plan.ops[op.group].group_lookups;
    std::vector<std::size_t>& order = run.join_orders[op.group];
    if (op.slot == 0) {
      // Resolve the runtime join order from the lookup frequencies.
      std::vector<optimizer::PatternStats> stats;
      stats.reserve(lookups.size());
      for (OpId l : lookups) {
        stats.push_back(optimizer::PatternStats{
            run.plan.ops[l].pattern.pattern, run.located.at(l).providers});
      }
      if (policy_.frequency_join_order) {
        order = optimizer::order_join_patterns(stats);
      } else {
        order.resize(lookups.size());
        for (std::size_t i = 0; i < lookups.size(); ++i) order[i] = i;
      }
      std::string note = "join-order:";
      for (std::size_t i : order) {
        note += " " + run.plan.ops[lookups[i]].pattern.pattern.to_string();
      }
      run.rep.plan_notes.push_back(std::move(note));
      // Cached frequency snapshots may be stale; the staleness bound is the
      // cache TTL (unleased rows) — note the worst age so the ordering
      // decision is auditable (docs/caching.md).
      net::SimTime worst_age = 0;
      bool any_cached = false;
      for (OpId l : lookups) {
        if (run.located.at(l).cached) {
          any_cached = true;
          worst_age = std::max(worst_age, run.located.at(l).snapshot_age_ms);
        }
      }
      if (any_cached) {
        run.rep.plan_notes.push_back(
            "frequency-snapshot: cached, age " + std::to_string(worst_age) +
            " ms <= bound " + std::to_string(policy_.cache.ttl_ms) + " ms");
      }
    }
    const std::size_t slot = static_cast<std::size_t>(op.slot);
    s.lookup = lookups[order[slot]];
    if (slot > 0) {
      Located prev = take_output(run, op.inputs.front());
      if (prev.set.empty()) {
        // Short-circuit: one empty operand empties the whole join; the
        // remaining slots pass the result through untouched (no traffic).
        finish_scan(run, id, std::move(prev));
        return 0;
      }
      s.carry = std::move(prev);
    }
    if (policy_.overlap_aware_sites && slot + 1 < order.size()) {
      std::vector<net::NodeAddress> shared = optimizer::provider_overlap(
          run.located.at(s.lookup).providers,
          run.located.at(lookups[order[slot + 1]]).providers);
      if (!shared.empty()) pend = shared.front();
    }
  }

  // --- Pattern evaluation at the providers (strategy-driven). ---
  const overlay::HybridOverlay::Located& loc = run.located.at(s.lookup);
  const rdf::TriplePattern& pattern = run.plan.ops[s.lookup].pattern.pattern;
  if (loc.providers.empty()) {
    finish_scan_empty(run, id, loc.completed_at);
    return 0;
  }

  s.pattern_span = open_span(obs::SpanKind::kPattern, pattern.to_string(),
                             loc.completed_at, run.initiator);
  s.strategy = policy_.primitive;
  if (policy_.adaptive && !loc.broadcast && loc.providers.size() > 1) {
    s.strategy = optimizer::choose_primitive_strategy(
        loc.providers, net().cost_model(), policy_.objectives);
    run.rep.plan_notes.push_back(
        std::string("adaptive: ") + pattern.to_string() + " -> " +
        std::string(optimizer::primitive_strategy_name(s.strategy)));
  }
  distribute(run, id, loc, pend);
  close_span(s.pattern_span, 0.0);
  return 0;
}

net::SimTime DagExecutor::distribute(
    QueryRun& run, TaskId id, const overlay::HybridOverlay::Located& loc,
    std::optional<net::NodeAddress> pend) {
  ScanState& s = *run.tasks[id].state;
  const net::SimTime now = loc.completed_at;
  s.acc = sparql::ChainAccumulator(run.dict);
  s.failed_contacts = 0;
  // The index node that served the row, unless it has left the ring.
  const chord::Ring& ring = overlay_->ring();
  const net::NodeAddress owner = ring.contains(loc.index_node)
                                     ? ring.address_of(loc.index_node)
                                     : run.initiator;

  if (s.strategy == PrimitiveStrategy::kBasic || loc.broadcast) {
    // Basic strategy (Sect. IV-C): the index node is the assembly site; all
    // providers evaluate in parallel and ship their mappings to it. A
    // broadcast (fully unbound) pattern floods from the initiator instead.
    s.assembly = loc.broadcast ? run.initiator : owner;
    s.chain = loc.providers;
    s.remaining = s.chain.size();
    s.done_at = now;
    for (std::size_t k = 0; k < s.chain.size(); ++k) {
      spawn(run, TaskKind::kScatterLeg, id, static_cast<std::uint32_t>(k), 0,
            now);
    }
    return now;
  }

  // Chain strategies: the sub-query travels a provider chain; every
  // provider merges its local mappings into the travelling set.
  s.chain = optimizer::chain_order(loc.providers, s.strategy);
  if (policy_.overlap_aware_sites && pend.has_value()) {
    rotate_end_to_back(s.chain, *pend);
  }
  const net::NodeAddress first = s.chain.front().address;
  obs::SpanScope ship_span(trace_, obs::SpanKind::kSubQueryShip,
                           "to node " + std::to_string(first), now, owner);
  s.t = net().send(owner, first,
                   subquery_wire_bytes(run.plan.ops[s.lookup].pattern), now,
                   net::Category::kQuery);
  if (s.carry.has_value()) {
    s.carry_bytes = net::wire::charged_bytes(s.carry->set);
    s.carry_raw_bytes = s.carry->set.byte_size();
    s.t = std::max(
        s.t, net().send(s.carry->site, first, s.carry_bytes,
                        std::max(now, s.carry->ready_at),
                        net::Category::kData, s.carry_raw_bytes));
    s.acc.set_carry(s.carry->set);
  }
  ship_span.finish(s.t);
  s.sender = owner;
  s.site = owner;
  spawn(run, TaskKind::kChainHop, id, 0, 0, s.t);
  return s.t;
}

net::SimTime DagExecutor::send_hop(const QueryRun& run, const ScanState& s,
                                   net::NodeAddress to, net::SimTime at,
                                   net::Category category) {
  const std::size_t query =
      subquery_wire_bytes(run.plan.ops[s.lookup].pattern);
  return net().send(s.sender, to,
                    query + net::wire::charged_bytes(s.acc) + s.carry_bytes,
                    at, category,
                    query + s.acc.byte_size() + s.carry_raw_bytes);
}

net::SimTime DagExecutor::finish_scan(QueryRun& run, TaskId id, Located out) {
  Task& scan = run.tasks[id];
  scan.out = std::move(out);
  scan.state.reset();
  complete(run, id, scan.out.ready_at);
  return scan.out.ready_at;
}

net::SimTime DagExecutor::finish_scan_empty(QueryRun& run, TaskId id,
                                            net::SimTime at) {
  const std::optional<Located>& carry = run.tasks[id].state->carry;
  Located out;
  out.site = carry.has_value() ? carry->site : run.initiator;
  out.ready_at = carry.has_value() ? std::max(at, carry->ready_at) : at;
  return finish_scan(run, id, std::move(out));
}

net::SimTime DagExecutor::fire_scatter_leg(QueryRun& run, TaskId id) {
  const Task& leg = run.tasks[id];
  ScanState& s = *run.tasks[leg.scan].state;
  const sparql::BgpPattern& pattern = run.plan.ops[s.lookup].pattern;
  const net::NodeAddress prov = s.chain[leg.position].address;

  // A retry leg re-ships the sub-query after its backoff (leg.base carries
  // the backoff-delayed start).
  std::optional<obs::SpanScope> retry_span;
  if (leg.attempt > 0) {
    retry_span.emplace(trace_, obs::SpanKind::kRetry,
                       "attempt " + std::to_string(leg.attempt + 1) +
                           " node " + std::to_string(prov),
                       leg.base, prov);
  }
  net::SimTime t;
  {
    obs::SpanScope ship_span(trace_, obs::SpanKind::kSubQueryShip,
                             "to node " + std::to_string(prov), leg.base,
                             s.assembly);
    t = net().send(s.assembly, prov, subquery_wire_bytes(pattern), leg.base,
                   net::Category::kQuery);
    ship_span.finish(t);
  }
  t = claim(prov, run.qid, t);
  {
    obs::SpanScope exec_span(trace_, obs::SpanKind::kLocalExec,
                             "node " + std::to_string(prov), t, prov);
    if (const rdf::TripleStore* store = run_at_provider(prov, t, run.rep)) {
      // The leg ships its provider's matches, read once, and the gather
      // merges that same set.
      const SolutionSet shipped = s.acc.matches(*store, pattern);
      t = net().send(prov, s.assembly, net::wire::charged_bytes(shipped), t,
                     net::Category::kData, shipped.byte_size());
      s.acc.merge(shipped);
    } else if (policy_.retry.enabled() &&
               leg.attempt < policy_.retry.max_retries) {
      // Dead contact with attempts left: hand the slot to a replacement leg
      // starting after the deterministic backoff. The outstanding-leg count
      // is NOT decremented — the replacement inherits this slot.
      ++run.rep.retries;
      exec_span.finish(t);
      if (retry_span.has_value()) retry_span->finish(t);
      complete(run, id, t);
      spawn(run, TaskKind::kScatterLeg, leg.scan, leg.position,
            leg.attempt + 1, t + policy_.retry.backoff_ms(leg.attempt + 1));
      return t;
    } else {
      give_up_on_provider(prov, pattern, t, run.initiator, run.rep);
      ++s.failed_contacts;
    }
    exec_span.finish(t);
  }
  if (retry_span.has_value()) retry_span->finish(t);
  s.done_at = std::max(s.done_at, t);
  complete(run, id, t);

  assert(s.remaining > 0);
  if (--s.remaining > 0) return t;
  if (policy_.retry.relookup && !s.relooked &&
      s.failed_contacts == s.chain.size()) {
    // Every provider of the row was given up on: fall back to lazy repair +
    // one fresh lookup instead of completing with nothing.
    spawn(run, TaskKind::kRelookup, leg.scan, 0, 0, s.done_at);
    return t;
  }

  // Last leg: gather at the assembly site, joining any carried set there.
  Located out{take_merged(s.acc), s.assembly, s.done_at};
  if (s.carry.has_value()) {
    obs::SpanScope ship_span(trace_, obs::SpanKind::kShip,
                             "carry to assembly", s.carry->ready_at,
                             s.assembly);
    // The carry's last reader: a later re-lookup cannot follow the gather.
    Located c = ship(std::move(*s.carry), s.assembly, net::Category::kData);
    ship_span.finish(c.ready_at);
    out.set = sparql::join(c.set, out.set);
    out.ready_at = std::max(out.ready_at, c.ready_at);
  }
  return finish_scan(run, leg.scan, std::move(out));
}

net::SimTime DagExecutor::fire_chain_hop(QueryRun& run, TaskId id) {
  const Task& hop = run.tasks[id];
  ScanState& s = *run.tasks[hop.scan].state;
  const sparql::BgpPattern& pattern = run.plan.ops[s.lookup].pattern;
  const net::NodeAddress prov = s.chain[hop.position].address;
  const bool last = hop.position + 1 >= s.chain.size();

  // A retry hop re-sends the travelling payload from the previous sender
  // after its backoff (s.t carries the backoff-delayed start).
  std::optional<obs::SpanScope> retry_span;
  net::SimTime start = s.t;
  if (hop.attempt > 0) {
    retry_span.emplace(trace_, obs::SpanKind::kRetry,
                       "attempt " + std::to_string(hop.attempt + 1) +
                           " node " + std::to_string(prov),
                       start, prov);
    start = send_hop(run, s, prov, start,
                     hop.position == 0 ? net::Category::kQuery
                                       : net::Category::kData);
  }
  net::SimTime t = claim(prov, run.qid, start);
  {
    obs::SpanScope hop_span(trace_, obs::SpanKind::kChainHop,
                            "node " + std::to_string(prov), t, prov);
    if (const rdf::TripleStore* store = run_at_provider(prov, t, run.rep)) {
      // The accumulator joins with the carry it was given at ship time.
      s.acc.merge(s.acc.matches(*store, pattern));
      s.site = prov;
      s.sender = prov;
    } else if (policy_.retry.enabled() &&
               hop.attempt < policy_.retry.max_retries) {
      ++run.rep.retries;
      hop_span.finish(t);
      if (retry_span.has_value()) retry_span->finish(t);
      s.t = t + policy_.retry.backoff_ms(hop.attempt + 1);
      complete(run, id, t);
      spawn(run, TaskKind::kChainHop, hop.scan, hop.position,
            hop.attempt + 1, s.t);
      return t;
    } else {
      give_up_on_provider(prov, pattern, t, run.initiator, run.rep);
      ++s.failed_contacts;
    }
    if (!last) {
      t = send_hop(run, s, s.chain[hop.position + 1].address, t,
                   net::Category::kData);
    }
    hop_span.finish(t);
  }
  if (retry_span.has_value()) retry_span->finish(t);
  s.t = t;
  complete(run, id, t);

  if (!last) {
    spawn(run, TaskKind::kChainHop, hop.scan, hop.position + 1, 0, t);
    return 0;
  }
  if (policy_.retry.relookup && !s.relooked &&
      s.failed_contacts == s.chain.size()) {
    // The whole chain was given up on: lazy repair + one fresh lookup.
    spawn(run, TaskKind::kRelookup, hop.scan, 0, 0, t);
    return t;
  }
  return finish_scan(run, hop.scan, Located{take_merged(s.acc), s.site, t});
}

net::SimTime DagExecutor::fire_relookup(QueryRun& run, TaskId id) {
  const Task& rl = run.tasks[id];
  ScanState& s = *run.tasks[rl.scan].state;
  s.relooked = true;
  ++run.rep.relookups;

  // The give-ups already purged the dead providers from the index row (lazy
  // repair); a fresh lookup returns whatever the repaired row holds now —
  // including providers that recovered and re-published while this scan was
  // timing out. The re-lookup pops after any injected recovery stamped
  // before its start.
  const overlay::HybridOverlay::Located loc = locate(
      run.plan.ops[s.lookup].pattern.pattern, run.initiator, rl.base, run.rep);
  if (!loc.ok || loc.providers.empty()) {
    // Nothing came back: the scan completes empty. A failed lookup reports
    // completed_at = 0, so clamp to the re-lookup's own start time.
    const net::SimTime done = std::max(rl.base, loc.completed_at);
    complete(run, id, done);
    return finish_scan_empty(run, rl.scan, done);
  }
  complete(run, id, distribute(run, rl.scan, loc, std::nullopt));
  return 0;
}

net::SimTime DagExecutor::fire_ship(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  Located in = take_output(run, task.deps.front());
  // Only the plan's result ship opens a span; DESCRIBE part ships are quiet.
  if (task.op != run.plan.ship || trace_ == nullptr) {
    task.out = ship(std::move(in), run.initiator, net::Category::kResult);
  } else {
    obs::SpanScope span(trace_, obs::SpanKind::kShip, "result to initiator",
                        in.ready_at, run.initiator);
    task.out = ship(std::move(in), run.initiator, net::Category::kResult);
    span.finish(task.out.ready_at);
  }
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_binary(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp& op = run.plan.ops[task.op];
  Located l = take_output(run, op.inputs[0]);
  Located r = take_output(run, op.inputs[1]);
  Located out;
  switch (task.kind) {
    case TaskKind::kJoin: {
      auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                               run.rep);
      out.set = sparql::join(cl.set, cr.set);
      out.site = cl.site;
      out.ready_at = std::max(cl.ready_at, cr.ready_at);
      break;
    }
    case TaskKind::kLeftJoin: {
      auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                               run.rep);
      out.set = sparql::left_join_conditioned(cl.set, cr.set, op.expr);
      out.site = cl.site;
      out.ready_at = std::max(cl.ready_at, cr.ready_at);
      break;
    }
    case TaskKind::kUnion: {
      if (r.site != l.site) {
        // Fall back to the configured colocation policy between the two
        // branch sites (the overlap-aware end did not pan out).
        auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                                 run.rep);
        l = std::move(cl);
        r = std::move(cr);
      }
      out.set = sparql::deduplicated(sparql::set_union(l.set, r.set));
      out.site = l.site;
      out.ready_at = std::max(l.ready_at, r.ready_at);
      break;
    }
    default:
      assert(false && "fire_binary on a non-binary task");
  }
  task.out = std::move(out);
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_filter(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp& op = run.plan.ops[task.op];
  Located l = take_output(run, op.inputs.front());
  l.set = sparql::filter_set(l.set, *op.expr);
  task.out = std::move(l);
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_post(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  Located in = take_output(run, task.deps.front());

  if (run.query.form != sparql::QueryForm::kDescribe) {
    obs::SpanScope post_span(trace_, obs::SpanKind::kPostProcess,
                             "modifiers + projection", in.ready_at,
                             run.initiator);
    post_span.finish(in.ready_at);
    run.result =
        sparql::finalize_result(run.query, std::move(in.set), nullptr);
    // The result outlives its query: hand it a dictionary of its own terms
    // instead of the query's, which holds every scan's.
    run.result.solutions = run.result.solutions.rekeyed(
        std::make_shared<rdf::TermDictionary>());
    release_query(run);
    run.rep.response_time = in.ready_at;
    complete(run, id, in.ready_at);
    return in.ready_at;
  }

  // Distributed DESCRIBE: resolve each target's surrounding triples with
  // two primitive pattern queries (t, ?, ?) and (?, ?, t). Parts run
  // sequentially (control-chained) so index repairs happen in target
  // order; each starts its lookup at the result's arrival time.
  std::set<rdf::Term> target_set;
  for (const rdf::PatternTerm& pt : run.query.describe_targets) {
    if (const rdf::Term* t = rdf::term_of(pt)) {
      target_set.insert(*t);
    } else {
      sparql::bound_terms(in.set, std::get<rdf::Variable>(pt).name,
                          target_set);
    }
  }
  const net::SimTime t0 = in.ready_at;
  complete(run, id, t0);

  // Each part's lookup, scan and ship run ops appended to the plan; their
  // tasks wait on the part's own tasks (`dep`).
  auto append = [&](PhysicalOp op, TaskKind kind, TaskId dep) {
    op.id = static_cast<OpId>(run.plan.ops.size());
    run.plan.ops.push_back(std::move(op));
    Task t;
    t.kind = kind;
    t.op = run.plan.ops.back().id;
    t.base = t0;
    t.parent_span = run.root_span;
    if (dep != kNoTask) t.deps.push_back(dep);
    return add_task(run, std::move(t));
  };
  Task gather;
  gather.kind = TaskKind::kDescribeGather;
  gather.base = t0;
  gather.parent_span = run.root_span;
  TaskId prev_ship = kNoTask;
  for (const rdf::Term& t : target_set) {
    run.describe_targets.push_back(t);
    for (const rdf::TriplePattern& tp :
         {rdf::TriplePattern{t, rdf::Variable{"__p"}, rdf::Variable{"__o"}},
          rdf::TriplePattern{rdf::Variable{"__s"}, rdf::Variable{"__p"},
                             t}}) {
      PhysicalOp lookup_op;
      lookup_op.kind = PhysOpKind::kIndexLookup;
      lookup_op.pattern = sparql::BgpPattern{tp, nullptr};
      const TaskId lk = append(std::move(lookup_op), TaskKind::kLookup,
                               prev_ship);
      PhysicalOp scan_op;
      scan_op.kind = PhysOpKind::kProviderScan;
      scan_op.lookup = run.tasks[lk].op;
      const TaskId sc = append(std::move(scan_op), TaskKind::kScan, lk);
      PhysicalOp ship_op;
      ship_op.kind = PhysOpKind::kShip;
      prev_ship = append(std::move(ship_op), TaskKind::kShip, sc);
      gather.deps.push_back(prev_ship);
    }
  }
  run.final_task = add_task(run, std::move(gather));
  return 0;
}

net::SimTime DagExecutor::fire_describe_gather(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  net::SimTime ready = task.base;
  std::set<rdf::Triple> triples;
  for (std::size_t i = 0; i < task.deps.size(); ++i) {
    const Located part = take_output(run, task.deps[i]);
    ready = std::max(ready, part.ready_at);
    const rdf::Term& t = run.describe_targets[i / 2];
    // A part binds two of __s/__p/__o; the described term fills the third.
    const SolutionSet& set = part.set;
    const std::array<std::size_t, 3> cols = {
        set.column("__s"), set.column("__p"), set.column("__o")};
    for (std::size_t r = 0; r < set.size(); ++r) {
      std::array<const rdf::Term*, 3> slot = {&t, &t, &t};
      for (std::size_t k = 0; k < 3; ++k) {
        if (cols[k] == set.width()) continue;
        const rdf::TermId term = set.row(r)[cols[k]];
        if (term != rdf::kInvalidTermId) slot[k] = &set.term(term);
      }
      triples.insert(rdf::Triple{*slot[0], *slot[1], *slot[2]});
    }
  }
  run.result.form = sparql::QueryForm::kDescribe;
  run.result.graph.assign(triples.begin(), triples.end());
  release_query(run);
  run.rep.response_time = ready;
  complete(run, id, ready);
  return ready;
}

// ---------------------------------------------------------------------------

BatchResult DagExecutor::run(const std::vector<BatchQuery>& batch) {
  return run(batch, {});
}

BatchResult DagExecutor::run(const std::vector<BatchQuery>& batch,
                             const std::vector<std::uint32_t>& qids) {
  assert((qids.empty() || qids.size() == batch.size()) &&
         "qids must be empty (identity) or match the batch");
  runs_.clear();
  std::uint32_t max_qid = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryRun& run = runs_.emplace_back();
    run.qid = qids.empty() ? static_cast<std::uint32_t>(i) : qids[i];
    run.query = batch[i].query;
    run.initiator = batch[i].initiator;
    max_qid = std::max(max_qid, run.qid);
  }
  run_of_qid_.assign(static_cast<std::size_t>(max_qid) + 1, 0);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    run_of_qid_[runs_[i].qid] = static_cast<std::uint32_t>(i);
    setup_query(runs_[i]);
  }

  // Injected (fault-schedule) events share the queue under the reserved
  // query id, so they interleave with query tasks in one deterministic
  // (time, query, task) order — and still apply when stamped after the last
  // query task, so late recoveries are not silently dropped.
  for (std::size_t i = 0; i < opts_.injections.size(); ++i) {
    queue_.push(net::ReadyEvent{opts_.injections[i].at, net::kInjectionQueryId,
                                static_cast<std::uint32_t>(i)});
  }

  while (!queue_.empty()) {
    const net::ReadyEvent ev = queue_.pop();
    if (ev.query == net::kInjectionQueryId) {
      const InjectedEvent& inj = opts_.injections[ev.task];
      if (inj.apply) inj.apply(ev.at);
      continue;
    }
    fire_at_ = ev.at;
    fire_qid_ = ev.query;
    fire_task_ = ev.task;
    fire(runs_[run_of_qid_[ev.query]], ev.task);
  }

  BatchResult out;
  out.results.reserve(runs_.size());
  out.reports.reserve(runs_.size());
  for (QueryRun& run : runs_) {
    assert(run.final_task != kNoTask && run.tasks[run.final_task].done &&
           "batch drained with an incomplete query");
    // Traced executions carry their EXPLAIN tree in the plan notes, so any
    // consumer of the report can see the per-phase cost without the trace.
    if (trace_ != nullptr && run.root_span != obs::kNoSpan) {
      for (std::string& line : obs::explain_lines(*trace_, run.root_span)) {
        run.rep.plan_notes.push_back(std::move(line));
      }
    }
    out.makespan = std::max(out.makespan, run.rep.response_time);
    out.root_spans.push_back(run.root_span);
    out.results.push_back(std::move(run.result));
    out.reports.push_back(std::move(run.rep));
  }
  return out;
}

}  // namespace ahsw::dqp
