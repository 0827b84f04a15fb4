#include "sparql/eval.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "sparql/accumulator.hpp"

namespace ahsw::sparql {

namespace {

/// `base` extended with one id row over `vars`, decoded through `dict`.
Binding decoded(const Binding& base, const std::vector<std::string>& vars,
                const rdf::TermId* ids, const rdf::TermDictionary& dict) {
  Binding b = base;
  b.reserve(base.size() + vars.size());
  for (std::size_t c = 0; c < vars.size(); ++c) {
    b.set(vars[c], dict.term(ids[c]));
  }
  return b;
}

/// Substitute variables bound in `b` into `p` to narrow the index scan.
rdf::TriplePattern substituted(const rdf::TriplePattern& p, const Binding& b) {
  auto sub = [&](const rdf::PatternTerm& pt) -> rdf::PatternTerm {
    if (const rdf::Variable* v = rdf::var_of(pt)) {
      if (const rdf::Term* t = b.get(v->name)) return *t;
    }
    return pt;
  };
  return rdf::TriplePattern{sub(p.s), sub(p.p), sub(p.o)};
}

/// Selectivity heuristic for greedy BGP ordering: more bound positions (after
/// substitution of already-certain variables) evaluate first.
std::size_t pick_next(const std::vector<BgpPattern>& bgp,
                      const std::vector<bool>& done,
                      const std::set<std::string>& bound_vars) {
  std::size_t best = bgp.size();
  int best_score = -1;
  for (std::size_t i = 0; i < bgp.size(); ++i) {
    if (done[i]) continue;
    const rdf::TriplePattern& p = bgp[i].pattern;
    int score = 0;
    bool shares = false;
    auto pos_score = [&](const rdf::PatternTerm& pt) {
      if (const rdf::Variable* v = rdf::var_of(pt)) {
        if (bound_vars.count(v->name) > 0) {
          score += 2;
          shares = true;
        }
      } else {
        score += 2;
      }
    };
    pos_score(p.s);
    pos_score(p.p);
    pos_score(p.o);
    if (shares || bound_vars.empty()) score += 1;  // avoid cartesian products
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  assert(best < bgp.size());
  return best;
}

/// Kind precedence of ORDER BY (SPARQL 1.1 §15.1): blank < IRI < literal.
int kind_rank(const rdf::Term& t) {
  switch (t.kind()) {
    case rdf::TermKind::kBlank: return 0;
    case rdf::TermKind::kIri: return 1;
    case rdf::TermKind::kLiteral: return 2;
  }
  return 2;
}

std::vector<std::size_t> identity_order(const SolutionSet& s) {
  std::vector<std::size_t> order(s.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

/// `order` without repeated rows: the first occurrence of every id tuple
/// (DISTINCT), or of every run of adjacent equal tuples (REDUCED).
std::vector<std::size_t> unique_rows(const SolutionSet& s,
                                     const std::vector<std::size_t>& order,
                                     bool adjacent) {
  const std::size_t width = s.width();
  std::vector<std::size_t> out;
  // Point lookups only — never iterated (rule D2).
  std::unordered_set<std::string> seen;
  const rdf::TermId* prev = nullptr;
  for (std::size_t r : order) {
    const rdf::TermId* row = s.row(r);
    if (adjacent) {
      if (prev != nullptr && std::equal(row, row + width, prev)) continue;
      prev = row;
    } else if (!seen.emplace(reinterpret_cast<const char*>(row),
                             width * sizeof(rdf::TermId))
                    .second) {
      continue;
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace

std::size_t match_ids(const rdf::TripleStore& store, const BgpPattern& p,
                      std::vector<std::string>& vars,
                      std::vector<rdf::TermId>& cells, const Binding& base) {
  const std::array<const rdf::PatternTerm*, 3> positions = {
      &p.pattern.s, &p.pattern.p, &p.pattern.o};
  vars.clear();
  for (const rdf::PatternTerm* pt : positions) {
    if (const rdf::Variable* v = rdf::var_of(*pt)) vars.push_back(v->name);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  // col[k]: the schema column position k binds (kConstant for a term).
  constexpr std::size_t kConstant = static_cast<std::size_t>(-1);
  std::array<std::size_t, 3> col{};
  for (std::size_t k = 0; k < 3; ++k) {
    const rdf::Variable* v = rdf::var_of(*positions[k]);
    col[k] = v == nullptr ? kConstant
                          : static_cast<std::size_t>(
                                std::lower_bound(vars.begin(), vars.end(),
                                                 v->name) -
                                vars.begin());
  }

  const std::size_t width = vars.size();
  const rdf::TermDictionary& dict = store.dictionary();
  cells.clear();
  std::size_t rows = 0;
  store.scan_ids(p.pattern, [&](rdf::TermId s, rdf::TermId pr, rdf::TermId o) {
    const std::size_t at = cells.size();
    cells.resize(at + width, rdf::kInvalidTermId);
    const std::array<rdf::TermId, 3> ids = {s, pr, o};
    for (std::size_t k = 0; k < 3; ++k) {
      if (col[k] == kConstant) continue;
      rdf::TermId& cell = cells[at + col[k]];
      if (cell != rdf::kInvalidTermId && cell != ids[k]) {
        cells.resize(at);  // a repeated variable bound to two terms
        return;
      }
      cell = ids[k];
    }
    if (p.pushed_filter != nullptr &&
        !satisfies(*p.pushed_filter,
                   decoded(base, vars, cells.data() + at, dict))) {
      cells.resize(at);
      return;
    }
    ++rows;
  });
  return rows;
}

SolutionSet LocalEngine::match_pattern(const BgpPattern& p) const {
  SolutionSet unit;  // the empty mapping, extended by p
  unit.add(Binding{});
  return extend(unit, p);
}

SolutionSet LocalEngine::extend(const SolutionSet& input,
                                const BgpPattern& p) const {
  SolutionSet out(input.dictionary());
  std::vector<std::string> vars;
  std::vector<rdf::TermId> cells;
  for (std::size_t row = 0; row < input.size(); ++row) {
    const Binding base = input.binding(row);
    // Substituting the outer row narrows the scan; the matches bind only
    // the variables it leaves open.
    const std::size_t rows = match_ids(
        *store_, BgpPattern{substituted(p.pattern, base), p.pushed_filter},
        vars, cells, base);
    for (std::size_t r = 0; r < rows; ++r) {
      out.add(decoded(base, vars, cells.data() + r * vars.size(),
                      store_->dictionary()));
    }
  }
  return out;
}

SolutionSet LocalEngine::evaluate_bgp(
    const std::vector<BgpPattern>& bgp) const {
  // The empty BGP has exactly one solution: the empty mapping (W3C).
  SolutionSet acc;
  acc.add(Binding{});
  if (bgp.empty()) return acc;

  std::vector<bool> done(bgp.size(), false);
  std::set<std::string> bound_vars;
  for (std::size_t step = 0; step < bgp.size(); ++step) {
    std::size_t i = pick_next(bgp, done, bound_vars);
    done[i] = true;
    acc = extend(acc, bgp[i]);
    if (acc.empty()) return acc;
    auto add_var = [&](const rdf::PatternTerm& pt) {
      if (const rdf::Variable* v = rdf::var_of(pt)) bound_vars.insert(v->name);
    };
    add_var(bgp[i].pattern.s);
    add_var(bgp[i].pattern.p);
    add_var(bgp[i].pattern.o);
  }
  return acc;
}

SolutionSet LocalEngine::evaluate(const Algebra& a) const {
  switch (a.kind) {
    case AlgebraKind::kBgp:
      return evaluate_bgp(a.bgp);
    case AlgebraKind::kJoin:
      return join(evaluate(*a.left), evaluate(*a.right));
    case AlgebraKind::kLeftJoin:
      return left_join_conditioned(evaluate(*a.left), evaluate(*a.right),
                                   a.expr);
    case AlgebraKind::kUnion:
      return set_union(evaluate(*a.left), evaluate(*a.right));
    case AlgebraKind::kFilter:
      return filter_set(evaluate(*a.left), *a.expr);
  }
  return {};
}

namespace {

/// The row indexes of `set` in ORDER BY order, ties kept in input order.
/// Each key is evaluated once per distinct id tuple of its variables, not
/// per comparison.
std::vector<std::size_t> solution_order(
    const SolutionSet& set, const std::vector<OrderCondition>& order) {
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // SPARQL 1.1 §15.1: errors / unbound sort lowest, then blank nodes, IRIs
  // and literals by kind; within a kind by numeric value, then by term
  // surface form.
  auto value_less = [](const ExprValue& x, const ExprValue& y) -> int {
    if (!x && !y) return 0;
    if (!x) return -1;
    if (!y) return 1;
    if (kind_rank(*x) != kind_rank(*y)) {
      return kind_rank(*x) < kind_rank(*y) ? -1 : 1;
    }
    double nx = 0.0, ny = 0.0;
    if (x->numeric_value(nx) && y->numeric_value(ny)) {
      if (nx < ny) return -1;
      if (nx > ny) return 1;
      return 0;
    }
    std::string sx = x->to_string();
    std::string sy = y->to_string();
    return sx.compare(sy) < 0 ? -1 : (sx == sy ? 0 : 1);
  };
  // Each key is evaluated once per distinct id tuple of its variables (a
  // plain ?x: once per distinct term), its distinct values ranked by
  // value_less — equal values share a rank — and the rows sorted on their
  // rank tuples.
  const std::size_t n = set.size();
  std::vector<std::vector<std::uint32_t>> keys;
  for (const OrderCondition& cond : order) {
    std::vector<std::size_t> cols;
    for (const std::string& v : variables_of(*cond.expr)) {
      cols.push_back(set.column(v));
    }
    // slot[r]: index into `values` of row r's key. A one-variable key is
    // looked up by id (the last entry standing for unbound), a wider one
    // by its id tuple.
    std::vector<ExprValue> values;
    std::vector<std::uint32_t> slot(n);
    std::vector<rdf::TermId> tuple(cols.size());
    const std::size_t terms =
        set.dictionary() != nullptr ? set.dictionary()->size() : 0;
    std::vector<std::uint32_t> slot_by_id(cols.size() == 1 ? terms + 1 : 0,
                                          kNoSlot);
    std::map<std::vector<rdf::TermId>, std::uint32_t> slot_by_tuple;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < cols.size(); ++k) {
        tuple[k] = cols[k] < set.width() ? set.row(r)[cols[k]]
                                         : rdf::kInvalidTermId;
      }
      std::uint32_t* known = nullptr;
      if (cols.size() == 1) {
        known = &slot_by_id[std::min<std::size_t>(tuple[0], terms)];
      } else {
        known = &slot_by_tuple.try_emplace(tuple, kNoSlot).first->second;
      }
      if (*known == kNoSlot) {
        *known = static_cast<std::uint32_t>(values.size());
        Binding b;
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (tuple[k] != rdf::kInvalidTermId) {
            b.set(set.vars()[cols[k]], set.term(tuple[k]));
          }
        }
        values.push_back(evaluate(*cond.expr, b));
      }
      slot[r] = *known;
    }
    std::vector<std::uint32_t> by_value(values.size());
    std::iota(by_value.begin(), by_value.end(), 0u);
    std::stable_sort(by_value.begin(), by_value.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return value_less(values[a], values[b]) < 0;
                     });
    std::vector<std::uint32_t> rank(values.size());
    for (std::size_t q = 0; q < by_value.size(); ++q) {
      const bool tie = q > 0 && value_less(values[by_value[q - 1]],
                                           values[by_value[q]]) == 0;
      rank[by_value[q]] = q == 0 ? 0 : rank[by_value[q - 1]] + (tie ? 0 : 1);
    }
    for (std::uint32_t& s : slot) s = rank[s];
    keys.push_back(std::move(slot));
  }
  std::vector<std::size_t> rows = identity_order(set);
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t k = 0; k < keys.size(); ++k) {
                       if (keys[k][a] != keys[k][b]) {
                         return order[k].ascending ? keys[k][a] < keys[k][b]
                                                   : keys[k][a] > keys[k][b];
                       }
                     }
                     return false;
                   });
  return rows;
}

}  // namespace

std::size_t QueryResult::byte_size() const noexcept {
  std::size_t n = solutions.byte_size() + 1;
  for (const rdf::Triple& t : graph) n += t.byte_size();
  return n;
}

std::string QueryResult::to_string() const {
  switch (form) {
    case QueryForm::kAsk:
      return ask_answer ? "true" : "false";
    case QueryForm::kSelect:
      return solutions.to_string();
    default: {
      std::string out;
      for (const rdf::Triple& t : graph) {
        out += t.to_string();
        out += '\n';
      }
      return out;
    }
  }
}

namespace {

/// Instantiate a CONSTRUCT template against solutions; rows that leave any
/// template position unbound are skipped (per spec), duplicates removed.
std::vector<rdf::Triple> instantiate_template(
    const std::vector<rdf::TriplePattern>& tmpl, const SolutionSet& sols) {
  std::set<rdf::Triple> out;
  for (const rdf::TriplePattern& tp : tmpl) {
    // Per position: the constant, or the column of its variable.
    std::array<const rdf::PatternTerm*, 3> pos = {&tp.s, &tp.p, &tp.o};
    std::array<std::size_t, 3> col{};
    bool bindable = true;
    for (std::size_t k = 0; k < 3; ++k) {
      const rdf::Variable* v = rdf::var_of(*pos[k]);
      col[k] = v == nullptr ? sols.width() + 1 : sols.column(v->name);
      bindable = bindable && col[k] != sols.width();
    }
    if (!bindable) continue;  // a template variable no row binds
    for (std::size_t r = 0; r < sols.size(); ++r) {
      std::array<const rdf::Term*, 3> t{};
      for (std::size_t k = 0; k < 3; ++k) {
        if (col[k] > sols.width()) {
          t[k] = rdf::term_of(*pos[k]);
        } else if (const rdf::TermId id = sols.row(r)[col[k]];
                   id != rdf::kInvalidTermId) {
          t[k] = &sols.term(id);
        }
      }
      if (t[0] == nullptr || t[1] == nullptr || t[2] == nullptr) continue;
      out.insert(rdf::Triple{*t[0], *t[1], *t[2]});
    }
  }
  return {out.begin(), out.end()};
}

/// All triples mentioning `t` as subject or object.
void describe_term(const rdf::Term& t, const rdf::TripleStore& store,
                   std::set<rdf::Triple>& out) {
  for (const rdf::Triple& tr :
       store.match(rdf::TriplePattern{t, rdf::Variable{"p"},
                                      rdf::Variable{"o"}})) {
    out.insert(tr);
  }
  for (const rdf::Triple& tr :
       store.match(rdf::TriplePattern{rdf::Variable{"s"}, rdf::Variable{"p"},
                                      t})) {
    out.insert(tr);
  }
}

}  // namespace

void bound_terms(const SolutionSet& s, std::string_view var,
                 std::set<rdf::Term>& out) {
  const std::size_t c = s.column(var);
  if (c == s.width()) return;
  std::vector<char> seen(s.dictionary()->size(), 0);
  for (std::size_t r = 0; r < s.size(); ++r) {
    const rdf::TermId id = s.row(r)[c];
    if (id == rdf::kInvalidTermId || seen[id] != 0) continue;
    seen[id] = 1;
    out.insert(s.term(id));
  }
}

QueryResult finalize_result(const Query& q, SolutionSet raw,
                            const rdf::TripleStore* store) {
  QueryResult res;
  res.form = q.form;

  switch (q.form) {
    case QueryForm::kAsk:
      res.ask_answer = !raw.empty();
      return res;

    case QueryForm::kConstruct:
      res.graph = instantiate_template(q.construct_template, raw);
      return res;

    case QueryForm::kDescribe: {
      if (store == nullptr) return res;
      std::set<rdf::Term> targets;
      for (const rdf::PatternTerm& target : q.describe_targets) {
        if (const rdf::Term* t = rdf::term_of(target)) {
          targets.insert(*t);
        } else {
          bound_terms(raw, std::get<rdf::Variable>(target).name, targets);
        }
      }
      std::set<rdf::Triple> triples;
      for (const rdf::Term& t : targets) describe_term(t, *store, triples);
      res.graph.assign(triples.begin(), triples.end());
      return res;
    }

    case QueryForm::kSelect:
      break;
  }

  // SELECT: order (canonical when no ORDER BY, so output is deterministic),
  // projection, distinct/reduced and slice, on one row-index vector.
  std::vector<std::size_t> order = q.order_by.empty()
                                       ? canonical_order(raw)
                                       : solution_order(raw, q.order_by);
  res.variables = q.select_all ? q.pattern_variables() : q.select_vars;
  raw.project(res.variables);
  if (q.distinct || q.reduced) order = unique_rows(raw, order, !q.distinct);
  const std::size_t off = std::min<std::uint64_t>(order.size(), q.offset);
  order.erase(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(off));
  if (q.limit.has_value() && order.size() > *q.limit) order.resize(*q.limit);
  raw.keep_rows(order);
  res.solutions = std::move(raw);
  return res;
}

QueryResult execute_local(const Query& q, const rdf::TripleStore& store) {
  LocalEngine engine(store);
  AlgebraPtr pattern = translate_pattern(q.where);
  SolutionSet raw = engine.evaluate(*pattern);
  return finalize_result(q, std::move(raw), &store);
}

}  // namespace ahsw::sparql
