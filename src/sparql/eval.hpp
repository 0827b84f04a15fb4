// Local SPARQL evaluation over one triple store.
//
// This is the "Local Query Execution" box of the paper's Fig. 3 workflow:
// every storage node runs this engine against its own RDF repository when a
// sub-query is shipped to it. The same engine evaluated against a merged
// store acts as the oracle that distributed execution is tested against.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/store.hpp"
#include "sparql/algebra.hpp"
#include "sparql/ast.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// The one pattern binder: the matches of `p` in `store` as ids of the
/// store's own dictionary. Fills `vars` with the pattern's variables,
/// sorted (the schema), and `cells` row-major over them, every slot bound,
/// in scan order; returns the row count. A repeated variable (`?x p ?x`)
/// keeps a triple only when its positions carry one id: within one
/// dictionary, equal ids are equal terms. Only a pattern with a pushed
/// filter decodes its rows: each is evaluated as a Binding, `base` (the
/// outer row a BGP step substituted into `p`) extended with the row.
std::size_t match_ids(const rdf::TripleStore& store, const BgpPattern& p,
                      std::vector<std::string>& vars,
                      std::vector<rdf::TermId>& cells,
                      const Binding& base = {});

/// Evaluation engine bound to a triple store.
class LocalEngine {
 public:
  explicit LocalEngine(const rdf::TripleStore& store) : store_(&store) {}

  /// Evaluate any algebra expression to a solution set.
  [[nodiscard]] SolutionSet evaluate(const Algebra& a) const;

  /// Evaluate a BGP with binding propagation (patterns are greedily ordered
  /// by selectivity: most-bound first, preferring ones sharing variables
  /// with those already evaluated).
  [[nodiscard]] SolutionSet evaluate_bgp(
      const std::vector<BgpPattern>& bgp) const;

  /// Solutions of one triple pattern, with repeated-variable consistency
  /// (e.g. `?x p ?x`) enforced and any pushed filter applied.
  [[nodiscard]] SolutionSet match_pattern(const BgpPattern& p) const;

 private:
  /// Extend each binding in `input` with matches of `p`.
  [[nodiscard]] SolutionSet extend(const SolutionSet& input,
                                   const BgpPattern& p) const;

  const rdf::TripleStore* store_;
};

/// Result of running a full query.
struct QueryResult {
  QueryForm form = QueryForm::kSelect;
  std::vector<std::string> variables;  // SELECT projection
  SolutionSet solutions;               // SELECT
  bool ask_answer = false;             // ASK
  std::vector<rdf::Triple> graph;      // CONSTRUCT / DESCRIBE

  [[nodiscard]] std::size_t byte_size() const noexcept;
  [[nodiscard]] std::string to_string() const;
};

/// Add to `out` every term `s` binds `var` to (DESCRIBE targets).
void bound_terms(const SolutionSet& s, std::string_view var,
                 std::set<rdf::Term>& out);

/// Apply the solution modifiers of `q` — ORDER BY, projection,
/// DISTINCT/REDUCED, OFFSET/LIMIT — to a raw pattern-matching result, or
/// build its ASK/CONSTRUCT/DESCRIBE answer. The one place modifiers are
/// applied: the distributed processor's post-processing stage at the query
/// initiator and execute_local both end here.
[[nodiscard]] QueryResult finalize_result(const Query& q, SolutionSet raw,
                                          const rdf::TripleStore* store);

/// Parse-transform-evaluate a whole query against one local store.
[[nodiscard]] QueryResult execute_local(const Query& q,
                                        const rdf::TripleStore& store);

// The set operators below run over dictionary ids, like join/minus/
// left_join in solution.hpp (all are defined in columnar.cpp).

/// LeftJoin with an optional condition (SPARQL OPTIONAL semantics): each
/// left row extends with every compatible right row satisfying `cond`, or
/// survives alone when none does. cond == nullptr means `true`.
[[nodiscard]] SolutionSet left_join_conditioned(const SolutionSet& a,
                                                const SolutionSet& b,
                                                const ExprPtr& cond);

/// Rows of `in` satisfying `e`.
[[nodiscard]] SolutionSet filter_set(const SolutionSet& in, const Expr& e);

/// Canonically sorted with duplicates removed (set semantics, used at every
/// in-network merge point of the distributed processor).
[[nodiscard]] SolutionSet deduplicated(const SolutionSet& in);

}  // namespace ahsw::sparql
