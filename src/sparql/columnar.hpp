// Vectorized (dictionary-id) implementations of the SPARQL set algebra.
//
// The row-at-a-time operators in solution.cpp / eval.cpp compare bindings by
// materialized term strings: every hash-join key is a concatenation of
// `Term::to_string()` values and every compatibility check re-compares full
// terms. These kernels instead intern every distinct term of the operand
// sets into a per-operation rdf::TermDictionary — ids assigned in Term
// `operator<=>` order, so id order == term order — and run the algebra over
// columnar TermId batches. Strings are touched exactly twice per operation:
// once to intern each distinct term and once to materialize the surviving
// rows.
//
// Contract: each vec_* function returns *identical rows in identical order*
// to its legacy counterpart (join, minus, left_join, left_join_conditioned,
// filter_set, deduplicated). The executor's `ExecutionPolicy::vectorized`
// toggle must be observationally invisible — same solutions, same plan
// notes, same traffic — which tests/sparql/vectorized_ab_test.cpp pins.
#pragma once

#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// Vectorized Join: same rows, same order as join(a, b).
[[nodiscard]] SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b);

/// Vectorized Minus: same rows, same order as minus(a, b).
[[nodiscard]] SolutionSet vec_minus(const SolutionSet& a,
                                    const SolutionSet& b);

/// Vectorized LeftJoin without condition: join part then unmatched rows.
[[nodiscard]] SolutionSet vec_left_join(const SolutionSet& a,
                                        const SolutionSet& b);

/// Vectorized LeftJoin with OPTIONAL condition; `cond == nullptr` means
/// `true`. Condition evaluation is memoized on the tuple of dictionary ids
/// the expression's variables take in the merged row, so each distinct
/// id-tuple pays for one string-space evaluation.
[[nodiscard]] SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                                    const SolutionSet& b,
                                                    const ExprPtr& cond);

/// Vectorized Filter with the same memoization as above.
[[nodiscard]] SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e);

/// Vectorized Distinct: hash dedup of id tuples, then one canonical sort
/// by term rank (sparql::ChainAccumulator), so the result matches
/// normalize() + std::unique exactly.
[[nodiscard]] SolutionSet vec_deduplicated(const SolutionSet& in);

}  // namespace ahsw::sparql
