// Logical plan optimizer: four rewrite passes over the PlanNode DAG, each
// run once, in this order.
//
// The paper hand-tunes its 22 TPC-H plans (filters directly above scans,
// explicit Project() calls after every scan); the SQL front end produces
// naive plans (filters above all joins, scans materializing every column).
// These passes close that gap so any parsed query runs at hand-tuned
// speed:
//
//   push-filters        splits conjunctions, as folded, and pushes each
//                       conjunct through maps / joins / aggregations down
//                       to the operator that owns its columns (respecting
//                       Left/Semi/Anti/Cross join semantics)
//   fold-constants      evaluates literal-only subexpressions through
//                       Expr::Eval, short-circuits AND/OR over a literal,
//                       and removes trivially-true filters; it follows
//                       push-filters to reduce the AND chains push builds
//                       where conjuncts meet
//   prune-columns       computes the required-column set top-down once,
//                       then narrows every Map (a Derive that republishes
//                       part of its input becomes an explicit Map), drops
//                       aggregate outputs no parent consumes (group keys
//                       stay and at least one aggregate survives), projects
//                       every scan to the columns above it, and replaces a
//                       Map that republishes its input unchanged (same
//                       columns, names and order) with that input
//   push-scan-filters   copies each Filter sitting directly above a scan
//                       into the scan's advisory scan_filter (the Filter
//                       stays as the residual), so synopsis-carrying
//                       storage can skip whole blocks the predicate
//                       refutes before decoding them
//
// One round reaches the fixpoint: optimizing the result again prints the
// same plan.
//
// Guarantees: the optimized plan produces results identical to the input
// plan on every engine, the root output schema (names, order, types) is
// preserved exactly, and subplan sharing (one PlanNode object reachable
// through several parents, §7.3) is preserved. Passes return original
// subtree pointers where nothing changed.
#ifndef WAKE_PLAN_OPTIMIZER_H_
#define WAKE_PLAN_OPTIMIZER_H_

#include "plan/plan.h"
#include "storage/partitioned_table.h"

namespace wake {

/// Runs the four passes once each, in order. The input and the result are
/// both validated with InferProps.
PlanNodePtr Optimize(const PlanNodePtr& plan, const Catalog& catalog);
Plan Optimize(const Plan& plan, const Catalog& catalog);

/// --- individual passes (exposed for targeted plan-shape tests) ---
PlanNodePtr PushDownFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog);
PlanNodePtr FoldConstantsPass(const PlanNodePtr& plan, const Catalog& catalog);
PlanNodePtr PruneColumnsPass(const PlanNodePtr& plan, const Catalog& catalog);
PlanNodePtr PushScanFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog);

/// Constant-folds one expression tree (returns the original pointer when
/// nothing folds). A node over literals becomes the literal Expr::Eval
/// computes, unless it fails Expr::ResultType's type check. Exposed for
/// tests.
ExprPtr FoldExpr(const ExprPtr& expr);

}  // namespace wake

#endif  // WAKE_PLAN_OPTIMIZER_H_
