// Logical plan optimizer: an ordered list of rewrite passes run to
// fixpoint over the PlanNode DAG.
//
// The paper hand-tunes its 22 TPC-H plans (filters directly above scans,
// explicit Project() calls after every scan); the SQL front end produces
// naive plans (filters above all joins, scans materializing every column).
// These passes close that gap so any parsed query runs at hand-tuned
// speed:
//
//   fold-constants      evaluates literal-only subexpressions through
//                       Expr::Eval, short-circuits AND/OR over a literal,
//                       and removes trivially-true filters
//   push-filters        splits conjunctions and pushes each conjunct
//                       through maps / joins / aggregations down to the
//                       operator that owns its columns (respecting
//                       Left/Semi/Anti/Cross join semantics)
//   prune-projections   computes the required-column set top-down and
//                       narrows every Map (a Derive whose pass-through
//                       columns are partly unused becomes an explicit Map)
//   prune-aggregates    drops aggregate outputs no parent consumes (SQL
//                       derived tables routinely compute more aggregates
//                       than the outer query reads); group keys are never
//                       touched and at least one aggregate always
//                       survives, so the operator's grouping semantics
//                       are unchanged
//   project-scans       pushes the required-column set into kScan nodes so
//                       storage below never materializes unused columns
//   push-scan-filters   copies each Filter sitting directly above a scan
//                       into the scan's advisory scan_filter (the Filter
//                       stays as the residual), so synopsis-carrying
//                       storage can skip whole blocks the predicate
//                       refutes before decoding them
//
// Guarantees: the optimized plan produces results identical to the input
// plan on every engine, the root output schema (names, order, types) is
// preserved exactly, and subplan sharing (one PlanNode object reachable
// through several parents, §7.3) is preserved. Passes return original
// subtree pointers where nothing changed.
#ifndef WAKE_PLAN_OPTIMIZER_H_
#define WAKE_PLAN_OPTIMIZER_H_

#include <functional>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "storage/partitioned_table.h"

namespace wake {

/// One rewrite pass: plan DAG + catalog in, semantically equivalent plan
/// out.
using PlanPass =
    std::function<PlanNodePtr(const PlanNodePtr&, const Catalog&)>;

struct OptimizerPass {
  std::string name;
  PlanPass run;
};

/// The default pass list, in execution order (see file comment).
const std::vector<OptimizerPass>& DefaultPasses();

/// Runs the default passes in order, repeating the whole list until a full
/// round leaves the plan unchanged (bounded by a small round limit). The
/// input and the result are both validated with InferProps.
PlanNodePtr Optimize(const PlanNodePtr& plan, const Catalog& catalog);
Plan Optimize(const Plan& plan, const Catalog& catalog);

/// --- individual passes (exposed for targeted plan-shape tests) ---
PlanNodePtr FoldConstantsPass(const PlanNodePtr& plan, const Catalog& catalog);
PlanNodePtr PushDownFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog);
PlanNodePtr PruneProjectionsPass(const PlanNodePtr& plan,
                                 const Catalog& catalog);
PlanNodePtr PruneAggregatesPass(const PlanNodePtr& plan,
                                const Catalog& catalog);
PlanNodePtr ProjectScansPass(const PlanNodePtr& plan, const Catalog& catalog);
PlanNodePtr PushScanFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog);

/// Constant-folds one expression tree (returns the original pointer when
/// nothing folds). A node over literals becomes the literal Expr::Eval
/// computes, unless it fails Expr::ResultType's type check. Exposed for
/// tests.
ExprPtr FoldExpr(const ExprPtr& expr);

}  // namespace wake

#endif  // WAKE_PLAN_OPTIMIZER_H_
