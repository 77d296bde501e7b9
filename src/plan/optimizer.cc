#include "plan/optimizer.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "plan/props.h"

namespace wake {

namespace {

using NodeMemo = std::unordered_map<const PlanNode*, PlanNodePtr>;

std::shared_ptr<PlanNode> CloneNode(const PlanNode& node) {
  return std::make_shared<PlanNode>(node);
}

// Number of parent edges per node. Nodes with more than one parent are
// shared subplans (§7.3): passes must rewrite them context-free so every
// parent keeps pointing at one object.
std::unordered_map<const PlanNode*, size_t> CountParentEdges(
    const PlanNodePtr& root) {
  std::unordered_map<const PlanNode*, size_t> count;
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> stack = {root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const auto& in : node->inputs) {
      ++count[in.get()];
      stack.push_back(in.get());
    }
  }
  return count;
}

bool LiteralTruthy(const Value& v) {
  if (v.is_null) return false;
  return IsIntPhysical(v.type) ? v.i != 0 : v.d != 0.0;
}

bool IsLiteral(const ExprPtr& e) { return e->kind() == ExprKind::kLiteral; }

// True when `e` is guaranteed to evaluate to a non-null kBool column
// (what Expr::Eval's logical operators produce). Bare columns and CASE
// branches may carry other types or nulls, so `TRUE AND x -> x` is only a
// lossless rewrite for these kinds.
bool ProducesNonNullBool(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot:
    case ExprKind::kLike:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      return true;
    default:
      return false;
  }
}

// Rebuilds an expression node of `e`'s kind over new children.
ExprPtr RebuildExpr(const Expr& e, std::vector<ExprPtr> kids) {
  switch (e.kind()) {
    case ExprKind::kArith:
      return Expr::Arith(e.arith_op(), std::move(kids[0]), std::move(kids[1]));
    case ExprKind::kCompare:
      return Expr::Cmp(e.cmp_op(), std::move(kids[0]), std::move(kids[1]));
    case ExprKind::kLogic:
      return e.logic_op() == LogicOp::kAnd
                 ? Expr::And(std::move(kids[0]), std::move(kids[1]))
                 : Expr::Or(std::move(kids[0]), std::move(kids[1]));
    case ExprKind::kNot:
      return Expr::Not(std::move(kids[0]));
    case ExprKind::kLike:
      return Expr::Like(std::move(kids[0]), e.like_pattern());
    case ExprKind::kInList:
      return Expr::In(std::move(kids[0]), e.in_list());
    case ExprKind::kCase:
      return Expr::Case(std::move(kids[0]), std::move(kids[1]),
                        std::move(kids[2]));
    case ExprKind::kCoalesce:
      return Expr::Coalesce(std::move(kids[0]), e.literal());
    case ExprKind::kSubstr:
      return Expr::Substr(std::move(kids[0]), e.substr_start(),
                          e.substr_len());
    case ExprKind::kYear:
      return Expr::Year(std::move(kids[0]));
    case ExprKind::kIsNull:
      return Expr::IsNull(std::move(kids[0]));
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
      break;
  }
  throw Error("RebuildExpr: leaf expression has no children",
              ErrorCategory::kPlan);
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: constant folding / trivial-predicate elimination
// ---------------------------------------------------------------------------

namespace {

// Folds a node whose children are all literals by evaluating it on a
// one-row frame, so a folded literal is whatever Expr::Eval computes. A
// node that fails the type check stays as it is for Prepare to reject.
ExprPtr EvalLiterals(const ExprPtr& expr) {
  static const DataFrame kOneRow = [] {
    DataFrame df;
    Column c(ValueType::kInt64);
    c.AppendInt(0);
    df.AddColumn(Field("row", ValueType::kInt64), std::move(c));
    return df;
  }();
  try {
    expr->ResultType(kOneRow.schema());
  } catch (const Error&) {
    return expr;
  }
  return Expr::Lit(expr->Eval(kOneRow).GetValue(0));
}

// AND/OR with one literal side: logical operators treat null as false
// (Expr::Eval contract), so the literal either decides the result or
// disappears. Dropping the node is only lossless when the surviving side
// already produces exactly what the logic node would (non-null kBool) —
// e.g. `TRUE AND l_orderkey` coerces to bool, bare l_orderkey does not.
ExprPtr ShortCircuit(const ExprPtr& expr) {
  const auto& kids = expr->children();
  bool is_and = expr->logic_op() == LogicOp::kAnd;
  for (size_t i = 0; i < 2; ++i) {
    if (!IsLiteral(kids[i])) continue;
    bool t = LiteralTruthy(kids[i]->literal());
    if (is_and != t) return Expr::Lit(Value::Bool(t));
    if (ProducesNonNullBool(kids[1 - i])) return kids[1 - i];
    break;
  }
  return expr;
}

}  // namespace

ExprPtr FoldExpr(const ExprPtr& expr) {
  if (expr->kind() == ExprKind::kColumn ||
      expr->kind() == ExprKind::kLiteral) {
    return expr;
  }
  std::vector<ExprPtr> kids;
  kids.reserve(expr->children().size());
  bool changed = false;
  bool all_literal = true;
  for (const auto& c : expr->children()) {
    kids.push_back(FoldExpr(c));
    changed |= kids.back() != c;
    all_literal &= IsLiteral(kids.back());
  }
  ExprPtr node = changed ? RebuildExpr(*expr, std::move(kids)) : expr;
  if (all_literal) return EvalLiterals(node);
  if (node->kind() == ExprKind::kLogic) return ShortCircuit(node);
  return node;
}

namespace {

PlanNodePtr FoldNode(const PlanNodePtr& node, NodeMemo* memo) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  std::vector<PlanNodePtr> inputs;
  inputs.reserve(node->inputs.size());
  bool changed = false;
  for (const auto& in : node->inputs) {
    inputs.push_back(FoldNode(in, memo));
    changed |= inputs.back() != in;
  }

  PlanNodePtr out = node;
  switch (node->op) {
    case PlanOp::kFilter: {
      ExprPtr folded = FoldExpr(node->predicate);
      if (IsLiteral(folded) && LiteralTruthy(folded->literal())) {
        out = inputs[0];  // trivially true: drop the filter
        break;
      }
      if (folded != node->predicate || changed) {
        auto n = CloneNode(*node);
        n->inputs = std::move(inputs);
        n->predicate = std::move(folded);
        out = n;
      }
      break;
    }
    case PlanOp::kMap: {
      std::vector<NamedExpr> projections;
      projections.reserve(node->projections.size());
      bool exprs_changed = false;
      for (const auto& p : node->projections) {
        ExprPtr folded = FoldExpr(p.expr);
        exprs_changed |= folded != p.expr;
        projections.push_back({p.name, std::move(folded)});
      }
      if (exprs_changed || changed) {
        auto n = CloneNode(*node);
        n->inputs = std::move(inputs);
        n->projections = std::move(projections);
        out = n;
      }
      break;
    }
    default:
      if (changed) {
        auto n = CloneNode(*node);
        n->inputs = std::move(inputs);
        out = n;
      }
      break;
  }
  (*memo)[node.get()] = out;
  return out;
}

}  // namespace

PlanNodePtr FoldConstantsPass(const PlanNodePtr& plan, const Catalog&) {
  NodeMemo memo;
  return FoldNode(plan, &memo);
}

// ---------------------------------------------------------------------------
// Pass 2: filter pushdown
// ---------------------------------------------------------------------------

namespace {

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kLogic && e->logic_op() == LogicOp::kAnd) {
    SplitConjuncts(e->children()[0], out);
    SplitConjuncts(e->children()[1], out);
    return;
  }
  out->push_back(e);
}

ExprPtr AndChain(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = Expr::And(std::move(result), conjuncts[i]);
  }
  return result;
}

PlanNodePtr WrapFilter(PlanNodePtr node, const std::vector<ExprPtr>& stays) {
  if (stays.empty()) return node;
  auto filter = std::make_shared<PlanNode>();
  filter->op = PlanOp::kFilter;
  filter->label = "filter";
  filter->predicate = AndChain(stays);
  filter->inputs = {std::move(node)};
  return filter;
}

bool AllColumnsIn(const std::set<std::string>& cols, const Schema& schema) {
  for (const auto& c : cols) {
    if (!schema.HasField(c)) return false;
  }
  return true;
}

// Rewrites `e` so every column reference is resolved through the Map's
// projections / pass-through columns. Returns null when some reference is
// not losslessly rewritable (non-trivial projection expression).
ExprPtr RewriteThroughMap(const ExprPtr& e, const PlanNode& map,
                          const Schema& input_schema) {
  if (e->kind() == ExprKind::kLiteral) return e;
  if (e->kind() == ExprKind::kColumn) {
    for (const auto& p : map.projections) {
      if (p.name != e->column_name()) continue;
      // Only substitute trivial projections (column refs / literals):
      // duplicating a computed expression below the map would evaluate it
      // twice.
      if (p.expr->kind() == ExprKind::kColumn ||
          p.expr->kind() == ExprKind::kLiteral) {
        return p.expr;
      }
      return nullptr;
    }
    // Not produced by a projection: usable below only for pass-through
    // (Derive) maps where the input supplies it.
    if (map.append_input && input_schema.HasField(e->column_name())) return e;
    return nullptr;
  }
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  bool changed = false;
  for (const auto& c : e->children()) {
    ExprPtr r = RewriteThroughMap(c, map, input_schema);
    if (r == nullptr) return nullptr;
    changed |= r != c;
    kids.push_back(std::move(r));
  }
  return changed ? RebuildExpr(*e, std::move(kids)) : e;
}

struct PushCtx {
  const Catalog* catalog;
  std::unordered_map<const PlanNode*, size_t> parents;
  NodeMemo memo;  // rewrites of nodes entered with no pending conjuncts
  std::unordered_map<const PlanNode*, Schema> schemas;
};

bool IsShared(const PushCtx& ctx, const PlanNode* node) {
  auto it = ctx.parents.find(node);
  return it != ctx.parents.end() && it->second > 1;
}

// Output schema of `node`, inferred once per pass (InferProps recurses
// over the whole subtree on every call; joins/maps ask for their inputs'
// schemas repeatedly).
const Schema& SchemaOf(const PlanNodePtr& node, PushCtx* ctx) {
  auto it = ctx->schemas.find(node.get());
  if (it != ctx->schemas.end()) return it->second;
  return ctx->schemas
      .emplace(node.get(), InferProps(node, *ctx->catalog).schema)
      .first->second;
}

// Rewrites `node`, absorbing `pending` conjuncts (addressed to this
// node's output) as deep as legal. Callers never pass pending conjuncts
// into shared nodes.
PlanNodePtr Push(const PlanNodePtr& node, std::vector<ExprPtr> pending,
                 PushCtx* ctx) {
  if (pending.empty()) {
    auto it = ctx->memo.find(node.get());
    if (it != ctx->memo.end()) return it->second;
  }
  PlanNodePtr out;
  switch (node->op) {
    case PlanOp::kScan:
      out = WrapFilter(node, pending);
      break;

    case PlanOp::kFilter: {
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(node->predicate, &conjuncts);
      conjuncts.insert(conjuncts.end(), pending.begin(), pending.end());
      const PlanNodePtr& child = node->inputs[0];
      if (IsShared(*ctx, child.get())) {
        PlanNodePtr new_child = Push(child, {}, ctx);
        if (new_child == child && pending.empty()) {
          out = node;
        } else {
          out = WrapFilter(std::move(new_child), conjuncts);
        }
      } else {
        out = Push(child, std::move(conjuncts), ctx);
      }
      break;
    }

    case PlanOp::kMap: {
      const Schema& input_schema = SchemaOf(node->inputs[0], ctx);
      std::vector<ExprPtr> below, stays;
      bool child_shared = IsShared(*ctx, node->inputs[0].get());
      for (const auto& c : pending) {
        ExprPtr rewritten =
            child_shared ? nullptr
                         : RewriteThroughMap(c, *node, input_schema);
        if (rewritten != nullptr) {
          below.push_back(std::move(rewritten));
        } else {
          stays.push_back(c);
        }
      }
      PlanNodePtr new_child =
          child_shared ? Push(node->inputs[0], {}, ctx)
                       : Push(node->inputs[0], std::move(below), ctx);
      if (new_child == node->inputs[0] && stays.empty() && pending.empty()) {
        out = node;
      } else {
        auto n = CloneNode(*node);
        n->inputs = {std::move(new_child)};
        out = WrapFilter(std::move(n), stays);
      }
      break;
    }

    case PlanOp::kJoin: {
      const Schema& left_schema = SchemaOf(node->inputs[0], ctx);
      const Schema& right_schema = SchemaOf(node->inputs[1], ctx);
      bool left_shared = IsShared(*ctx, node->inputs[0].get());
      bool right_shared = IsShared(*ctx, node->inputs[1].get());
      // Right-side pushdown is legal only for inner joins: a Left join
      // must null-pad (not drop) unmatched probe rows, Semi/Anti compare
      // against the full build side, and a Cross join's right side must
      // keep producing exactly one row.
      bool can_push_right =
          node->join_type == JoinType::kInner && !right_shared;
      std::vector<ExprPtr> left_down, right_down, stays;
      for (const auto& c : pending) {
        std::set<std::string> cols;
        c->CollectColumns(&cols);
        if (!left_shared && AllColumnsIn(cols, left_schema)) {
          left_down.push_back(c);
        } else if (can_push_right && AllColumnsIn(cols, right_schema)) {
          right_down.push_back(c);
        } else {
          stays.push_back(c);
        }
      }
      PlanNodePtr new_left = Push(node->inputs[0], std::move(left_down), ctx);
      PlanNodePtr new_right =
          Push(node->inputs[1], std::move(right_down), ctx);
      if (new_left == node->inputs[0] && new_right == node->inputs[1] &&
          pending.empty()) {
        out = node;
      } else {
        auto n = CloneNode(*node);
        n->inputs = {std::move(new_left), std::move(new_right)};
        out = WrapFilter(std::move(n), stays);
      }
      break;
    }

    case PlanOp::kAggregate: {
      bool child_shared = IsShared(*ctx, node->inputs[0].get());
      std::vector<ExprPtr> below, stays;
      for (const auto& c : pending) {
        std::set<std::string> cols;
        c->CollectColumns(&cols);
        // Only group-key predicates commute with aggregation: every row of
        // a group shares its key, so filtering keys below removes exactly
        // the groups filtered above. Aggregate outputs (HAVING) stay.
        bool group_only =
            !child_shared && !cols.empty() &&
            std::all_of(cols.begin(), cols.end(), [&](const std::string& c2) {
              return std::find(node->group_by.begin(), node->group_by.end(),
                               c2) != node->group_by.end();
            });
        if (group_only) {
          below.push_back(c);
        } else {
          stays.push_back(c);
        }
      }
      PlanNodePtr new_child =
          child_shared ? Push(node->inputs[0], {}, ctx)
                       : Push(node->inputs[0], std::move(below), ctx);
      if (new_child == node->inputs[0] && pending.empty()) {
        out = node;
      } else {
        auto n = CloneNode(*node);
        n->inputs = {std::move(new_child)};
        out = WrapFilter(std::move(n), stays);
      }
      break;
    }

    case PlanOp::kSortLimit: {
      bool child_shared = IsShared(*ctx, node->inputs[0].get());
      // Filters commute with a pure sort, but not with a limit (dropping
      // rows before the cut changes which rows survive it).
      bool can_push = !node->limit && !child_shared;
      bool had_pending = !pending.empty();
      std::vector<ExprPtr> below, stays;
      if (can_push) {
        below = std::move(pending);
      } else {
        stays = std::move(pending);
      }
      PlanNodePtr new_child = Push(node->inputs[0], std::move(below), ctx);
      if (new_child == node->inputs[0] && !had_pending) {
        out = node;
      } else {
        auto n = CloneNode(*node);
        n->inputs = {std::move(new_child)};
        out = WrapFilter(std::move(n), stays);
      }
      break;
    }
  }
  if (pending.empty()) ctx->memo[node.get()] = out;
  return out;
}

}  // namespace

PlanNodePtr PushDownFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog) {
  PushCtx ctx;
  ctx.catalog = &catalog;
  ctx.parents = CountParentEdges(plan);
  return Push(plan, {}, &ctx);
}

// ---------------------------------------------------------------------------
// Passes 3 & 4: projection pruning and scan projection
// ---------------------------------------------------------------------------

namespace {

using ColumnSet = std::set<std::string>;

struct PruneCtx {
  const Catalog* catalog;
  bool narrow_maps = false;
  bool project_scans = false;
  bool prune_aggs = false;
  std::unordered_map<const PlanNode*, Schema> schema;
  std::unordered_map<const PlanNode*, ColumnSet> required;
  NodeMemo memo;
};

void CollectSchemas(const PlanNodePtr& node, PruneCtx* ctx) {
  if (ctx->schema.count(node.get())) return;
  for (const auto& in : node->inputs) CollectSchemas(in, ctx);
  ctx->schema[node.get()] = InferProps(node, *ctx->catalog).schema;
}

// Reverse DFS postorder: every parent precedes its children, so required
// sets accumulate the union over all parents before a node is expanded.
void TopoOrder(const PlanNodePtr& node,
               std::unordered_set<const PlanNode*>* seen,
               std::vector<const PlanNode*>* postorder) {
  if (!seen->insert(node.get()).second) return;
  for (const auto& in : node->inputs) TopoOrder(in, seen, postorder);
  postorder->push_back(node.get());
}

// The projections of a Map that survive pruning under `req`. Never empty:
// a parent that needs only the row count keeps the first projection.
std::vector<size_t> SurvivingProjections(const PlanNode& node,
                                         const ColumnSet& req) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < node.projections.size(); ++i) {
    if (req.count(node.projections[i].name)) keep.push_back(i);
  }
  if (keep.empty() && !node.projections.empty()) keep.push_back(0);
  return keep;
}

void AddExprColumns(const ExprPtr& e, ColumnSet* out) {
  e->CollectColumns(out);
}

// The aggregates of an Aggregate node that survive pruning under `req`.
// Group keys are part of the output schema but live in node.group_by, so
// only agg outputs are candidates. Never empty: an Aggregate must keep at
// least one aggregate (a parent may consume only the group keys), so the
// first is retained — mirroring SurvivingProjections.
std::vector<size_t> SurvivingAggs(const PlanNode& node, const ColumnSet& req) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    if (req.count(node.aggs[i].output)) keep.push_back(i);
  }
  if (keep.empty() && !node.aggs.empty()) keep.push_back(0);
  return keep;
}

// Propagates this node's required set into its inputs' required sets.
void PropagateRequired(const PlanNode* node, PruneCtx* ctx) {
  const ColumnSet& req = ctx->required[node];
  std::vector<ColumnSet*> input_req;
  for (const auto& in : node->inputs) {
    input_req.push_back(&ctx->required[in.get()]);
  }
  switch (node->op) {
    case PlanOp::kScan:
      break;
    case PlanOp::kMap: {
      const Schema& in_schema = ctx->schema[node->inputs[0].get()];
      if (node->append_input) {
        if (ctx->narrow_maps) {
          for (const auto& f : in_schema.fields()) {
            if (req.count(f.name)) input_req[0]->insert(f.name);
          }
          for (size_t i : SurvivingProjections(*node, req)) {
            AddExprColumns(node->projections[i].expr, input_req[0]);
          }
        } else {
          // An un-narrowed Derive republishes its whole input.
          for (const auto& f : in_schema.fields()) {
            input_req[0]->insert(f.name);
          }
          for (const auto& p : node->projections) {
            AddExprColumns(p.expr, input_req[0]);
          }
        }
      } else {
        if (ctx->narrow_maps) {
          for (size_t i : SurvivingProjections(*node, req)) {
            AddExprColumns(node->projections[i].expr, input_req[0]);
          }
        } else {
          for (const auto& p : node->projections) {
            AddExprColumns(p.expr, input_req[0]);
          }
        }
      }
      break;
    }
    case PlanOp::kFilter: {
      // Union, never assign: the input may be shared and already carry
      // requirements from another parent.
      input_req[0]->insert(req.begin(), req.end());
      AddExprColumns(node->predicate, input_req[0]);
      break;
    }
    case PlanOp::kJoin: {
      const Schema& left = ctx->schema[node->inputs[0].get()];
      const Schema& right = ctx->schema[node->inputs[1].get()];
      for (const auto& f : left.fields()) {
        if (req.count(f.name)) input_req[0]->insert(f.name);
      }
      for (const auto& k : node->left_keys) input_req[0]->insert(k);
      if (node->join_type == JoinType::kSemi ||
          node->join_type == JoinType::kAnti) {
        for (const auto& k : node->right_keys) input_req[1]->insert(k);
      } else {
        for (const auto& f : right.fields()) {
          if (req.count(f.name)) input_req[1]->insert(f.name);
        }
        for (const auto& k : node->right_keys) input_req[1]->insert(k);
      }
      break;
    }
    case PlanOp::kAggregate: {
      for (const auto& g : node->group_by) input_req[0]->insert(g);
      if (ctx->prune_aggs) {
        // Only surviving aggregates pin their input columns; the columns
        // feeding dropped aggregates become prunable below this node.
        for (size_t i : SurvivingAggs(*node, req)) {
          const AggSpec& a = node->aggs[i];
          if (!a.input.empty()) input_req[0]->insert(a.input);
        }
      } else {
        for (const auto& a : node->aggs) {
          if (!a.input.empty()) input_req[0]->insert(a.input);
        }
      }
      break;
    }
    case PlanOp::kSortLimit: {
      input_req[0]->insert(req.begin(), req.end());
      for (const auto& k : node->sort_keys) input_req[0]->insert(k.column);
      break;
    }
  }
}

PlanNodePtr PruneRewrite(const PlanNodePtr& node, PruneCtx* ctx) {
  auto it = ctx->memo.find(node.get());
  if (it != ctx->memo.end()) return it->second;
  std::vector<PlanNodePtr> inputs;
  inputs.reserve(node->inputs.size());
  bool changed = false;
  for (const auto& in : node->inputs) {
    inputs.push_back(PruneRewrite(in, ctx));
    changed |= inputs.back() != in;
  }
  const ColumnSet& req = ctx->required[node.get()];

  PlanNodePtr out = node;
  switch (node->op) {
    case PlanOp::kScan: {
      if (!ctx->project_scans) break;
      const Schema& current = ctx->schema[node.get()];
      const Schema& full = ctx->catalog->GetSchema(node->table);
      std::vector<std::string> want;
      for (const auto& f : full.fields()) {
        if (current.HasField(f.name) && req.count(f.name)) {
          want.push_back(f.name);
        }
      }
      if (want.empty()) {
        // Parent needs only the row count (e.g. a bare count(*)); keep the
        // narrowest possible scan: one column.
        want.push_back(current.field(0).name);
      }
      if (want.size() == full.num_fields()) want.clear();  // all = empty
      if (want != node->columns) {
        auto n = CloneNode(*node);
        n->columns = std::move(want);
        out = n;
      }
      break;
    }
    case PlanOp::kMap: {
      if (!ctx->narrow_maps) {
        if (changed) {
          auto n = CloneNode(*node);
          n->inputs = std::move(inputs);
          out = n;
        }
        break;
      }
      std::vector<size_t> keep = SurvivingProjections(*node, req);
      if (node->append_input) {
        const Schema& in_schema = ctx->schema[node->inputs[0].get()];
        bool all_inputs_required = true;
        for (const auto& f : in_schema.fields()) {
          all_inputs_required &= req.count(f.name) > 0;
        }
        if (all_inputs_required && keep.size() == node->projections.size()) {
          if (changed) {
            auto n = CloneNode(*node);
            n->inputs = std::move(inputs);
            out = n;
          }
          break;
        }
        // Narrow the Derive into an explicit Map: required pass-through
        // columns (input order) plus the surviving derived columns.
        std::vector<NamedExpr> projections;
        for (const auto& f : in_schema.fields()) {
          if (req.count(f.name)) {
            projections.push_back({f.name, Expr::Col(f.name)});
          }
        }
        for (size_t i : keep) projections.push_back(node->projections[i]);
        if (projections.empty()) {
          const std::string& first = in_schema.field(0).name;
          projections.push_back({first, Expr::Col(first)});
        }
        auto n = CloneNode(*node);
        n->inputs = std::move(inputs);
        n->projections = std::move(projections);
        n->append_input = false;
        out = n;
        break;
      }
      if (keep.size() == node->projections.size()) {
        if (changed) {
          auto n = CloneNode(*node);
          n->inputs = std::move(inputs);
          out = n;
        }
        break;
      }
      std::vector<NamedExpr> projections;
      for (size_t i : keep) projections.push_back(node->projections[i]);
      auto n = CloneNode(*node);
      n->inputs = std::move(inputs);
      n->projections = std::move(projections);
      out = n;
      break;
    }
    case PlanOp::kAggregate: {
      std::vector<size_t> keep;
      if (ctx->prune_aggs) keep = SurvivingAggs(*node, req);
      if (!ctx->prune_aggs || keep.size() == node->aggs.size()) {
        if (changed) {
          auto n = CloneNode(*node);
          n->inputs = std::move(inputs);
          out = n;
        }
        break;
      }
      std::vector<AggSpec> aggs;
      for (size_t i : keep) aggs.push_back(node->aggs[i]);
      auto n = CloneNode(*node);
      n->inputs = std::move(inputs);
      n->aggs = std::move(aggs);
      out = n;
      break;
    }
    default:
      if (changed) {
        auto n = CloneNode(*node);
        n->inputs = std::move(inputs);
        out = n;
      }
      break;
  }
  ctx->memo[node.get()] = out;
  return out;
}

PlanNodePtr PruneImpl(const PlanNodePtr& plan, const Catalog& catalog,
                      bool narrow_maps, bool project_scans,
                      bool prune_aggs = false) {
  PruneCtx ctx;
  ctx.catalog = &catalog;
  ctx.narrow_maps = narrow_maps;
  ctx.project_scans = project_scans;
  ctx.prune_aggs = prune_aggs;
  CollectSchemas(plan, &ctx);

  // The root's output is the query result: everything is required, which
  // also pins the full schema (names, order) of every schema-transparent
  // operator above the first Map/Aggregate.
  for (const auto& f : ctx.schema[plan.get()].fields()) {
    ctx.required[plan.get()].insert(f.name);
  }
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> postorder;
  TopoOrder(plan, &seen, &postorder);
  for (auto rit = postorder.rbegin(); rit != postorder.rend(); ++rit) {
    PropagateRequired(*rit, &ctx);
  }
  return PruneRewrite(plan, &ctx);
}

}  // namespace

PlanNodePtr PruneProjectionsPass(const PlanNodePtr& plan,
                                 const Catalog& catalog) {
  return PruneImpl(plan, catalog, /*narrow_maps=*/true,
                   /*project_scans=*/false);
}

PlanNodePtr PruneAggregatesPass(const PlanNodePtr& plan,
                                const Catalog& catalog) {
  return PruneImpl(plan, catalog, /*narrow_maps=*/false,
                   /*project_scans=*/false, /*prune_aggs=*/true);
}

PlanNodePtr ProjectScansPass(const PlanNodePtr& plan, const Catalog& catalog) {
  return PruneImpl(plan, catalog, /*narrow_maps=*/false,
                   /*project_scans=*/true);
}

// ---------------------------------------------------------------------------
// Push-scan-filters pass
// ---------------------------------------------------------------------------

namespace {

PlanNodePtr PushScanFiltersRewrite(
    const PlanNodePtr& node,
    const std::unordered_map<const PlanNode*, size_t>& parents,
    NodeMemo* memo) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  std::vector<PlanNodePtr> inputs;
  inputs.reserve(node->inputs.size());
  bool changed = false;
  for (const auto& in : node->inputs) {
    inputs.push_back(PushScanFiltersRewrite(in, parents, memo));
    changed |= inputs.back() != in;
  }

  PlanNodePtr out = node;
  // Only specialize a scan this Filter exclusively owns — a shared scan
  // (§7.3) also feeds parents without the predicate, and skipping blocks
  // for them would drop their rows.
  bool push = false;
  if (node->op == PlanOp::kFilter && inputs.size() == 1 &&
      inputs[0]->op == PlanOp::kScan) {
    const PlanNode* scan = inputs[0].get();
    auto pit = parents.find(scan);
    push = pit != parents.end() && pit->second == 1 &&
           (scan->scan_filter == nullptr ||
            scan->scan_filter->ToString() != node->predicate->ToString());
  }
  if (push) {
    auto new_scan = CloneNode(*inputs[0]);
    new_scan->scan_filter = node->predicate;
    auto n = CloneNode(*node);
    n->inputs = {std::move(new_scan)};
    out = n;
  } else if (changed) {
    auto n = CloneNode(*node);
    n->inputs = std::move(inputs);
    out = n;
  }
  memo->emplace(node.get(), out);
  return out;
}

}  // namespace

PlanNodePtr PushScanFiltersPass(const PlanNodePtr& plan,
                                const Catalog& catalog) {
  (void)catalog;
  auto parents = CountParentEdges(plan);
  NodeMemo memo;
  return PushScanFiltersRewrite(plan, parents, &memo);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

const std::vector<OptimizerPass>& DefaultPasses() {
  static const std::vector<OptimizerPass> kPasses = {
      {"fold-constants", FoldConstantsPass},
      {"push-filters", PushDownFiltersPass},
      {"prune-projections", PruneProjectionsPass},
      {"prune-aggregates", PruneAggregatesPass},
      {"project-scans", ProjectScansPass},
      {"push-scan-filters", PushScanFiltersPass},
  };
  return kPasses;
}

PlanNodePtr Optimize(const PlanNodePtr& plan, const Catalog& catalog) {
  CheckPlan(plan != nullptr, "Optimize on empty plan");
  // Type-check the plan as written: folding may drop an operand (`x AND
  // FALSE`), and an ill-typed one must still be rejected.
  InferProps(plan, catalog);
  constexpr int kMaxRounds = 8;
  PlanNodePtr current = plan;
  std::string before = PlanToString(current);
  for (int round = 0; round < kMaxRounds; ++round) {
    for (const auto& pass : DefaultPasses()) {
      current = pass.run(current, catalog);
    }
    std::string after = PlanToString(current);
    if (after == before) break;
    before = std::move(after);
  }
  // The rewritten plan must still validate (and this surfaces optimizer
  // bugs as loud errors rather than wrong results downstream).
  InferProps(current, catalog);
  return current;
}

Plan Optimize(const Plan& plan, const Catalog& catalog) {
  return Plan(Optimize(plan.node(), catalog));
}

}  // namespace wake
