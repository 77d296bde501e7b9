#include "plan/optimizer.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "plan/props.h"

namespace wake {

namespace {

using NodeMemo = std::unordered_map<const PlanNode*, PlanNodePtr>;

// A copy of `node` over `inputs`.
std::shared_ptr<PlanNode> WithInputs(const PlanNode& node,
                                     std::vector<PlanNodePtr> inputs) {
  auto n = std::make_shared<PlanNode>(node);
  n->inputs = std::move(inputs);
  return n;
}

// The replacement for `node` given its rewritten inputs, or null to keep
// the node.
using NodeRewrite = std::function<PlanNodePtr(
    const PlanNodePtr& node, const std::vector<PlanNodePtr>& inputs)>;

// Rewrites the DAG under `node` bottom-up, visiting each node once, so a
// subplan shared by several parents (§7.3) stays one object. A node that
// `fn` keeps is copied over its rewritten inputs only when one of them
// changed; otherwise the original pointer survives.
PlanNodePtr RewriteBottomUp(const PlanNodePtr& node, const NodeRewrite& fn,
                            NodeMemo* memo) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  std::vector<PlanNodePtr> inputs;
  inputs.reserve(node->inputs.size());
  bool changed = false;
  for (const auto& in : node->inputs) {
    inputs.push_back(RewriteBottomUp(in, fn, memo));
    changed |= inputs.back() != in;
  }
  PlanNodePtr out = fn(node, inputs);
  if (out == nullptr) {
    out = changed ? WithInputs(*node, std::move(inputs)) : node;
  }
  (*memo)[node.get()] = out;
  return out;
}

// Output schemas, each inferred once per pass (InferProps recurses over
// the whole subtree on every call).
class SchemaCache {
 public:
  explicit SchemaCache(const Catalog& catalog) : catalog_(catalog) {}

  const Schema& Of(const PlanNodePtr& node) {
    auto it = schemas_.find(node.get());
    if (it != schemas_.end()) return it->second;
    return schemas_.emplace(node.get(), InferProps(node, catalog_).schema)
        .first->second;
  }

 private:
  const Catalog& catalog_;
  std::unordered_map<const PlanNode*, Schema> schemas_;
};

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

bool IsTrueLiteral(const ExprPtr& e) {
  return IsLiteral(e) && LiteralTruthy(e->literal());
}

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
// Constant folding / trivial-predicate elimination
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

PlanNodePtr FoldConstantsPass(const PlanNodePtr& plan, const Catalog&) {
  NodeMemo memo;
  return RewriteBottomUp(
      plan,
      [](const PlanNodePtr& node,
         const std::vector<PlanNodePtr>& inputs) -> PlanNodePtr {
        if (node->op == PlanOp::kFilter) {
          ExprPtr folded = FoldExpr(node->predicate);
          if (IsTrueLiteral(folded)) return inputs[0];  // drop the filter
          if (folded == node->predicate) return nullptr;
          auto n = WithInputs(*node, inputs);
          n->predicate = std::move(folded);
          return n;
        }
        if (node->op != PlanOp::kMap) return nullptr;
        std::vector<NamedExpr> projections = node->projections;
        bool changed = false;
        for (auto& p : projections) {
          ExprPtr folded = FoldExpr(p.expr);
          changed |= folded != p.expr;
          p.expr = std::move(folded);
        }
        if (!changed) return nullptr;
        auto n = WithInputs(*node, inputs);
        n->projections = std::move(projections);
        return n;
      },
      &memo);
}

// ---------------------------------------------------------------------------
// Filter pushdown
// ---------------------------------------------------------------------------

namespace {

// Appends the conjuncts of `e` as fold-constants will leave them, so a
// short-circuit that exposes an AND or drops a column reference (`(a AND
// b) OR FALSE`) is pushed in this round. A true literal filters nothing
// and is dropped.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  ExprPtr folded = FoldExpr(e);
  if (folded->kind() == ExprKind::kLogic &&
      folded->logic_op() == LogicOp::kAnd) {
    SplitConjuncts(folded->children()[0], out);
    SplitConjuncts(folded->children()[1], out);
  } else if (!IsTrueLiteral(folded)) {
    out->push_back(std::move(folded));
  }
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

bool ReadsNoColumn(const ExprPtr& e) {
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  return cols.empty();
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
      // Only substitute column references and constants: duplicating a
      // computed expression below the map would evaluate it twice, while
      // a constant folds to a literal.
      if (p.expr->kind() == ExprKind::kColumn || ReadsNoColumn(p.expr)) {
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
  explicit PushCtx(const Catalog& catalog) : schemas(catalog) {}
  std::unordered_map<const PlanNode*, size_t> parents;
  NodeMemo memo;  // rewrites of nodes entered with no pending conjuncts
  SchemaCache schemas;
};

bool IsShared(const PushCtx& ctx, const PlanNode* node) {
  auto it = ctx.parents.find(node);
  return it != ctx.parents.end() && it->second > 1;
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
      const Schema& input_schema = ctx->schemas.Of(node->inputs[0]);
      std::vector<ExprPtr> below, stays;
      bool child_shared = IsShared(*ctx, node->inputs[0].get());
      for (const auto& c : pending) {
        ExprPtr rewritten =
            child_shared ? nullptr
                         : RewriteThroughMap(c, *node, input_schema);
        if (rewritten != nullptr) {
          SplitConjuncts(rewritten, &below);
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
        out = WrapFilter(WithInputs(*node, {std::move(new_child)}), stays);
      }
      break;
    }

    case PlanOp::kJoin: {
      const Schema& left_schema = ctx->schemas.Of(node->inputs[0]);
      const Schema& right_schema = ctx->schemas.Of(node->inputs[1]);
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
        out = WrapFilter(
            WithInputs(*node, {std::move(new_left), std::move(new_right)}),
            stays);
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
        out = WrapFilter(WithInputs(*node, {std::move(new_child)}), stays);
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
        out = WrapFilter(WithInputs(*node, {std::move(new_child)}), stays);
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
  PushCtx ctx(catalog);
  ctx.parents = CountParentEdges(plan);
  return Push(plan, {}, &ctx);
}

// ---------------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------------

namespace {

using ColumnSet = std::set<std::string>;

struct PruneCtx {
  explicit PruneCtx(const Catalog& c) : catalog(c), schemas(c) {}
  const Catalog& catalog;
  SchemaCache schemas;
  std::unordered_map<const PlanNode*, ColumnSet> required;
};

// Reverse DFS postorder: every parent precedes its children, so required
// sets accumulate the union over all parents before a node is expanded.
void TopoOrder(const PlanNodePtr& node,
               std::unordered_set<const PlanNode*>* seen,
               std::vector<const PlanNode*>* postorder) {
  if (!seen->insert(node.get()).second) return;
  for (const auto& in : node->inputs) TopoOrder(in, seen, postorder);
  postorder->push_back(node.get());
}

// The projections of a Map that survive pruning under `req`. A parent
// that needs only the row count still needs rows, so then the first
// projection survives. A Derive that passes a required input column
// through keeps no derived column nobody reads.
std::vector<size_t> SurvivingProjections(const PlanNode& node,
                                         const ColumnSet& req) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < node.projections.size(); ++i) {
    if (req.count(node.projections[i].name)) keep.push_back(i);
  }
  if (req.empty() && !node.projections.empty()) keep.push_back(0);
  return keep;
}

// The aggregates of an Aggregate node that survive pruning under `req`.
// Group keys are part of the output schema but live in node.group_by, so
// only agg outputs are candidates. Never empty: an Aggregate must keep at
// least one aggregate (a parent may consume only the group keys), so the
// first is retained.
std::vector<size_t> SurvivingAggs(const PlanNode& node, const ColumnSet& req) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    if (req.count(node.aggs[i].output)) keep.push_back(i);
  }
  if (keep.empty() && !node.aggs.empty()) keep.push_back(0);
  return keep;
}

// Propagates this node's required set into its inputs' required sets.
// Always a union, never an assignment: an input may be shared and already
// carry requirements from another parent.
void PropagateRequired(const PlanNode* node, PruneCtx* ctx) {
  const ColumnSet& req = ctx->required[node];
  auto input_req = [&](size_t i) -> ColumnSet* {
    return &ctx->required[node->inputs[i].get()];
  };
  // Requires the columns of input `i` that this node republishes.
  auto pass_through = [&](size_t i) {
    for (const auto& f : ctx->schemas.Of(node->inputs[i]).fields()) {
      if (req.count(f.name)) input_req(i)->insert(f.name);
    }
  };
  switch (node->op) {
    case PlanOp::kScan:
      break;
    case PlanOp::kMap:
      if (node->append_input) pass_through(0);
      for (size_t i : SurvivingProjections(*node, req)) {
        node->projections[i].expr->CollectColumns(input_req(0));
      }
      break;
    case PlanOp::kFilter:
      input_req(0)->insert(req.begin(), req.end());
      node->predicate->CollectColumns(input_req(0));
      break;
    case PlanOp::kJoin:
      pass_through(0);
      input_req(0)->insert(node->left_keys.begin(), node->left_keys.end());
      // Semi/Anti joins output the left side only.
      if (node->join_type != JoinType::kSemi &&
          node->join_type != JoinType::kAnti) {
        pass_through(1);
      }
      input_req(1)->insert(node->right_keys.begin(), node->right_keys.end());
      break;
    case PlanOp::kAggregate:
      input_req(0)->insert(node->group_by.begin(), node->group_by.end());
      // Only surviving aggregates pin their input columns; the columns
      // feeding dropped aggregates become prunable below this node.
      for (size_t i : SurvivingAggs(*node, req)) {
        const AggSpec& a = node->aggs[i];
        if (!a.input.empty()) input_req(0)->insert(a.input);
      }
      break;
    case PlanOp::kSortLimit:
      input_req(0)->insert(req.begin(), req.end());
      for (const auto& k : node->sort_keys) input_req(0)->insert(k.column);
      break;
  }
}

// True when `projections` republish `input`'s columns under the same
// names and in the same order. Such a Map outputs its input's exact schema
// (types, mutability, keys) in its input's evolve mode, so it is a thread
// and a queue hop that change nothing.
bool RepublishesInput(const std::vector<NamedExpr>& projections,
                      const PlanNodePtr& input, PruneCtx* ctx) {
  for (const auto& p : projections) {
    if (p.expr->kind() != ExprKind::kColumn ||
        p.expr->column_name() != p.name) {
      return false;
    }
  }
  const Schema& schema = ctx->schemas.Of(input);
  if (schema.num_fields() != projections.size()) return false;
  for (size_t i = 0; i < projections.size(); ++i) {
    if (schema.field(i).name != projections[i].name) return false;
  }
  return true;
}

PlanNodePtr PruneNode(const PlanNodePtr& node,
                      const std::vector<PlanNodePtr>& inputs, PruneCtx* ctx) {
  const ColumnSet& req = ctx->required[node.get()];
  switch (node->op) {
    case PlanOp::kScan: {
      const Schema& full = ctx->catalog.GetSchema(node->table);
      std::vector<std::string> want;
      for (const auto& f : full.fields()) {
        if (req.count(f.name)) want.push_back(f.name);
      }
      if (want.empty()) {
        // Parent needs only the row count (e.g. a bare count(*)); keep the
        // narrowest possible scan: one column.
        want.push_back(ctx->schemas.Of(node).field(0).name);
      }
      if (want.size() == full.num_fields()) want.clear();  // all = empty
      if (want == node->columns) return nullptr;
      auto n = WithInputs(*node, {});
      n->columns = std::move(want);
      return n;
    }
    case PlanOp::kMap: {
      // A narrowed Derive becomes an explicit Map: its required
      // pass-through columns (input order), then its surviving derived
      // columns.
      const Schema& in_schema = ctx->schemas.Of(node->inputs[0]);
      std::vector<NamedExpr> projections;
      if (node->append_input) {
        for (const auto& f : in_schema.fields()) {
          if (req.count(f.name)) {
            projections.push_back({f.name, Expr::Col(f.name)});
          }
        }
      }
      for (size_t i : SurvivingProjections(*node, req)) {
        projections.push_back(node->projections[i]);
      }
      // A Derive of nothing republishes its input too.
      if (projections.empty() ||
          RepublishesInput(projections, inputs[0], ctx)) {
        return inputs[0];
      }
      size_t outputs = node->projections.size() +
                       (node->append_input ? in_schema.num_fields() : 0);
      if (projections.size() == outputs) return nullptr;
      auto n = WithInputs(*node, inputs);
      n->projections = std::move(projections);
      n->append_input = false;
      return n;
    }
    case PlanOp::kAggregate: {
      std::vector<size_t> keep = SurvivingAggs(*node, req);
      if (keep.size() == node->aggs.size()) return nullptr;
      auto n = WithInputs(*node, inputs);
      n->aggs.clear();
      for (size_t i : keep) n->aggs.push_back(node->aggs[i]);
      return n;
    }
    default:
      return nullptr;
  }
}

}  // namespace

PlanNodePtr PruneColumnsPass(const PlanNodePtr& plan, const Catalog& catalog) {
  PruneCtx ctx(catalog);
  // The root's output is the query result: everything is required, which
  // also pins the full schema (names, order) of every schema-transparent
  // operator above the first Map/Aggregate.
  for (const auto& f : ctx.schemas.Of(plan).fields()) {
    ctx.required[plan.get()].insert(f.name);
  }
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> postorder;
  TopoOrder(plan, &seen, &postorder);
  for (auto rit = postorder.rbegin(); rit != postorder.rend(); ++rit) {
    PropagateRequired(*rit, &ctx);
  }
  NodeMemo memo;
  return RewriteBottomUp(
      plan,
      [&ctx](const PlanNodePtr& node, const std::vector<PlanNodePtr>& inputs) {
        return PruneNode(node, inputs, &ctx);
      },
      &memo);
}

// ---------------------------------------------------------------------------
// Push-scan-filters pass
// ---------------------------------------------------------------------------

PlanNodePtr PushScanFiltersPass(const PlanNodePtr& plan, const Catalog&) {
  auto parents = CountParentEdges(plan);
  NodeMemo memo;
  return RewriteBottomUp(
      plan,
      [&parents](const PlanNodePtr& node,
                 const std::vector<PlanNodePtr>& inputs) -> PlanNodePtr {
        if (node->op != PlanOp::kFilter || inputs[0]->op != PlanOp::kScan) {
          return nullptr;
        }
        // Only specialize a scan this Filter exclusively owns — a shared
        // scan (§7.3) also feeds parents without the predicate, and
        // skipping blocks for them would drop their rows.
        const PlanNode& scan = *inputs[0];
        if (parents.at(&scan) != 1 ||
            (scan.scan_filter != nullptr &&
             scan.scan_filter->ToString() == node->predicate->ToString())) {
          return nullptr;
        }
        auto new_scan = WithInputs(scan, {});
        new_scan->scan_filter = node->predicate;
        return WithInputs(*node, {std::move(new_scan)});
      },
      &memo);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

PlanNodePtr Optimize(const PlanNodePtr& plan, const Catalog& catalog) {
  CheckPlan(plan != nullptr, "Optimize on empty plan");
  // Type-check the plan as written: folding may drop an operand (`x AND
  // FALSE`), and an ill-typed one must still be rejected.
  InferProps(plan, catalog);
  PlanNodePtr out = PushDownFiltersPass(plan, catalog);
  out = FoldConstantsPass(out, catalog);
  out = PruneColumnsPass(out, catalog);
  out = PushScanFiltersPass(out, catalog);
  // The rewritten plan must still validate (and this surfaces optimizer
  // bugs as loud errors rather than wrong results downstream).
  InferProps(out, catalog);
  return out;
}

Plan Optimize(const Plan& plan, const Catalog& catalog) {
  return Plan(Optimize(plan.node(), catalog));
}

}  // namespace wake
