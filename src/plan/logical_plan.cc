#include "plan/logical_plan.h"

#include "common/bloom_filter.h"

namespace seltrig {

LogicalOperator::~LogicalOperator() = default;

void LogicalOperator::CloneCommonInto(LogicalOperator* copy) const {
  copy->schema = schema;
  copy->children.reserve(children.size());
  for (const auto& c : children) copy->children.push_back(c->Clone());
}

AggregateSpec AggregateSpec::Clone() const {
  AggregateSpec copy;
  copy.kind = kind;
  copy.distinct = distinct;
  copy.arg = arg ? arg->Clone() : nullptr;
  copy.name = name;
  copy.result_type = result_type;
  return copy;
}

namespace {

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCountStar:
      return "COUNT(*)";
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
  }
  return "?";
}

}  // namespace

std::string LogicalScan::Describe() const {
  std::string out = "Scan " + table_name;
  if (alias != table_name && !alias.empty()) out += " AS " + alias;
  if (filter != nullptr) out += " filter=" + filter->ToString();
  if (!projection.empty()) {
    out += " cols=[";
    for (size_t i = 0; i < projection.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(projection[i]);
    }
    out += "]";
  }
  return out;
}

PlanPtr LogicalScan::Clone() const {
  auto copy = std::make_shared<LogicalScan>();
  CloneCommonInto(copy.get());
  copy->table_name = table_name;
  copy->alias = alias;
  copy->schema_version = schema_version;
  copy->filter = filter ? filter->Clone() : nullptr;
  copy->virtual_rows = virtual_rows;
  copy->projection = projection;
  return copy;
}

std::string LogicalFilter::Describe() const {
  std::string out = "Filter " + predicate->ToString();
  if (audit_derived) out += " [audit-derived]";
  return out;
}

PlanPtr LogicalFilter::Clone() const {
  auto copy = std::make_shared<LogicalFilter>();
  CloneCommonInto(copy.get());
  copy->predicate = predicate->Clone();
  copy->audit_derived = audit_derived;
  return copy;
}

std::string LogicalProject::Describe() const {
  std::string out = "Project ";
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs[i]->ToString();
  }
  return out;
}

PlanPtr LogicalProject::Clone() const {
  auto copy = std::make_shared<LogicalProject>();
  CloneCommonInto(copy.get());
  copy->exprs.reserve(exprs.size());
  for (const auto& e : exprs) copy->exprs.push_back(e->Clone());
  return copy;
}

std::string LogicalJoin::Describe() const {
  std::string out;
  switch (join_type) {
    case JoinType::kInner:
      out = "Join";
      break;
    case JoinType::kLeft:
      out = "LeftJoin";
      break;
    case JoinType::kCross:
      out = "CrossJoin";
      break;
  }
  if (condition != nullptr) out.append(" ").append(condition->ToString());
  return out;
}

PlanPtr LogicalJoin::Clone() const {
  auto copy = std::make_shared<LogicalJoin>();
  CloneCommonInto(copy.get());
  copy->join_type = join_type;
  copy->condition = condition ? condition->Clone() : nullptr;
  return copy;
}

std::string LogicalAggregate::Describe() const {
  std::string out = "Aggregate group=[";
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs[i]->ToString();
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindName(aggregates[i].kind);
    if (aggregates[i].arg != nullptr) {
      out += "(";
      if (aggregates[i].distinct) out += "DISTINCT ";
      out += aggregates[i].arg->ToString() + ")";
    }
  }
  return out + "]";
}

PlanPtr LogicalAggregate::Clone() const {
  auto copy = std::make_shared<LogicalAggregate>();
  CloneCommonInto(copy.get());
  copy->group_exprs.reserve(group_exprs.size());
  for (const auto& e : group_exprs) copy->group_exprs.push_back(e->Clone());
  copy->aggregates.reserve(aggregates.size());
  for (const auto& a : aggregates) copy->aggregates.push_back(a.Clone());
  return copy;
}

std::string LogicalSort::Describe() const {
  std::string out = "Sort ";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i].expr->ToString();
    out += keys[i].ascending ? " ASC" : " DESC";
  }
  return out;
}

PlanPtr LogicalSort::Clone() const {
  auto copy = std::make_shared<LogicalSort>();
  CloneCommonInto(copy.get());
  copy->keys.reserve(keys.size());
  for (const auto& k : keys) {
    copy->keys.push_back(SortKey{k.expr->Clone(), k.ascending});
  }
  return copy;
}

std::string LogicalLimit::Describe() const {
  return "Limit " + std::to_string(limit) +
         (offset > 0 ? " OFFSET " + std::to_string(offset) : "");
}

PlanPtr LogicalLimit::Clone() const {
  auto copy = std::make_shared<LogicalLimit>();
  CloneCommonInto(copy.get());
  copy->limit = limit;
  copy->offset = offset;
  return copy;
}

std::string LogicalDistinct::Describe() const { return "Distinct"; }

PlanPtr LogicalDistinct::Clone() const {
  auto copy = std::make_shared<LogicalDistinct>();
  CloneCommonInto(copy.get());
  return copy;
}

std::string LogicalValues::Describe() const {
  return "Values (" + std::to_string(rows.size()) + " rows)";
}

PlanPtr LogicalValues::Clone() const {
  auto copy = std::make_shared<LogicalValues>();
  CloneCommonInto(copy.get());
  copy->rows.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<ExprPtr> r;
    r.reserve(row.size());
    for (const auto& e : row) r.push_back(e->Clone());
    copy->rows.push_back(std::move(r));
  }
  return copy;
}

std::string LogicalAudit::Describe() const {
  std::string mode;
  if (bloom != nullptr) {
    mode = " (bloom)";
  } else if (id_view == nullptr) {
    mode = " (predicate mode)";
  }
  return "AuditOp [" + audit_name + "] key=#" + std::to_string(key_column) + mode;
}

PlanPtr LogicalAudit::Clone() const {
  auto copy = std::make_shared<LogicalAudit>();
  CloneCommonInto(copy.get());
  copy->audit_name = audit_name;
  copy->key_column = key_column;
  copy->id_view = id_view;
  copy->fallback_predicate = fallback_predicate ? fallback_predicate->Clone() : nullptr;
  copy->bloom = bloom;
  return copy;
}

namespace {

void PrintNode(const LogicalOperator& node, int depth, bool with_schema,
               std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.Describe());
  if (with_schema) {
    out->append("  [");
    out->append(node.schema.ToString());
    out->append("]");
  }
  out->append("\n");
  for (const auto& c : node.children) {
    PrintNode(*c, depth + 1, with_schema, out);
  }
}

}  // namespace

std::string PlanToString(const LogicalOperator& root, bool with_schema) {
  std::string out;
  PrintNode(root, 0, with_schema, &out);
  return out;
}

void VisitNodeExprs(LogicalOperator& node, const std::function<void(ExprPtr&)>& fn) {
  auto apply = [&fn](ExprPtr& e) {
    if (e != nullptr) fn(e);
  };
  switch (node.kind()) {
    case PlanKind::kScan:
      apply(static_cast<LogicalScan&>(node).filter);
      break;
    case PlanKind::kFilter:
      apply(static_cast<LogicalFilter&>(node).predicate);
      break;
    case PlanKind::kProject:
      for (auto& e : static_cast<LogicalProject&>(node).exprs) apply(e);
      break;
    case PlanKind::kJoin:
      apply(static_cast<LogicalJoin&>(node).condition);
      break;
    case PlanKind::kAggregate: {
      auto& agg = static_cast<LogicalAggregate&>(node);
      for (auto& e : agg.group_exprs) apply(e);
      for (auto& a : agg.aggregates) apply(a.arg);
      break;
    }
    case PlanKind::kSort:
      for (auto& k : static_cast<LogicalSort&>(node).keys) apply(k.expr);
      break;
    case PlanKind::kValues:
      for (auto& row : static_cast<LogicalValues&>(node).rows) {
        for (auto& e : row) apply(e);
      }
      break;
    case PlanKind::kAudit:
      apply(static_cast<LogicalAudit&>(node).fallback_predicate);
      break;
    case PlanKind::kLimit:
    case PlanKind::kDistinct:
      break;
  }
}

void VisitNodeExprs(const LogicalOperator& node,
                    const std::function<void(const Expr&)>& fn) {
  VisitNodeExprs(const_cast<LogicalOperator&>(node), [&fn](ExprPtr& e) {
    fn(*e);
  });
}

namespace {

int ExprEscapeLevel(const Expr& e) {
  int level = 0;
  if (e.kind == ExprKind::kOuterColumnRef) {
    level = e.levels_up;
  } else if (e.kind == ExprKind::kSubquery && e.subquery_plan != nullptr) {
    // References escaping the nested plan by k levels escape this expression's
    // scope by k - 1 levels (the nested plan consumes one level).
    level = MaxEscapeLevel(*e.subquery_plan) - 1;
    if (level < 0) level = 0;
  }
  for (const auto& c : e.children) {
    int cl = ExprEscapeLevel(*c);
    if (cl > level) level = cl;
  }
  return level;
}

}  // namespace

int MaxEscapeLevel(const LogicalOperator& plan) {
  int level = 0;
  VisitNodeExprs(plan, [&level](const Expr& e) {
    int l = ExprEscapeLevel(e);
    if (l > level) level = l;
  });
  for (const auto& c : plan.children) {
    int cl = MaxEscapeLevel(*c);
    if (cl > level) level = cl;
  }
  return level;
}

void VisitScopeColumnRefs(Expr& expr, const std::function<void(int&)>& fn) {
  if (expr.kind == ExprKind::kColumnRef) fn(expr.column_index);
  if (expr.kind == ExprKind::kSubquery && expr.subquery_plan != nullptr) {
    VisitPlanScopeColumnRefs(*expr.subquery_plan, 1, fn);
  }
  for (auto& c : expr.children) VisitScopeColumnRefs(*c, fn);
}

namespace {

void VisitExprOuterRefsAtDepth(Expr& e, int depth, const std::function<void(int&)>& fn) {
  if (e.kind == ExprKind::kOuterColumnRef && e.levels_up == depth) {
    fn(e.column_index);
  }
  if (e.kind == ExprKind::kSubquery && e.subquery_plan != nullptr) {
    VisitPlanScopeColumnRefs(*e.subquery_plan, depth + 1, fn);
  }
  for (auto& c : e.children) VisitExprOuterRefsAtDepth(*c, depth, fn);
}

}  // namespace

void VisitPlanScopeColumnRefs(LogicalOperator& plan, int depth,
                              const std::function<void(int&)>& fn) {
  VisitNodeExprs(plan, [&](ExprPtr& e) { VisitExprOuterRefsAtDepth(*e, depth, fn); });
  for (auto& child : plan.children) VisitPlanScopeColumnRefs(*child, depth, fn);
}

}  // namespace seltrig
