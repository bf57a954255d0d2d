#include "federate/planner.h"

#include <algorithm>
#include <cstdio>

#include "federate/query_lang.h"

namespace dls::federate {

namespace {

const char* KindName(PredKind kind) {
  switch (kind) {
    case PredKind::kText:
      return "text";
    case PredKind::kWebspace:
      return "webspace";
    case PredKind::kCobra:
      return "cobra";
  }
  return "?";
}

/// Validates every leaf predicate of `node` against its backend.
Status ValidateNode(const QueryNode& node, const BackendSet& backends) {
  if (node.kind == QueryNode::Kind::kPred) {
    const FederateBackend* backend = backends.ForKind(node.pred.kind);
    if (backend == nullptr) {
      return Status::InvalidArgument(
          std::string("no backend attached for level '") +
          KindName(node.pred.kind) + "'");
    }
    return backend->Accepts(node.pred);
  }
  for (const QueryNode& child : node.children) {
    DLS_RETURN_IF_ERROR(ValidateNode(child, backends));
  }
  return Status::Ok();
}

struct Estimate {
  double selectivity = 1.0;
  double cost = 0.0;
};

/// sel(pred) from the backend; sel(AND) = min of children (an
/// intersection is at most its smallest side); sel(OR) = capped sum
/// (a union is at most the sum). Costs add — every branch runs.
Estimate EstimateNode(const QueryNode& node, const BackendSet& backends) {
  if (node.kind == QueryNode::Kind::kPred) {
    const FederateBackend* backend = backends.ForKind(node.pred.kind);
    Estimate e;
    e.selectivity = backend->EstimateSelectivity(node.pred);
    e.cost = backend->cost_per_candidate();
    return e;
  }
  Estimate e;
  e.selectivity = node.kind == QueryNode::Kind::kAnd ? 1.0 : 0.0;
  for (const QueryNode& child : node.children) {
    const Estimate c = EstimateNode(child, backends);
    if (node.kind == QueryNode::Kind::kAnd) {
      e.selectivity = std::min(e.selectivity, c.selectivity);
    } else {
      e.selectivity += c.selectivity;
    }
    e.cost += c.cost;
  }
  e.selectivity = std::min(1.0, e.selectivity);
  return e;
}

void AppendSel(std::string* out, double sel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[sel=%.3g]", sel);
  *out += buf;
}

}  // namespace

std::string Plan::ToString() const {
  std::string out;
  for (const PlanStep& step : steps) {
    if (!out.empty()) out += " -> ";
    out += federate::ToString(step.node);
    AppendSel(&out, step.selectivity);
  }
  if (has_ranker) {
    if (!out.empty()) out += " -> ";
    out += "rank ";
    out += federate::ToString(ranker);
    if (!steps.empty()) out += " with pushdown";
  } else {
    out += " -> collect docs";
  }
  return out;
}

Result<Plan> BuildPlan(const FederatedQuery& query,
                       const BackendSet& backends) {
  DLS_RETURN_IF_ERROR(ValidateNode(query.root, backends));

  // Flatten the top-level conjunction (a lone predicate or OR group is
  // a one-conjunct query).
  std::vector<const QueryNode*> conjuncts;
  if (query.root.kind == QueryNode::Kind::kAnd) {
    for (const QueryNode& child : query.root.children) {
      conjuncts.push_back(&child);
    }
  } else {
    conjuncts.push_back(&query.root);
  }

  Plan plan;
  for (const QueryNode* conjunct : conjuncts) {
    if (conjunct->kind == QueryNode::Kind::kPred &&
        conjunct->pred.kind == PredKind::kText) {
      // The unique top-level text() ranks; a second one is ambiguous
      // (which score order wins?) and is rejected rather than guessed.
      if (plan.has_ranker) {
        return Status::InvalidArgument(
            "at most one top-level text() predicate may rank; combine the "
            "words or nest the second one under parentheses to use it as a "
            "boolean filter");
      }
      plan.has_ranker = true;
      plan.ranker = conjunct->pred;
      continue;
    }
    PlanStep step;
    step.node = *conjunct;
    const Estimate e = EstimateNode(*conjunct, backends);
    step.selectivity = e.selectivity;
    step.cost = e.cost;
    plan.steps.push_back(std::move(step));
  }

  // Cheapest, most selective first; stable sort keeps source order as
  // the final tie-break so plans are deterministic.
  std::stable_sort(plan.steps.begin(), plan.steps.end(),
                   [](const PlanStep& a, const PlanStep& b) {
                     if (a.selectivity != b.selectivity) {
                       return a.selectivity < b.selectivity;
                     }
                     return a.cost < b.cost;
                   });
  return plan;
}

}  // namespace dls::federate
