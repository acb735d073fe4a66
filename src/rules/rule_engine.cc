#include "rules/rule_engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "query/parser.h"

namespace prometheus {

namespace {

/// Process-wide rule counters, registered once and cached.
struct RuleMetrics {
  obs::Counter* evaluations;
  obs::Counter* violations;
  obs::Counter* deferred;

  static const RuleMetrics& Get() {
    static const RuleMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      RuleMetrics rm;
      rm.evaluations = reg.GetCounter("rules_evaluated_total",
                                      "Rule condition evaluations");
      rm.violations = reg.GetCounter("rules_violations_total",
                                     "Rule conditions that did not hold");
      rm.deferred = reg.GetCounter(
          "rules_deferred_total",
          "Rule checks queued for commit-time evaluation");
      return rm;
    }();
    return m;
  }
};

}  // namespace

RuleEngine::RuleEngine(Database* db) : db_(db) {
  listener_ = db_->bus().Subscribe(
      [this](const Event& e) { return OnEvent(e); },
      /*priority=*/0);
}

RuleEngine::~RuleEngine() { db_->bus().Unsubscribe(listener_); }

Result<RuleId> RuleEngine::AddRule(const RuleSpec& spec) {
  if (spec.events.empty()) {
    return Status::InvalidArgument("rule '" + spec.name +
                                   "' selects no events");
  }
  auto rule = std::make_unique<CompiledRule>();
  rule->id = next_id_++;
  rule->spec = spec;
  if (!spec.applicability.empty()) {
    auto parsed = pool::ParseExpression(spec.applicability);
    if (!parsed.ok()) {
      return Status::ParseError("rule '" + spec.name + "' applicability: " +
                                parsed.status().message());
    }
    rule->applicability = std::move(parsed).value();
  }
  if (spec.condition.empty()) {
    return Status::InvalidArgument("rule '" + spec.name +
                                   "' has no condition");
  }
  auto parsed = pool::ParseExpression(spec.condition);
  if (!parsed.ok()) {
    return Status::ParseError("rule '" + spec.name + "' condition: " +
                              parsed.status().message());
  }
  rule->condition = std::move(parsed).value();
  RuleId id = rule->id;
  rules_.push_back(std::move(rule));
  return id;
}

Status RuleEngine::RemoveRule(RuleId id) {
  auto it = std::find_if(
      rules_.begin(), rules_.end(),
      [id](const std::unique_ptr<CompiledRule>& r) { return r->id == id; });
  if (it == rules_.end()) {
    return Status::NotFound("no rule #" + std::to_string(id));
  }
  // Drop any deferred checks or composite progress referencing the rule.
  deferred_.erase(std::remove_if(deferred_.begin(), deferred_.end(),
                                 [&](const DeferredCheck& d) {
                                   return d.rule == it->get();
                                 }),
                  deferred_.end());
  composites_.erase(it->get());
  rules_.erase(it);
  return Status::Ok();
}

Status RuleEngine::SetRuleEnabled(RuleId id, bool enabled) {
  for (auto& r : rules_) {
    if (r->id == id) {
      r->enabled = enabled;
      return Status::Ok();
    }
  }
  return Status::NotFound("no rule #" + std::to_string(id));
}

Result<RuleId> RuleEngine::AddInvariant(const std::string& name,
                                        const std::string& class_name,
                                        const std::string& condition,
                                        const std::string& message,
                                        RuleTiming timing, RuleAction action) {
  RuleSpec spec;
  spec.name = name;
  spec.events = {{EventKind::kAfterCreateObject, class_name},
                 {EventKind::kAfterSetAttribute, class_name}};
  spec.condition = condition;
  spec.timing = timing;
  spec.action = action;
  spec.message = message;
  return AddRule(spec);
}

Result<RuleId> RuleEngine::AddDeletePrecondition(const std::string& name,
                                                 const std::string& class_name,
                                                 const std::string& condition,
                                                 const std::string& message) {
  RuleSpec spec;
  spec.name = name;
  spec.events = {{EventKind::kBeforeDeleteObject, class_name}};
  spec.condition = condition;
  spec.message = message;
  return AddRule(spec);
}

Result<RuleId> RuleEngine::AddRelationshipRule(const std::string& name,
                                               const std::string& rel_name,
                                               const std::string& condition,
                                               const std::string& message,
                                               RuleAction action) {
  RuleSpec spec;
  spec.name = name;
  spec.events = {{EventKind::kAfterCreateLink, rel_name},
                 {EventKind::kAfterSetLinkAttribute, rel_name}};
  spec.condition = condition;
  spec.action = action;
  spec.message = message;
  return AddRule(spec);
}

pool::Environment RuleEngine::BindEnvironment(const Event& event) {
  pool::Environment env;
  env["event"] = Value::String(EventKindName(event.kind));
  if (event.subject != kNullOid) env["self"] = Value::Ref(event.subject);
  switch (event.kind) {
    case EventKind::kBeforeCreateLink:
    case EventKind::kAfterCreateLink:
    case EventKind::kBeforeDeleteLink:
    case EventKind::kAfterDeleteLink:
    case EventKind::kBeforeSetLinkAttribute:
    case EventKind::kAfterSetLinkAttribute:
      env["link"] = Value::Ref(event.subject);
      env["source"] = Value::Ref(event.source);
      env["target"] = Value::Ref(event.target);
      env["context"] = event.context == kNullOid ? Value::Null()
                                                 : Value::Ref(event.context);
      break;
    default:
      break;
  }
  if (!event.attribute.empty()) {
    env["attribute"] = Value::String(event.attribute);
    env["old"] = event.old_value;
    env["new"] = event.new_value;
  }
  return env;
}

bool RuleEngine::SelectorMatches(const RuleEventSelector& selector,
                                 const Event& event) const {
  if (selector.kind != event.kind) return false;
  if (selector.type_filter.empty()) return true;
  if (event.type_name == selector.type_filter) return true;
  // Subclass / sub-relationship matching.
  if (const ClassDef* evt_cls = db_->FindClass(event.type_name)) {
    const ClassDef* filter_cls = db_->FindClass(selector.type_filter);
    if (filter_cls != nullptr && evt_cls->IsSubclassOf(filter_cls)) {
      return true;
    }
  }
  if (const RelationshipDef* evt_rel =
          db_->FindRelationship(event.type_name)) {
    const RelationshipDef* filter_rel =
        db_->FindRelationship(selector.type_filter);
    if (filter_rel != nullptr && evt_rel->IsSubrelationshipOf(filter_rel)) {
      return true;
    }
  }
  return false;
}

bool RuleEngine::Matches(const CompiledRule& rule, const Event& event) const {
  for (const RuleEventSelector& sel : rule.spec.events) {
    if (SelectorMatches(sel, event)) return true;
  }
  return false;
}

Status RuleEngine::EvaluateRule(const CompiledRule& rule,
                                const pool::Environment& env) {
  ++evaluations_;
  RuleMetrics::Get().evaluations->Increment();
  if (rule.applicability != nullptr) {
    auto applies = engine_.Eval(*rule.applicability, db_->live_store(), env);
    // A failing applicability check means the rule does not apply.
    if (!applies.ok() || applies.value().type() != ValueType::kBool ||
        !applies.value().AsBool()) {
      return Status::Ok();
    }
  }
  auto held = engine_.Eval(*rule.condition, db_->live_store(), env);
  std::string detail;
  bool ok = false;
  if (held.ok() && held.value().type() == ValueType::kBool) {
    ok = held.value().AsBool();
  } else if (held.ok() && held.value().is_null()) {
    ok = false;  // null condition: fail closed
  } else if (!held.ok()) {
    detail = " (condition error: " + held.status().ToString() + ")";
  }
  if (ok) return Status::Ok();
  ++violations_;
  RuleMetrics::Get().violations->Increment();
  RuleViolation violation;
  violation.rule_name = rule.spec.name;
  violation.message = rule.spec.message + detail;
  auto self = env.find("self");
  if (self != env.end() && self->second.type() == ValueType::kRef) {
    violation.subject = self->second.AsRef();
  }
  switch (rule.spec.action) {
    case RuleAction::kWarn:
      warnings_.push_back(std::move(violation));
      return Status::Ok();
    case RuleAction::kInteractive:
      if (interactive_ && interactive_(violation)) {
        warnings_.push_back(std::move(violation));
        return Status::Ok();
      }
      [[fallthrough]];
    case RuleAction::kAbort:
      return Status::ConstraintViolation("rule '" + rule.spec.name +
                                         "': " + violation.message);
  }
  return Status::Ok();
}

Status RuleEngine::OnEvent(const Event& event) {
  // Compensating events describe rollback, not user intent: no rules.
  if (event.compensating) return Status::Ok();

  if (event.kind == EventKind::kBeforeCommit) {
    // Complete composite rules fire at commit, bound to their last event.
    std::vector<std::pair<const CompiledRule*, pool::Environment>> complete;
    for (auto& [rule, progress] : composites_) {
      bool all = !progress.matched.empty();
      for (bool m : progress.matched) all = all && m;
      if (all && rule->enabled) {
        complete.emplace_back(rule, progress.last_env);
      }
    }
    composites_.clear();
    for (auto& [rule, env] : complete) {
      PROMETHEUS_RETURN_IF_ERROR(EvaluateRule(*rule, env));
    }
    std::vector<DeferredCheck> pending = std::move(deferred_);
    deferred_.clear();
    for (DeferredCheck& check : pending) {
      // Skip checks whose subject died later in the transaction.
      auto self = check.env.find("self");
      if (self != check.env.end() &&
          self->second.type() == ValueType::kRef) {
        Oid oid = self->second.AsRef();
        if (db_->GetObject(oid) == nullptr && db_->GetLink(oid) == nullptr) {
          continue;
        }
      }
      PROMETHEUS_RETURN_IF_ERROR(EvaluateRule(*check.rule, check.env));
    }
    return Status::Ok();
  }
  if (event.kind == EventKind::kAfterCommit ||
      event.kind == EventKind::kAfterAbort) {
    deferred_.clear();
    composites_.clear();
    return Status::Ok();
  }

  for (const auto& rule : rules_) {
    if (!rule->enabled) continue;
    if (rule->spec.composite) {
      // Track per-selector progress; fire when the conjunction completes
      // (immediately outside a transaction, at commit inside one).
      bool advanced = false;
      CompositeProgress& progress = composites_[rule.get()];
      if (progress.matched.size() != rule->spec.events.size()) {
        progress.matched.assign(rule->spec.events.size(), false);
      }
      for (std::size_t i = 0; i < rule->spec.events.size(); ++i) {
        if (SelectorMatches(rule->spec.events[i], event)) {
          progress.matched[i] = true;
          advanced = true;
        }
      }
      if (!advanced) continue;
      progress.last_env = BindEnvironment(event);
      if (!db_->in_transaction()) {
        bool all = true;
        for (bool m : progress.matched) all = all && m;
        if (all) {
          pool::Environment env = progress.last_env;
          composites_.erase(rule.get());
          PROMETHEUS_RETURN_IF_ERROR(EvaluateRule(*rule, env));
        }
      }
      continue;
    }
    if (!Matches(*rule, event)) continue;
    pool::Environment env = BindEnvironment(event);
    if (rule->spec.timing == RuleTiming::kDeferred) {
      if (db_->in_transaction()) {
        deferred_.push_back(DeferredCheck{rule.get(), std::move(env)});
        RuleMetrics::Get().deferred->Increment();
        continue;
      }
      // Outside a transaction deferred rules degenerate to immediate.
    }
    PROMETHEUS_RETURN_IF_ERROR(EvaluateRule(*rule, env));
  }
  return Status::Ok();
}

}  // namespace prometheus
