#include "spe/operator.h"

namespace cosmos {

bool LazyPredicate::Matches(const Tuple& tuple) {
  if (expr_ == nullptr) return true;
  const std::optional<BoundPredicate>& bound =
      bound_.Get(tuple.schema(), [&]() -> std::optional<BoundPredicate> {
        auto b = BoundPredicate::Bind(expr_, *tuple.schema());
        if (!b.ok()) return std::nullopt;
        return std::move(b).value();
      });
  return bound.has_value() && bound->Matches(tuple);  // unbindable: no match
}

void SelectOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  if (predicate_.Matches(tuple)) Emit(tuple);
}

void AdaptOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  const std::vector<int>& mapping = mappings_.Get(tuple.schema(), [&] {
    std::vector<int> m;
    m.reserve(target_->num_attributes());
    for (const auto& attr : target_->attributes()) {
      auto idx = tuple.schema()->IndexOf(attr.name);
      m.push_back(idx.has_value() ? static_cast<int>(*idx) : -1);
    }
    return m;
  });
  std::vector<Value> values;
  values.reserve(mapping.size());
  for (int idx : mapping) {
    if (idx < 0) return;  // required attribute missing: drop
    values.push_back(tuple.value(static_cast<size_t>(idx)));
  }
  Emit(Tuple(target_, std::move(values), tuple.timestamp()));
}

void ProjectOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  Emit(tuple.Project(indices_, output_schema_));
}

}  // namespace cosmos
