#include "cbn/datagram.h"

#include <algorithm>

#include "common/check.h"

namespace cosmos {

StreamId StreamIds::Intern(const std::string& name) {
  // Look up first: emplace would build (and free) a node on every hit.
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<StreamId>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  return id;
}

StreamId StreamIds::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoStream : it->second;
}

ProjectionPlan ProjectionPlan::Named(const Schema& input,
                                     const std::vector<std::string>& attrs) {
  if (attrs.empty()) return ProjectionPlan{};
  return Build(input, [&](size_t i) {
    return std::find(attrs.begin(), attrs.end(),
                     input.attribute(i).name) != attrs.end();
  });
}

PayloadPool::~PayloadPool() {
  COSMOS_DCHECK_EQ(live_, 0u) << "a payload outlived its pool";
}

Payload* PayloadPool::Take() {
  Payload* p;
  if (free_.empty()) {
    p = new Payload();
    p->pool_ = this;
  } else {
    p = free_.back().release();
    free_.pop_back();
  }
  ++live_;
  return p;
}

void PayloadPool::Recycle(Payload* p) {
  --live_;
  if (free_.size() >= kMaxFree) {
    delete p;
    return;
  }
  // Drop the schema and values (a retired schema must not stay pinned by
  // the free list) but keep the value storage.
  p->tuple_.Clear();
  free_.emplace_back(p);
}

PayloadRef PayloadPool::Make(Datagram d) {
  Payload* p = Take();
  p->tuple_ = std::move(d.tuple);
  p->header_bytes_ = 2 + d.stream.size();
  p->wire_size_ = p->header_bytes_ + p->tuple_.SerializedSize();
  return PayloadRef(p);
}

PayloadRef PayloadPool::Project(const Payload& src,
                                const ProjectionPlan& plan) {
  COSMOS_DCHECK(!plan.identity()) << "identity projections share the payload";
  Payload* p = Take();
  p->tuple_.AssignProjection(src.tuple_, plan.indices, plan.schema);
  p->header_bytes_ = src.header_bytes_;
  p->wire_size_ = p->header_bytes_ + p->tuple_.SerializedSize();
  return PayloadRef(p);
}

}  // namespace cosmos
