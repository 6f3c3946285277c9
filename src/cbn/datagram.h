#ifndef COSMOS_CBN_DATAGRAM_H_
#define COSMOS_CBN_DATAGRAM_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/tuple.h"

namespace cosmos {

// The unit of transport in the content-based network: one tuple of one
// named stream (paper §3: "each datagram consists of several
// attribute-value pairs" and belongs to exactly one stream). The attribute
// names/types come from the tuple's schema, which may be a projected subset
// of the stream's full schema after early projection.
struct Datagram {
  std::string stream;
  Tuple tuple;

  // Wire size: stream-name header + encoded tuple. This is the quantity the
  // communication-cost model accumulates per link.
  size_t SerializedSize() const {
    return 2 + stream.size() + tuple.SerializedSize();
  }

  std::string ToString() const { return stream + ":" + tuple.ToString(); }
};

// A dense stream id. Inside a network a datagram carries its stream as an
// id, so a hop indexes per-stream state instead of hashing the name.
using StreamId = uint32_t;
inline constexpr StreamId kNoStream = std::numeric_limits<StreamId>::max();

// Dense ids for stream names, handed out in first-seen order and never
// recycled. One instance is shared by a network and its routers.
class StreamIds {
 public:
  StreamId Intern(const std::string& name);
  // kNoStream when `name` was never interned.
  StreamId Find(const std::string& name) const;
  // The name of `id`; the reference stays valid as more names are interned.
  const std::string& Name(StreamId id) const { return names_[id]; }

 private:
  std::unordered_map<std::string, StreamId> ids_;
  std::deque<std::string> names_;
};

// How one input schema projects onto a subset of its columns: the kept
// columns in input order and their schema. A null schema is the identity,
// which forwards a payload as it is.
struct ProjectionPlan {
  std::vector<size_t> indices;
  std::shared_ptr<const Schema> schema;

  bool identity() const { return schema == nullptr; }

  // Keeps the columns of `input` for which `keep(i)` holds; the identity
  // when that is every column.
  template <typename Keep>
  static ProjectionPlan Build(const Schema& input, Keep keep);
  // Keeps the columns of `input` named in `attrs`; empty `attrs` (and names
  // already projected away upstream) keep nothing extra: empty = identity.
  static ProjectionPlan Named(const Schema& input,
                              const std::vector<std::string>& attrs);
};

class PayloadPool;

// One tuple in flight and its wire size, computed once: every hop that
// forwards the datagram unchanged shares it. Immutable while referenced;
// counted without atomics (a network runs on one thread) and recycled by
// the pool that made it.
class Payload {
 public:
  const Tuple& tuple() const { return tuple_; }
  // Datagram::SerializedSize() of the stream name and this tuple.
  size_t wire_size() const { return wire_size_; }

 private:
  friend class PayloadRef;
  friend class PayloadPool;

  Tuple tuple_;
  size_t header_bytes_ = 0;  // 2 + stream name bytes
  size_t wire_size_ = 0;
  uint32_t refs_ = 0;
  PayloadPool* pool_ = nullptr;
};

// A counted reference to a Payload; null when default-constructed.
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(const PayloadRef& other) : p_(other.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  PayloadRef(PayloadRef&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  PayloadRef& operator=(PayloadRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PayloadRef() { Reset(); }

  void Reset();
  const Payload* get() const { return p_; }
  const Payload& operator*() const { return *p_; }
  const Payload* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  friend class PayloadPool;
  explicit PayloadRef(Payload* p) : p_(p) { ++p_->refs_; }

  Payload* p_ = nullptr;
};

// Makes payloads and takes them back when their last reference drops,
// keeping their value storage for the next one: a projection in steady
// state allocates nothing. Every PayloadRef must be gone before the pool.
class PayloadPool {
 public:
  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  ~PayloadPool();

  // The payload of a published datagram (its tuple is moved in).
  PayloadRef Make(Datagram d);
  // `src` projected by `plan`, which must not be the identity.
  PayloadRef Project(const Payload& src, const ProjectionPlan& plan);

  // Payloads still referenced.
  size_t live() const { return live_; }

 private:
  friend class PayloadRef;
  // Recycled payloads kept beyond this are freed.
  static constexpr size_t kMaxFree = 1024;

  Payload* Take();
  void Recycle(Payload* p);

  std::vector<std::unique_ptr<Payload>> free_;
  size_t live_ = 0;
};

inline void PayloadRef::Reset() {
  if (p_ != nullptr && --p_->refs_ == 0) p_->pool_->Recycle(p_);
  p_ = nullptr;
}

template <typename Keep>
ProjectionPlan ProjectionPlan::Build(const Schema& input, Keep keep) {
  ProjectionPlan plan;
  std::vector<AttributeDef> defs;
  for (size_t i = 0; i < input.num_attributes(); ++i) {
    if (!keep(i)) continue;
    plan.indices.push_back(i);
    defs.push_back(input.attribute(i));
  }
  if (plan.indices.size() == input.num_attributes()) {
    plan.indices.clear();  // identity
  } else {
    plan.schema =
        std::make_shared<Schema>(input.stream_name(), std::move(defs));
  }
  return plan;
}

}  // namespace cosmos

#endif  // COSMOS_CBN_DATAGRAM_H_
