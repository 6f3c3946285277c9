#include "stream/tuple.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

Tuple::Tuple(std::shared_ptr<const Schema> schema, std::vector<Value> values,
             Timestamp timestamp)
    : schema_(std::move(schema)),
      values_(std::move(values)),
      timestamp_(timestamp) {
  COSMOS_CHECK(schema_ != nullptr);
  COSMOS_CHECK_EQ(values_.size(), schema_->num_attributes())
      << "tuple width does not match schema " << schema_->stream_name();
}

Result<Value> Tuple::GetAttribute(const std::string& name) const {
  if (schema_ == nullptr) {
    return Status::FailedPrecondition("tuple has no schema");
  }
  auto idx = schema_->IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound(StrFormat("attribute '%s' not in tuple of '%s'",
                                      name.c_str(),
                                      schema_->stream_name().c_str()));
  }
  return values_[*idx];
}

size_t Tuple::SerializedSize() const {
  size_t total = 8;  // timestamp
  for (const auto& v : values_) total += v.SerializedSize();
  return total;
}

Tuple Tuple::Project(const std::vector<size_t>& indices,
                     std::shared_ptr<const Schema> projected_schema) const {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    COSMOS_CHECK_LT(i, values_.size());
    out.push_back(values_[i]);
  }
  return Tuple(std::move(projected_schema), std::move(out), timestamp_);
}

void Tuple::AssignProjection(
    const Tuple& src, const std::vector<size_t>& indices,
    const std::shared_ptr<const Schema>& projected_schema) {
  COSMOS_CHECK(projected_schema != nullptr);
  COSMOS_CHECK_EQ(indices.size(), projected_schema->num_attributes());
  values_.clear();
  for (size_t i : indices) {
    COSMOS_CHECK_LT(i, src.values_.size());
    values_.push_back(src.values_[i]);
  }
  schema_ = projected_schema;
  timestamp_ = src.timestamp_;
}

void Tuple::Clear() {
  schema_.reset();
  values_.clear();
  timestamp_ = kInvalidTimestamp;
}

std::string Tuple::ToString() const {
  std::string out = schema_ ? schema_->stream_name() : "<no schema>";
  out += "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    if (schema_) {
      out += schema_->attribute(i).name;
      out += "=";
    }
    out += values_[i].ToString();
  }
  out += StrFormat("}@%lld", static_cast<long long>(timestamp_));
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (timestamp_ != other.timestamp_) return false;
  if (values_ != other.values_) return false;
  if ((schema_ == nullptr) != (other.schema_ == nullptr)) return false;
  if (schema_ && !(*schema_ == *other.schema_)) return false;
  return true;
}

std::shared_ptr<const Schema> MakeConcatenatedSchema(
    const std::vector<std::pair<const Schema*, std::string>>& parts,
    const std::string& name) {
  std::vector<AttributeDef> attrs;
  for (const auto& [schema, alias] : parts) {
    for (const auto& a : schema->attributes()) {
      AttributeDef def = a;
      def.name = alias + "." + a.name;
      attrs.push_back(std::move(def));
    }
  }
  return std::make_shared<Schema>(name, std::move(attrs));
}

}  // namespace cosmos
