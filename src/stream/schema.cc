#include "stream/schema.h"

#include "common/string_util.h"

namespace cosmos {

Schema::Schema(std::string stream_name, std::vector<AttributeDef> attributes)
    : stream_name_(std::move(stream_name)), attributes_(std::move(attributes)) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    index_.emplace(attributes_[i].name, i);
  }
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<AttributeDef> Schema::FindAttribute(const std::string& name) const {
  auto idx = IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound(StrFormat("attribute '%s' not in stream '%s'",
                                      name.c_str(), stream_name_.c_str()));
  }
  return attributes_[*idx];
}

size_t Schema::EstimatedRowWidth() const {
  size_t total = 0;
  for (const auto& a : attributes_) {
    switch (a.type) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        total += 8;
        break;
      case ValueType::kString:
        total += 4 + 16;  // length prefix + assumed average payload
        break;
      case ValueType::kBool:
      case ValueType::kNull:
        total += 1;
        break;
    }
  }
  return total;
}

std::string Schema::ToString() const {
  std::string out = stream_name_ + "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    out += ":";
    out += ValueTypeToString(attributes_[i].type);
  }
  out += ")";
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (stream_name_ != other.stream_name_) return false;
  if (attributes_.size() != other.attributes_.size()) return false;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name != other.attributes_[i].name) return false;
    if (attributes_[i].type != other.attributes_[i].type) return false;
  }
  return true;
}

}  // namespace cosmos
