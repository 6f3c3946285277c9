#ifndef COSMOS_CBN_CODEC_H_
#define COSMOS_CBN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cbn/datagram.h"
#include "cbn/profile.h"

namespace cosmos {

// Binary wire format for datagrams. The in-process network never needs to
// serialize, but the byte accounting of every experiment is calibrated
// against this codec (Datagram::SerializedSize matches EncodeDatagram's
// output length for the common attribute types), and a real deployment
// would ship exactly these bytes.
//
// Layout (little-endian):
//   u16  stream name length, then the name bytes
//   i64  timestamp
//   u16  attribute count
//   per attribute:
//     u16 name length + name bytes
//     u8  type tag (ValueType)
//     payload: i64 / f64 / (u32 length + bytes) / u8 bool / none for null
//
// Note the self-describing attribute names: a CBN datagram is a set of
// attribute-value pairs (paper §1), routable without out-of-band schemas.
class Encoder {
 public:
  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutI64(int64_t v);
  void PutF64(double v);
  void PutString(const std::string& s);  // u32 length prefix

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& buffer) : buffer_(buffer) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<int64_t> GetI64();
  Result<double> GetF64();
  Result<std::string> GetString();

  bool AtEnd() const { return pos_ == buffer_.size(); }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  const std::vector<uint8_t>& buffer_;
  size_t pos_ = 0;
};

// Serializes `d` (schema attribute names travel inline).
std::vector<uint8_t> EncodeDatagram(const Datagram& d);

// Reconstructs a datagram; the schema is rebuilt from the inline names and
// type tags (no ranges — wire datagrams carry values, not statistics).
Result<Datagram> DecodeDatagram(const std::vector<uint8_t>& bytes);

// ---- profile wire format ----
//
// Subscription profiles are the control-plane payload of the CBN: a real
// deployment propagates exactly these bytes hop-by-hop (the in-process
// network shares Profile objects, but control-message accounting and the
// DST codec fuzzing are calibrated against this format).
//
// Layout (little-endian):
//   u16 stream count; per stream:
//     u32-prefixed name, u16 projection-attribute count, u32-prefixed names
//   u16 filter count; per filter:
//     u32-prefixed stream name
//     u16 constraint count; per constraint (attribute-name sorted):
//       u32-prefixed attribute name
//       f64 interval lo, u8 lo_open, f64 hi, u8 hi_open
//       u8 has_eq [+ value], u16 neq count + values
//     u16 residual count + expression trees
//
// Values are a u8 ValueType tag plus the datagram payload encoding;
// expressions are a u8 ExprKind tag plus kind-specific fields (literals
// carry a value, column refs two strings, comparisons/arithmetic an op tag
// and two subtrees, logicals an op tag and a u16-counted child list).

void EncodeValue(const Value& v, Encoder* enc);
Result<Value> DecodeValue(Decoder* dec);

// `expr` must be non-null. Decoding rejects trees deeper than an internal
// limit so malformed input cannot exhaust the stack.
void EncodeExpression(const ExprPtr& expr, Encoder* enc);
Result<ExprPtr> DecodeExpression(Decoder* dec);

std::vector<uint8_t> EncodeProfile(const Profile& profile);
Result<Profile> DecodeProfile(const std::vector<uint8_t>& bytes);

}  // namespace cosmos

#endif  // COSMOS_CBN_CODEC_H_
