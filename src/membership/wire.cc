#include "membership/wire.h"

#include "membership/codec.h"

namespace tamp::membership {

void WireWriter::little_endian(uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::varint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(v));
}

void WireWriter::str(std::string_view s) {
  varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void WireWriter::bytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

void WireWriter::pad_to(size_t target) {
  if (buffer_.size() < target) buffer_.resize(target, 0);
}

uint64_t WireReader::little_endian(int bytes) {
  if (!take(bytes)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += bytes;
  return v;
}

uint64_t WireReader::varint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!take(1)) return 0;
    uint8_t byte = data_[pos_++];
    if (shift >= 64) {  // overlong encoding
      ok_ = false;
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
  }
}

std::string WireReader::str() {
  uint64_t size = varint();
  if (!take(size)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return s;
}

void WireIn::row(RowRef& row) {
  // decode_entry has failed the reader when it returns nothing.
  std::optional<EntryData> data = decode_entry(r_);
  row = data ? make_row(std::move(*data)) : nullptr;
}

}  // namespace tamp::membership
