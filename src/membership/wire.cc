#include "membership/wire.h"

namespace tamp::membership {

void WireWriter::u16(uint16_t v) {
  buffer_.push_back(static_cast<uint8_t>(v));
  buffer_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
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

uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

uint16_t WireReader::u16() {
  if (!take(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
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

void WireReader::skip_str() {
  uint64_t size = varint();
  if (take(size)) pos_ += size;
}

void write_string_map(WireWriter& w,
                      const std::map<std::string, std::string>& m) {
  w.varint(m.size());
  for (const auto& [key, value] : m) {
    w.str(key);
    w.str(value);
  }
}

std::map<std::string, std::string> read_string_map(WireReader& r) {
  std::map<std::string, std::string> m;
  uint64_t n = r.varint();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    std::string value = r.str();
    m.emplace(std::move(key), std::move(value));
  }
  return m;
}

void skip_string_map(WireReader& r) {
  uint64_t n = r.varint();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    r.skip_str();
    r.skip_str();
  }
}

}  // namespace tamp::membership
