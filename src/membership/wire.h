// Bounds-checked binary serialization.
//
// All protocol messages are encoded with this little-endian format. The
// encoded sizes are what the bandwidth benchmarks charge to the network, so
// encoding is explicit rather than compiler-dependent struct dumps.
//
// Readers never throw: a malformed buffer flips `ok()` to false and all
// subsequent reads return zero values. Decoders check `ok()` once at the
// end — mirroring how a defensive UDP daemon treats untrusted datagrams.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tamp::membership {

class WireWriter {
 public:
  WireWriter() = default;
  // Start from recycled scratch (cleared here) so steady-state encoding
  // reuses payload capacity instead of reallocating per message.
  explicit WireWriter(std::vector<uint8_t> scratch)
      : buffer_(std::move(scratch)) {
    buffer_.clear();
  }

  void u8(uint8_t v) { buffer_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void varint(uint64_t v);
  void str(std::string_view s);
  void bytes(const void* data, size_t size);

  // Append zero padding so the buffer reaches `target` bytes (no-op when
  // already larger). Used to normalize heartbeat sizes across protocols.
  void pad_to(size_t target);

  size_t size() const { return buffer_.size(); }
  std::vector<uint8_t> take() { return std::move(buffer_); }
  const std::vector<uint8_t>& view() const { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
};

class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : WireReader(buffer.data(), buffer.size()) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  uint64_t varint();
  std::string str();
  // Advances past a length-prefixed string without copying it.
  void skip_str();

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // Next unread byte: spans read between two calls can be re-read or
  // compared in place.
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  bool take(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Map/str helpers shared by codecs.
void write_string_map(WireWriter& w, const std::map<std::string, std::string>& m);
std::map<std::string, std::string> read_string_map(WireReader& r);
void skip_string_map(WireReader& r);

}  // namespace tamp::membership
