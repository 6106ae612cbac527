// Bounds-checked binary serialization.
//
// All protocol messages are encoded with this little-endian format. The
// encoded sizes are what the bandwidth benchmarks charge to the network, so
// encoding is explicit rather than compiler-dependent struct dumps.
//
// Each wire type's field order is written once, in its `template <class IO>
// void layout(IO& io, T& value)`: WireOut runs it to encode and WireIn to
// decode. WireOut writes into a sink: a WireWriter builds the bytes (the
// reference codec and its tests), a WireCounter only counts them (what a
// sent payload is charged). Layouts sit beside their codecs (codec.cc,
// messages.cc, service/messages.cc);
// Messages.EveryAlternativeKeepsItsPinnedBytes in tests/messages_test.cc
// pins the bytes they write.
//
// Readers never throw: a malformed buffer flips `ok()` to false and all
// subsequent reads return zero values. Decoders check `ok()` once at the
// end — mirroring how a defensive UDP daemon treats untrusted datagrams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "membership/types.h"

namespace tamp::membership {

class WireWriter {
 public:
  void u8(uint8_t v) { buffer_.push_back(v); }
  void u16(uint16_t v) { little_endian(v, 2); }
  void u32(uint32_t v) { little_endian(v, 4); }
  void u64(uint64_t v) { little_endian(v, 8); }
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
  void little_endian(uint64_t v, int bytes);

  std::vector<uint8_t> buffer_;
};

// WireWriter's write ops, counting the bytes instead of writing them: the
// size of an encoding, without building it.
class WireCounter {
 public:
  void u8(uint8_t) { size_ += 1; }
  void u16(uint16_t) { size_ += 2; }
  void u32(uint32_t) { size_ += 4; }
  void u64(uint64_t) { size_ += 8; }
  void varint(uint64_t v) {
    for (++size_; v >= 0x80; v >>= 7) ++size_;
  }
  void str(std::string_view s) {
    varint(s.size());
    size_ += s.size();
  }
  void bytes(const void*, size_t size) { size_ += size; }
  void pad_to(size_t target) { size_ = std::max(size_, target); }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : WireReader(buffer.data(), buffer.size()) {}

  uint8_t u8() { return static_cast<uint8_t>(little_endian(1)); }
  uint16_t u16() { return static_cast<uint16_t>(little_endian(2)); }
  uint32_t u32() { return static_cast<uint32_t>(little_endian(4)); }
  uint64_t u64() { return little_endian(8); }
  uint64_t varint();
  std::string str();

  // Marks the input malformed: a decoder's acceptance rule failed.
  void fail() { ok_ = false; }

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  uint64_t little_endian(int bytes);
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

// `v` as the wire type `To` of the same width: a layout op's width must be
// its field's.
template <class To, class From>
To same_width(From v) {
  static_assert(sizeof(From) == sizeof(To), "field width differs from op");
  return static_cast<To>(v);
}

// A counted list with no cap of its own: every element takes at least one
// byte, so the input's length bounds what a forged count can allocate.
inline constexpr uint64_t kUncapped = ~uint64_t{0};

// Runs a layout to encode: every op writes the field it names into the
// sink, a WireWriter or a WireCounter.
template <class Sink>
class WireOut {
 public:
  static constexpr bool kReading = false;
  explicit WireOut(Sink& w) : w_(w) {}

  template <class T> void u8(T v) { w_.u8(same_width<uint8_t>(v)); }
  template <class T> void u16(T v) { w_.u16(same_width<uint16_t>(v)); }
  template <class T> void u32(T v) { w_.u32(same_width<uint32_t>(v)); }
  template <class T> void u64(T v) { w_.u64(same_width<uint64_t>(v)); }
  template <class T> void varint(T v) { w_.varint(static_cast<uint64_t>(v)); }
  void str(const std::string& s) { w_.str(s); }
  void flag(bool b) { w_.u8(b ? 1 : 0); }
  void lenient_flag(bool b) { flag(b); }
  // The row's cached canonical bytes (what encode_entry would write).
  void row(const RowRef& row) {
    w_.bytes(row->bytes().data(), row->bytes().size());
  }
  // Zero bytes standing in for a simulated body.
  void padding(size_t n) { w_.pad_to(w_.size() + n); }
  void check(bool) {}

  template <class T, class Fn>
  void list(std::vector<T>& v, Fn each, uint64_t /*cap*/ = kUncapped) {
    w_.varint(v.size());
    for (T& item : v) each(item);
  }
  template <class K, class V, class Fn>
  void map(std::map<K, V>& m, Fn each) {
    w_.varint(m.size());
    for (auto& [key, value] : m) each(key, value);
  }

 private:
  Sink& w_;
};

// A key the wire repeats: a string keeps its first value, a count takes its
// last and a nested map merges key by key. A re-encoded frame shows which
// rule was applied, so each map type keeps the one it has always had.
inline void merge_repeat(std::string&, std::string&) {}
inline void merge_repeat(int& held, int& repeat) { held = repeat; }
template <class K, class V>
void merge_repeat(std::map<K, V>& held, std::map<K, V>& repeat) {
  for (auto& [key, value] : repeat) {
    auto [it, fresh] = held.try_emplace(key, value);
    if (!fresh) merge_repeat(it->second, value);
  }
}

// Runs a layout to decode: every op fills the field it names, and a failed
// check fails the reader. A row is rebuilt from its decoded entry, so a
// non-canonical encoding (duplicate map key, overlong varint) yields the
// canonical row.
class WireIn {
 public:
  static constexpr bool kReading = true;
  explicit WireIn(WireReader& r) : r_(r) {}

  template <class T> void u8(T& v) { v = same_width<T>(r_.u8()); }
  template <class T> void u16(T& v) { v = same_width<T>(r_.u16()); }
  template <class T> void u32(T& v) { v = same_width<T>(r_.u32()); }
  template <class T> void u64(T& v) { v = same_width<T>(r_.u64()); }
  template <class T> void varint(T& v) { v = static_cast<T>(r_.varint()); }
  void str(std::string& s) { s = r_.str(); }
  // Strict: a byte other than 0 or 1 is malformed.
  void flag(bool& b) {
    const uint8_t byte = r_.u8();
    check(byte <= 1);
    b = byte != 0;
  }
  // Any nonzero byte reads as set.
  void lenient_flag(bool& b) { b = r_.u8() != 0; }
  void row(RowRef& row);
  void padding(size_t) {}
  void check(bool accept) { if (!accept) r_.fail(); }

  template <class T, class Fn>
  void list(std::vector<T>& v, Fn each, uint64_t cap = kUncapped) {
    const uint64_t n = r_.varint();
    check(n <= cap);
    for (uint64_t i = 0; i < n && r_.ok(); ++i) each(v.emplace_back());
  }
  template <class K, class V, class Fn>
  void map(std::map<K, V>& m, Fn each) {
    const uint64_t n = r_.varint();
    for (uint64_t i = 0; i < n && r_.ok(); ++i) {
      K key{};
      V value{};
      each(key, value);
      auto [it, fresh] = m.try_emplace(std::move(key), std::move(value));
      if (!fresh) merge_repeat(it->second, value);
    }
  }

 private:
  WireReader& r_;
};

// Encodes `value` with its layout into `w`, a WireWriter or a WireCounter.
// WireOut only reads the fields, so the const_cast never writes through.
template <class Sink, class T>
void write_layout(Sink& w, const T& value) {
  WireOut<Sink> out(w);
  layout(out, const_cast<T&>(value));
}

// Decodes into `value` with its layout; false on malformed input.
template <class T>
bool read_layout(WireReader& r, T& value) {
  WireIn in(r);
  layout(in, value);
  return r.ok();
}

// A variant envelope: the alternative's type byte, `types[index]`, then its
// layout. `types` lists one byte per alternative, in variant order.
template <class Sink, class Variant, class Type, size_t N>
void write_variant(Sink& w, const Variant& message, const Type (&types)[N]) {
  static_assert(N == std::variant_size_v<Variant>);
  w.u8(static_cast<uint8_t>(types[message.index()]));
  std::visit([&w](const auto& m) { write_layout(w, m); }, message);
}

// Reads a type byte and the layout of the alternative it names; nullopt on
// a type byte no alternative has, or on malformed input.
template <class Variant, class Type, size_t N>
std::optional<Variant> read_variant(WireReader& r, const Type (&types)[N]) {
  static_assert(N == std::variant_size_v<Variant>);
  const uint8_t type = r.u8();
  std::optional<Variant> message;
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((static_cast<uint8_t>(types[I]) == type &&
      (message.emplace(std::in_place_index<I>), true)) ||
     ...);
  }(std::make_index_sequence<N>());
  if (!message) return std::nullopt;
  const auto read = [&r](auto& m) { return read_layout(r, m); };
  return std::visit(read, *message) ? message : std::nullopt;
}

using StringMap = std::map<std::string, std::string>;

template <class IO>
void layout(IO& io, StringMap& m) {
  io.map(m, [&io](auto& key, auto& value) {
    io.str(key);
    io.str(value);
  });
}

}  // namespace tamp::membership
