#include "net/buffer_pool.h"

#include <utility>

#include "net/packet.h"

namespace tamp::net {

namespace {

// Deep enough to cover every in-flight payload of a busy sim tick; shallow
// enough that an idle worker thread pins at most a few MB.
constexpr size_t kMaxPooledBuffers = 256;

std::vector<std::vector<uint8_t>>& freelist() {
  thread_local std::vector<std::vector<uint8_t>> list;
  return list;
}

}  // namespace

std::vector<uint8_t> acquire_buffer() {
  auto& list = freelist();
  if (list.empty()) return {};
  std::vector<uint8_t> buffer = std::move(list.back());
  list.pop_back();
  buffer.clear();
  return buffer;
}

void release_buffer(std::vector<uint8_t> buffer) {
  if (buffer.capacity() == 0) return;
  auto& list = freelist();
  if (list.size() >= kMaxPooledBuffers) return;  // excess capacity is freed
  list.push_back(std::move(buffer));
}

PayloadBytes::~PayloadBytes() {
  release_buffer(std::move(static_cast<std::vector<uint8_t>&>(*this)));
}

size_t buffer_pool_depth() { return freelist().size(); }

}  // namespace tamp::net
