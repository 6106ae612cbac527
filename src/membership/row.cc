#include "membership/row.h"

#include <algorithm>
#include <utility>

#include "membership/codec.h"
#include "net/transport.h"

namespace tamp::membership {

RowRef make_row(EntryData data) {
  WireWriter w;
  encode_entry(w, data);
  std::vector<uint8_t> bytes = w.take();
  const uint64_t hash = row_hash_of_encoding(bytes.data(), bytes.size());
  return RowRef(new Row(std::move(data), std::move(bytes), hash));
}

RowRef RowPool::intern(EntryData data) {
  return insert(make_row(std::move(data)));
}

RowRef RowPool::decode(WireReader& r) {
  const uint8_t* begin = r.cursor();
  skip_entry(r);
  if (!r.ok()) return nullptr;
  const auto size = static_cast<size_t>(r.cursor() - begin);
  // encode_entry leads with the node id, then the incarnation (a braced
  // list evaluates in order).
  WireReader head(begin, size);
  auto it = versions_.find(Key{head.u32(), head.u64()});
  if (it != versions_.end()) {
    if (RowRef held = find(it->second, begin, size)) return held;
  }
  WireReader span(begin, size);
  auto data = decode_entry(span);
  if (!data) return nullptr;  // unreachable: skip_entry accepted the span
  return insert(make_row(std::move(*data)));
}

RowRef RowPool::find(const Versions& versions, const uint8_t* bytes,
                     size_t size) {
  for (const auto& version : versions) {
    RowRef held = version.lock();
    if (held != nullptr && held->bytes().size() == size &&
        std::equal(held->bytes().begin(), held->bytes().end(), bytes)) {
      return held;
    }
  }
  return nullptr;
}

RowRef RowPool::insert(RowRef row) {
  if (size_ >= sweep_at_) sweep();
  Versions& versions = versions_[Key{row->node(), row->incarnation()}];
  if (RowRef held = find(versions, row->bytes().data(), row->bytes().size())) {
    return held;
  }
  for (auto& version : versions) {
    if (version.expired()) {
      version = row;
      return row;
    }
  }
  versions.push_back(row);
  ++size_;
  return row;
}

void RowPool::sweep() {
  size_ = 0;
  for (auto it = versions_.begin(); it != versions_.end();) {
    std::erase_if(it->second, [](const auto& v) { return v.expired(); });
    size_ += it->second.size();
    it = it->second.empty() ? versions_.erase(it) : std::next(it);
  }
  sweep_at_ = std::max(kMinSweep, 2 * size_);
}

RowPool& row_pool(net::Network& net) {
  auto& pool = net.row_pool();
  if (!pool) pool = std::make_shared<RowPool>();
  return *pool;
}

}  // namespace tamp::membership
