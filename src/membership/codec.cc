#include "membership/codec.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace tamp::membership {

template <class IO>
void layout(IO& io, EntryData& entry) {
  io.u32(entry.node);
  io.u64(entry.incarnation);
  io.u16(entry.machine.cpus);
  io.u32(entry.machine.memory_mb);
  io.str(entry.machine.os);
  io.list(entry.services, [&io](ServiceRegistration& service) {
    io.str(service.name);
    io.list(service.partitions, [&io](int& p) { io.varint(p); });
    layout(io, service.params);
  });
  layout(io, entry.values);
}

void encode_entry(WireWriter& w, const EntryData& entry) {
  write_layout(w, entry);
}

std::optional<EntryData> decode_entry(WireReader& r) {
  EntryData entry;
  if (!read_layout(r, entry)) return std::nullopt;
  return entry;
}

uint64_t row_hash_of_encoding(const uint8_t* bytes, size_t size) {
  constexpr size_t kHeadBytes = 12;  // u32 node + u64 incarnation
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  auto mix = [&hash](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  };
  mix(bytes, std::min(size, kHeadBytes));
  mix(bytes, size);
  // A zero hash would make a row invisible to the XOR bucket combine.
  return hash == 0 ? 0x9e3779b97f4a7c15ULL : hash;
}

RowRef make_row(EntryData data) {
  WireWriter w;
  encode_entry(w, data);
  std::vector<uint8_t> bytes = w.take();
  const uint64_t hash = row_hash_of_encoding(bytes.data(), bytes.size());
  return RowRef(new Row(std::move(data), std::move(bytes), hash));
}

size_t encoded_entry_size(const EntryData& entry) {
  WireWriter w;
  encode_entry(w, entry);
  return w.size();
}

EntryData make_representative_entry(NodeId node, Incarnation incarnation) {
  EntryData entry;
  entry.node = node;
  entry.incarnation = incarnation;
  entry.machine = MachineInfo{2, 2048, "linux-2.4.20-smp-i686"};
  ServiceRegistration service;
  service.name = "retriever";
  service.partitions = {static_cast<int>(node % 5),
                        static_cast<int>(node % 5) + 5};
  service.params = {{"Port", "8080"}, {"Proto", "tcp"}};
  entry.services.push_back(std::move(service));
  entry.values = {
      {"hostname", util::strformat("node-%04u.dc.example.com", node)},
      {"rack", util::strformat("rack-%02u", node / 20)},
      {"version", "neptune-2.1.3"},
      {"methods", "search,retrieve,status"},
      {"uptime", "86400"},
  };
  return entry;
}

}  // namespace tamp::membership
