#include "membership/codec.h"

#include <algorithm>

#include "util/strings.h"

namespace tamp::membership {

void encode_entry(WireWriter& w, const EntryData& entry) {
  w.u32(entry.node);
  w.u64(entry.incarnation);
  w.u16(entry.machine.cpus);
  w.u32(entry.machine.memory_mb);
  w.str(entry.machine.os);
  w.varint(entry.services.size());
  for (const auto& service : entry.services) {
    w.str(service.name);
    w.varint(service.partitions.size());
    for (int partition : service.partitions) {
      w.varint(static_cast<uint64_t>(partition));
    }
    write_string_map(w, service.params);
  }
  write_string_map(w, entry.values);
}

std::optional<EntryData> decode_entry(WireReader& r) {
  EntryData entry;
  entry.node = r.u32();
  entry.incarnation = r.u64();
  entry.machine.cpus = r.u16();
  entry.machine.memory_mb = r.u32();
  entry.machine.os = r.str();
  uint64_t service_count = r.varint();
  for (uint64_t i = 0; i < service_count && r.ok(); ++i) {
    ServiceRegistration service;
    service.name = r.str();
    uint64_t partition_count = r.varint();
    for (uint64_t p = 0; p < partition_count && r.ok(); ++p) {
      service.partitions.push_back(static_cast<int>(r.varint()));
    }
    service.params = read_string_map(r);
    entry.services.push_back(std::move(service));
  }
  entry.values = read_string_map(r);
  if (!r.ok()) return std::nullopt;
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
