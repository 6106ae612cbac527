#include "api/mclient.h"

#include <sstream>

#include "util/strings.h"

namespace tamp::api {

MClient::MClient(const DirectoryStore& store, net::HostId self, int shm_key)
    : store_(store), self_(self), shm_key_(shm_key) {}

bool MClient::attached() const {
  return store_.attach(self_, shm_key_) != nullptr;
}

Machine machine_from_entry(const membership::MembershipEntry& entry) {
  const membership::EntryData& data = entry.data();
  Machine machine;
  machine.emplace_back("node", std::to_string(data.node));
  machine.emplace_back("incarnation", std::to_string(data.incarnation));
  machine.emplace_back("cpus", std::to_string(data.machine.cpus));
  machine.emplace_back("memory_mb", std::to_string(data.machine.memory_mb));
  machine.emplace_back("os", data.machine.os);
  for (const auto& service : data.services) {
    std::ostringstream partitions;
    for (size_t i = 0; i < service.partitions.size(); ++i) {
      if (i > 0) partitions << ',';
      partitions << service.partitions[i];
    }
    machine.emplace_back("service." + service.name, partitions.str());
    for (const auto& [key, value] : service.params) {
      machine.emplace_back("service." + service.name + "." + key, value);
    }
  }
  for (const auto& [key, value] : data.values) {
    machine.emplace_back(key, value);
  }
  return machine;
}

int MClient::lookup_service(const std::string& service_regex,
                            const std::string& partition_spec,
                            MachineList* machines) const {
  const membership::MembershipTable* table = store_.attach(self_, shm_key_);
  if (table == nullptr) return -1;
  if (machines != nullptr) machines->clear();

  auto matches = table->lookup_regex(service_regex, partition_spec);
  if (machines != nullptr) {
    for (const auto* entry : matches) {
      machines->push_back(machine_from_entry(*entry));
    }
  }
  return static_cast<int>(matches.size());
}

}  // namespace tamp::api
