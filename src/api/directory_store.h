// Emulation of the shared-memory yellow-page segment.
//
// In the paper, the membership daemon writes the directory into a SysV
// shared-memory block keyed by SHM_KEY, and client processes on the same
// machine attach read-only through MClient. In the simulation, "the same
// machine" is a HostId, so the store maps (host, shm_key) to the live
// MembershipTable the daemon maintains. Clients get const access only.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "membership/table.h"
#include "net/ids.h"

namespace tamp::api {

class DirectoryStore {
 public:
  // Publish the daemon's table under (host, shm_key); overwrites any prior
  // segment with the same key (a restarted daemon re-publishes).
  void publish(net::HostId host, int shm_key,
               const membership::MembershipTable* table);

  void withdraw(net::HostId host, int shm_key);

  // nullptr when nothing is published under this key.
  const membership::MembershipTable* attach(net::HostId host,
                                            int shm_key) const;

 private:
  std::map<std::pair<net::HostId, int>, const membership::MembershipTable*>
      segments_;
};

}  // namespace tamp::api
