// Well-known ports and channels used by the membership daemons.
#pragma once

#include "net/ids.h"

namespace tamp::protocols {

// Multicast data port: heartbeats, updates, election traffic (the paper's
// MCAST_PORT default).
inline constexpr net::Port kDataPort = 10050;
// Unicast control port: bootstrap, sync and election answers (the paper's
// Informer thread "listens on a well known UDP port").
inline constexpr net::Port kControlPort = 10051;
// Gossip protocol unicast port.
inline constexpr net::Port kGossipPort = 10052;
// Proxy WAN port (unicast to a datacenter's virtual IP).
inline constexpr net::Port kProxyWanPort = 10060;
// Port of the local proxy group's relay multicast (remote-DC news fanned
// out to the backup proxies).
inline constexpr net::Port kProxyGroupPort = kProxyWanPort + 1;
// Service request/response ports (Neptune provider/consumer modules).
inline constexpr net::Port kServicePort = 10070;
inline constexpr net::Port kServiceReplyPort = 10071;

// Default base multicast channel (the paper's MCAST_ADDR); the hierarchical
// protocol uses base + level for tree level `level`.
inline constexpr net::ChannelId kBaseChannel = 1000;
// Channel reserved for the all-to-all protocol.
inline constexpr net::ChannelId kAllToAllChannel = 2000;
// Channel reserved for a datacenter's proxy group (paper Section 3.2).
inline constexpr net::ChannelId kProxyChannelBase = 3000;

}  // namespace tamp::protocols
