// Wire messages exchanged by the membership protocols.
//
// One envelope format (version byte, type byte, body) covers all three
// protocols and the proxy layer. A sent payload carries the Message itself
// and is charged the exact size of its encoding, which drives the bandwidth
// evaluation; only the reference codec builds the bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "membership/types.h"
#include "net/packet.h"

namespace tamp::net {
class Network;  // forward: the kind-name installer takes one
}

namespace tamp::membership {

enum class MessageType : uint8_t {
  kHeartbeat = 1,
  kUpdate = 2,
  kBootstrapRequest = 3,
  kBootstrapResponse = 4,
  kSyncRequest = 5,
  kSyncResponse = 6,
  kElection = 7,
  kElectionAnswer = 8,
  kCoordinator = 9,
  kGossip = 10,
  kProxyHeartbeat = 11,
  // 12 is retired: proxy updates travel as kProxyHeartbeat frames.
  kBusy = 13,
  kRefreshDigest = 14,
  kRefreshPull = 15,
  kRefreshDelta = 16,
};

// Wire format versioning. Every frame starts with a tagged version byte;
// the high nibble is a fixed magic so the byte can never collide with a
// bare v1 MessageType (1..12), which was the first byte of the epoch-less
// v1 format. A v1 frame therefore fails the version check outright — it is
// rejected, never misparsed as a v2 frame (and vice versa).
inline constexpr uint8_t kWireVersionTag = 0xA0;   // high-nibble magic
inline constexpr uint8_t kWireVersion = 3;         // current format revision
inline constexpr uint8_t kWireVersionByte = kWireVersionTag | kWireVersion;

// Periodic liveness + node description. The all-to-all protocol uses only
// `entry`; the hierarchical protocol adds group metadata: the sender's role
// on the channel the packet was multicast on, its backup designation, and
// the per-sender heartbeat sequence.
struct HeartbeatMsg {
  RowRef entry;
  uint8_t level = 0;        // tree level of the channel this was sent on
  bool is_leader = false;   // paper: "special flag in its heartbeat packets"
  bool leaving = false;     // goodbye: sender is leaving this channel (alive)
  NodeId backup = kInvalidNode;  // leader's designated backup (if leader)
  // The sender's update-stream sequence number on this channel. Receivers
  // compare it against their per-origin cursor, so an update lost during an
  // otherwise quiet period is noticed within one heartbeat period instead
  // of waiting for the next update to expose the gap.
  uint64_t seq = 0;
  // Highest leadership epoch the sender knows for this channel's group (its
  // own minted epoch when is_leader). A leader-flagged heartbeat with an
  // epoch older than the receiver's is a stale leadership claim.
  Epoch epoch = 0;
};

// One membership change. Joins carry the full entry; leaves carry the
// subject id + incarnation so stale joins can be rejected downstream.
enum class UpdateKind : uint8_t { kJoin = 1, kLeave = 2 };

struct UpdateRecord {
  uint64_t seq = 0;  // position in the origin's update stream
  UpdateKind kind = UpdateKind::kJoin;
  NodeId subject = kInvalidNode;
  Incarnation incarnation = 0;
  // Leadership epoch of the emitting channel at the time the record was
  // stamped into the origin's stream. A piggybacked leave stamped under a
  // superseded epoch is stale replay and must not purge anyone.
  Epoch epoch = 0;
  RowRef entry;  // present for joins, null for leaves
};

// Update message: the origin's newest records, newest first. The tail
// beyond the first record is the paper's piggyback of the previous three
// updates, letting receivers absorb up to three consecutive packet losses.
// `origin_incarnation` scopes the sequence numbers: a restarted origin
// starts a fresh stream, and receivers must not judge it by the old
// incarnation's cursor.
struct UpdateMsg {
  NodeId origin = kInvalidNode;
  Incarnation origin_incarnation = 0;
  // The origin's view of the target channel's leadership epoch at send
  // time; receivers reject the whole message when it is older than theirs.
  Epoch epoch = 0;
  // Every record with seq > window_base that still matters is present in
  // `records` (compaction may drop shadowed intermediates). A receiver
  // whose cursor is >= window_base can apply the carried records directly;
  // a cursor below it means real history was trimmed away and a full-image
  // sync is needed. Without compaction this equals oldest_carried_seq - 1,
  // reproducing the old contiguous-gap rule exactly.
  uint64_t window_base = 0;
  std::vector<UpdateRecord> records;
};

// New node -> group leader: "send me everything you know". The requester
// includes everything *it* knows, because it may itself be a lower-level
// leader bringing a whole subtree with it (paper Bootstrap protocol).
struct BootstrapRequestMsg {
  NodeId requester = kInvalidNode;
  uint8_t level = 0;   // channel the requester is bootstrapping on
  Epoch epoch = 0;     // requester's known leadership epoch for that level
  std::vector<RowRef> known;
};

struct BootstrapResponseMsg {
  NodeId responder = kInvalidNode;
  uint8_t level = 0;   // echoed from the request
  Epoch epoch = 0;     // responder's leadership epoch for that level
  std::vector<RowRef> entries;
  // Scopes the requester's stale-image fence to the responder's life: an
  // image from a restarted responder is fresh even if its old life's
  // leadership was superseded.
  Incarnation responder_incarnation = 0;
};

// Receiver detected an unrecoverable update-stream gap and asks the sender
// for a full image (paper Message Loss Detection). `level` names the
// channel whose stream has the gap, so the response can re-anchor the
// receiver's cursor for exactly that stream.
struct SyncRequestMsg {
  NodeId requester = kInvalidNode;
  uint8_t level = 0;
  uint64_t last_seq_seen = 0;
  Epoch epoch = 0;  // requester's known leadership epoch for `level`
};

struct SyncResponseMsg {
  NodeId responder = kInvalidNode;
  Incarnation responder_incarnation = 0;
  uint8_t level = 0;
  uint64_t stream_seq = 0;  // responder's current update seq on `level`
  // Responder's leadership epoch for `level`: a full image from a node with
  // superseded leadership knowledge must not drive reconciliation removals.
  Epoch epoch = 0;
  std::vector<RowRef> entries;
};

// Admission-control pushback: the responder's full-image serve budget for
// this period is spent, so instead of silently dropping the solicited
// request (which the requester cannot distinguish from loss and would
// retry into the same congestion) it names a deferral. `kind` echoes which
// exchange was refused so the requester re-arms the right pending slot.
enum class BusyKind : uint8_t { kBootstrap = 0, kSync = 1 };

struct BusyMsg {
  NodeId responder = kInvalidNode;
  uint8_t level = 0;
  BusyKind kind = BusyKind::kBootstrap;
  int64_t retry_after = 0;  // ns the requester should wait before resending
};

// Bully election, scoped to one (channel, level) group.
struct ElectionMsg {
  NodeId candidate = kInvalidNode;
  uint8_t level = 0;
};
struct ElectionAnswerMsg {
  NodeId responder = kInvalidNode;
  uint8_t level = 0;
};
struct CoordinatorMsg {
  NodeId leader = kInvalidNode;
  uint8_t level = 0;
  NodeId backup = kInvalidNode;
  // Epoch minted at become_leader(). Epochs are only comparable within one
  // leadership lineage (groups sharing a channel mint independently), so
  // receivers do not compare epochs across arbitrary senders; instead the
  // announcement names the leader it succeeded (`prev`), and receivers
  // record that prev's claims below this epoch are superseded — the fence
  // that stops a resumed stale leader from replaying its old leadership.
  Epoch epoch = 0;
  NodeId prev = kInvalidNode;  // leader this announcement supersedes
  // Incarnations scope the succession to the lives involved: `prev`'s
  // fenced life (a later restart of the same node is a new lineage and not
  // fenced), and the announcer's own (so its claim survives its restarts).
  Incarnation leader_incarnation = 0;
  Incarnation prev_incarnation = 0;
};

// Gossip: the sender's full local view (one record per known node), which is
// what makes gossip traffic O(n * m) per message — the paper's stated reason
// it scales poorly inside a datacenter.
struct GossipRecord {
  RowRef entry;
  uint64_t heartbeat_counter = 0;
};
struct GossipMsg {
  NodeId sender = kInvalidNode;
  std::vector<GossipRecord> records;
};

// --- incremental anti-entropy (v3 digest exchange) ----------------------
//
// A leader's periodic refresh summarizes its view instead of resending it:
// rows are bucketed by hash(subject) and each bucket carries the XOR of its
// rows' content hashes (order-independent, so sender and receiver need not
// iterate identically). A receiver whose buckets all match just touches the
// covered rows' freshness; mismatched buckets cost one unicast pull (row
// summaries only) plus one delta carrying the rows that actually differ.
// The full-image sync path survives solely as the truncation backstop,
// behind the same admission budget as bootstrap.

// Upper bound a decoder accepts for bucket vectors / pull index lists; far
// above the 16 buckets daemons send (protocols::kDigestBuckets) but low
// enough that a forged length byte cannot drive a giant allocation.
inline constexpr size_t kMaxDigestBuckets = 1024;
// Upper bound on a subtree digest's explicit subject list (and on sync
// image row counts elsewhere): generous for 10k-node clusters, small
// enough to bound a forged length's allocation.
inline constexpr size_t kMaxDigestSubjects = size_t{1} << 20;

// A row's digest hash is Row::hash() (row_hash_of_encoding, codec.h):
// FNV-1a over its replicated state only. Local soft state (liveness,
// last_heard) is deliberately excluded — digests compare what refresh would
// have shipped, not local bookkeeping.
// Bucket assignment: mixes the subject id so consecutive node ids spread
// across buckets instead of striping.
size_t digest_bucket_of(NodeId node, size_t bucket_count);

// Multicast digest: the leader's periodic anti-entropy round. `subtree`
// distinguishes the upward subtree summary (level L leader reporting its
// subtree into the L+1 group) from the downward full-view summary.
struct RefreshDigestMsg {
  NodeId origin = kInvalidNode;
  Incarnation origin_incarnation = 0;
  uint8_t level = 0;  // channel the digest is for
  Epoch epoch = 0;    // origin's leadership epoch for that level
  bool subtree = false;
  uint32_t row_count = 0;   // rows summarized in scope
  uint64_t view_hash = 0;   // XOR over all in-scope row hashes
  std::vector<uint64_t> buckets;  // per-bucket XOR of row hashes
  // Subtree digests enumerate their scope explicitly (ascending; wire form
  // is delta-varints, ~1-2 bytes per row). The receiver cannot reconstruct
  // the origin's subtree from local provenance — every digest or refresh
  // from a *higher* level re-roots relayed_by, so "rows relayed by the
  // origin" drifts away from the origin's actual scope and the two sides
  // would hash different row sets forever. Empty for downward full-view
  // digests, whose scope (the whole table) both sides already agree on.
  std::vector<NodeId> subjects;
};

// One row summary inside a pull: enough for the digest origin to decide
// whether its copy differs without shipping the entry itself.
struct DigestRowSummary {
  NodeId subject = kInvalidNode;
  Incarnation incarnation = 0;
  uint64_t row_hash = 0;
};

// Unicast receiver -> digest origin: "these buckets disagree; here is what
// I hold in them". The origin answers with a RefreshDeltaMsg.
struct RefreshPullMsg {
  NodeId requester = kInvalidNode;
  uint8_t level = 0;
  Epoch epoch = 0;     // requester's known leadership epoch for `level`
  bool subtree = false;  // echoed digest scope
  std::vector<uint16_t> bucket_indices;  // mismatched buckets, ascending
  std::vector<DigestRowSummary> rows;    // requester's rows in those buckets
};

// Unicast digest origin -> requester: full entries for rows that differ or
// are missing at the requester, plus the ids whose rows already agree (the
// requester touches those instead of receiving them — the suppressed
// bytes). `truncated` marks a delta clipped at the per-delta row cap
// (protocols::kDigestMaxRowsPerDelta); the requester escalates to a
// budget-gated full-image sync.
struct RefreshDeltaMsg {
  NodeId responder = kInvalidNode;
  Incarnation responder_incarnation = 0;
  uint8_t level = 0;
  Epoch epoch = 0;
  bool truncated = false;
  std::vector<RowRef> entries;
  std::vector<NodeId> confirmed;
};

// --- proxy (cross-datacenter) messages ---------------------------------

// Compact availability summary: per service, per partition, how many live
// providers a datacenter has. "Generally, the summary does not include the
// detailed machine information" (paper Section 3.2).
struct ServiceSummary {
  // service -> partition -> provider count
  std::map<std::string, std::map<int, int>> availability;

  bool operator==(const ServiceSummary&) const = default;
};

// A datacenter's whole summary. The proxy leader sends one periodically
// (paper Heartbeat Message) and one at once whenever the summary changes
// (paper Update Message); receivers treat both alike.
struct ProxyHeartbeatMsg {
  uint16_t dc = 0;
  NodeId sender = kInvalidNode;
  uint64_t seq = 0;
  ServiceSummary summary;
};

using Message =
    std::variant<HeartbeatMsg, UpdateMsg, BootstrapRequestMsg,
                 BootstrapResponseMsg, SyncRequestMsg, SyncResponseMsg,
                 ElectionMsg, ElectionAnswerMsg, CoordinatorMsg, GossipMsg,
                 ProxyHeartbeatMsg, BusyMsg, RefreshDigestMsg, RefreshPullMsg,
                 RefreshDeltaMsg>;

// The payload a sender ships: `message` itself, charged the size of its
// encoding and stamped with its MessageType as the wire kind. `pad_to` (when
// > 0) charges at least that many bytes, as zero padding would — used to
// equalize heartbeat packet sizes across protocols, as in the paper's
// measurements (228-byte average). No bytes are built.
net::Payload encode_message(Message message, size_t pad_to = 0);

// The wire format's reference codec: the bytes encode_message charges for,
// and the decoder that reads them back; nullopt on any malformed input.
// Every row it reads is a new one, built by make_row in canonical form.
std::vector<uint8_t> encode_message_bytes(const Message& message,
                                          size_t pad_to = 0);
std::optional<Message> decode_message(const uint8_t* data, size_t size);

// The message a delivered packet carries: the one its sender encoded,
// shared by every receiver of the payload. Null for a payload carrying
// anything else (a service message, say).
inline std::shared_ptr<const Message> decode_message(
    const net::Packet& packet) {
  return net::carried<Message>(packet.payload);
}

// --- wire kinds (per-kind transport accounting) -------------------------
//
// Kind ids are the MessageType values encode_message stamps; 0 is
// "unknown" (a service message, or a payload no encoder built).
inline constexpr uint8_t kWireKindCount = 17;  // 0 (unknown) + types 1..16

// Metric-name suffix for a wire kind ("heartbeat", "update", ...).
const char* wire_kind_name(uint8_t kind);

// Installs the kind names on a Network (idempotent). Called by every
// component that owns both layers (Cluster, MService).
void install_wire_kind_names(net::Network& net);

}  // namespace tamp::membership
