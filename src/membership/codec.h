// (De)serialization of EntryData — the per-node record every protocol ships.
#pragma once

#include <optional>

#include "membership/types.h"
#include "membership/wire.h"

namespace tamp::membership {

void encode_entry(WireWriter& w, const EntryData& entry);
std::optional<EntryData> decode_entry(WireReader& r);

// A row's anti-entropy digest hash, from the entry's encoding (`size` >=
// 12): FNV-1a over the node id and incarnation, then the whole encoding,
// which starts with those same 12 bytes. Never zero.
uint64_t row_hash_of_encoding(const uint8_t* bytes, size_t size);

// Encoded size of an entry (used by the analysis module for the paper's
// parameter `m`, the per-node information size).
size_t encoded_entry_size(const EntryData& entry);

// Builds a representative entry whose encoded size is close to the paper's
// measured 228 bytes per node (hostname-sized strings, one service with two
// partitions, a handful of attributes).
EntryData make_representative_entry(NodeId node, Incarnation incarnation = 1);

}  // namespace tamp::membership
