// Recycled encode buffers for the packet hot path.
//
// Every protocol message is encoded into a fresh std::vector and shipped as
// a shared immutable Payload; at 10k nodes that is one large allocation per
// send. The pool keeps released payload buffers (capacity intact) on a
// thread-local freelist so steady-state encoding reuses capacity instead of
// hitting the allocator.
//
// The freelist is thread_local on purpose: the chaos runner executes many
// independent sims on worker threads in one process, and a per-thread pool
// needs no locks and cannot leak buffers across sims in a way that affects
// behavior — pooling only recycles capacity, never bytes, so results stay
// byte-identical with or without it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tamp::net {

// A cleared buffer, with capacity retained from a previously released
// payload when one is available.
std::vector<uint8_t> acquire_buffer();

// Return a buffer's capacity to the pool (bounded; excess is freed). Every
// payload's bytes come back here when its last receiver releases it.
void release_buffer(std::vector<uint8_t> buffer);

// Current freelist depth on this thread (test hook).
size_t buffer_pool_depth();

}  // namespace tamp::net
