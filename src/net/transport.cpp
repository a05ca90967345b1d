#include "net/transport.hpp"

#include "common/assert.hpp"

namespace fastbft::net {

// The zero-copy contract (PR 4): by the time broadcast runs, the payload
// is already materialized as ONE shared buffer, and fanning it out to n
// recipients must not materialize again — each send hands out a refcount
// bump. The per-thread materialization counter makes that a checked
// invariant: sends within the loop alias `payload` or copy nothing, so
// the calling thread's alloc count cannot move. (The process-global
// counter would race with other threads' traffic; the thread-local one
// cannot.)

void Transport::broadcast(SharedBytes payload) {
  [[maybe_unused]] const std::uint64_t allocs_before =
      PayloadStats::thread_allocs();
  for (ProcessId p = 0; p < cluster_size(); ++p) {
    send(p, payload);
  }
  FASTBFT_DASSERT(PayloadStats::thread_allocs() == allocs_before,
                  "broadcast re-materialized a shared payload");
}

void Transport::broadcast_others(SharedBytes payload) {
  [[maybe_unused]] const std::uint64_t allocs_before =
      PayloadStats::thread_allocs();
  for (ProcessId p = 0; p < cluster_size(); ++p) {
    if (p != self()) send(p, payload);
  }
  FASTBFT_DASSERT(PayloadStats::thread_allocs() == allocs_before,
                  "broadcast re-materialized a shared payload");
}

void Transport::send_message(ProcessId to, MessageRef msg) {
  send(to, encode_to_bytes(msg));
}

void Transport::broadcast_message(MessageRef msg) {
  broadcast(encode_to_bytes(msg));
}

}  // namespace fastbft::net
