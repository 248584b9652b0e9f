// Shared machine-layer statistics snapshot.
//
// Historically each LRTS layer kept its own private stats struct with its
// own field set; they are unified here as one snapshot type backed by the
// machine's trace::MetricsRegistry.  Layers bump registry counters on the
// hot path (cached Counter pointers, one increment each) and materialize
// this struct on demand in stats().  Fields a layer does not produce stay
// zero.
#pragma once

#include <cstdint>

namespace ugnirt::lrts {

struct LayerStats {
  // The uGNI protocol core (both UgniLayer and SmpLayer).
  std::uint64_t smsg_sends = 0;        // mailbox sends that left an owner
  std::uint64_t rendezvous_gets = 0;   // GETs posted for INIT_TAG messages
  std::uint64_t credit_stalls = 0;     // sends deferred on mailbox credits
  std::uint64_t registrations = 0;     // MemRegister calls on send paths

  // UgniLayer only (single-PE processes).
  std::uint64_t persistent_puts = 0;   // persistent-channel PUTs
  std::uint64_t pxshm_msgs = 0;        // intra-node shm deliveries

  // SmpLayer only (node-wide processes with a comm thread).
  std::uint64_t intra_node_ptr_msgs = 0;     // zero-copy worker-to-worker
  std::uint64_t comm_thread_sends = 0;
  std::uint64_t comm_thread_busy_defers = 0;
};

}  // namespace ugnirt::lrts
