// Calibrated cost model for the simulated Gemini interconnect and the
// software stacked on it.
//
// Every constant is an anchor taken from the paper's measurements on Hopper
// (Cray XE6) or from the Gemini hardware description [Alverson et al.,
// HOTI'10], and can be overridden for ablations from a config file or a
// UGNIRT_GEMINI_* variable through MachineConfig::for_each_knob:
//
//   * 8-byte one-way latency: ~1.2 us pure uGNI, ~1.6 us uGNI-CHARM++,
//     ~3 us MPI-based CHARM++ (paper Fig 1 / Fig 9a).
//   * SMSG maximum message size 1024 bytes, shrinking as the job grows
//     (paper §III-C).
//   * FMA->BTE crossover between 2 KiB and 8 KiB (paper §II-A).
//   * Peak point-to-point bandwidth ~6 GB/s (paper Fig 9b).
//   * Registration/malloc overheads large enough that the no-pool runtime
//     loses to MPI for large messages (paper Fig 6) and the memory pool
//     halves large-message latency (paper Fig 8b).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::gemini {

struct MachineConfig {
  // ---- Topology ----
  int cores_per_node = 24;       // XE6: 2x 12-core Magny-Cours (paper §V)

  // ---- Router / links ----
  SimTime hop_ns = 105;          // per-router traversal
  double link_bw = 9.4;          // bytes/ns (GB/s) per directional link

  // ---- SMSG (small-message mailboxes over FMA) ----
  SimTime smsg_cpu_send_ns = 180;    // sender CPU: build header + FMA store
  SimTime smsg_wire_startup_ns = 620;  // NIC pipeline + SSID/ORB tracking
  double smsg_per_byte_ns = 0.85;    // payload streaming cost per byte
  SimTime smsg_cpu_recv_ns = 160;    // CQ event decode + mailbox bookkeeping
  std::uint32_t smsg_max_bytes = 1024;   // default per-message cap (§III-C)
  std::uint32_t smsg_mailbox_credits = 8;  // in-flight messages per channel

  // ---- Completion queues ----
  std::uint32_t cq_entries = 1u << 16;  // RX/TX CQ depth per NIC

  // ---- FMA (CPU-driven window stores/loads) ----
  SimTime fma_put_startup_ns = 1000;
  SimTime fma_get_startup_ns = 1450;
  double fma_bw = 2.5;           // bytes/ns; CPU-limited pipeline
  SimTime fma_desc_ns = 150;     // CPU cost of writing the FMA descriptor

  // ---- BTE (offloaded DMA engine) ----
  SimTime bte_put_startup_ns = 2500;
  SimTime bte_get_startup_ns = 3000;
  double bte_bw = 5.9;           // bytes/ns; NIC DMA at near link rate
  SimTime bte_desc_ns = 250;     // CPU cost of posting the RDMA descriptor

  // ---- Memory operations (the terms of the paper's Equation 1) ----
  SimTime malloc_base_ns = 500;
  SimTime malloc_per_page_ns = 40;
  SimTime free_base_ns = 300;
  SimTime mem_reg_base_ns = 700;
  SimTime mem_reg_per_page_ns = 260;
  SimTime mem_dereg_base_ns = 500;
  SimTime mem_dereg_per_page_ns = 30;
  std::uint32_t page_bytes = 4096;

  // ---- CPU-side data movement ----
  SimTime memcpy_base_ns = 80;
  double memcpy_bw = 4.0;        // bytes/ns; single-stream on Magny-Cours

  // ---- Completion queues ----
  SimTime cq_poll_ns = 60;       // one GNI_CqGetEvent poll
  SimTime cq_event_ns = 90;      // dequeue + decode a present event

  // ---- Memory pool (uGNI-CHARM++ optimization, §IV-B) ----
  SimTime mempool_alloc_ns = 120;
  SimTime mempool_free_ns = 90;
  std::uint64_t mempool_init_bytes = 16 * 1024;

  // ---- CHARM++ runtime layer ----
  SimTime charm_send_overhead_ns = 220;   // envelope + scheduler enqueue
  SimTime charm_recv_overhead_ns = 250;   // handler dispatch + bookkeeping
  SimTime sched_loop_ns = 50;             // one empty scheduler iteration
  /// Per sub-message delivery cost when unpacking an aggregated batch in
  /// place (envelope check + handler lookup); the full recv overhead is
  /// paid once per batch, not once per item — that amortization is the
  /// whole point of TRAM-style coalescing.
  SimTime agg_item_overhead_ns = 60;
  std::uint32_t rdma_threshold = 4096;    // FMA GET below, BTE GET at/above

  // ---- MPI library model (Cray MPI over the same uGNI) ----
  SimTime mpi_call_overhead_ns = 150;     // per MPI_* entry (matching, argchk)
  SimTime mpi_match_ns = 120;             // queue search per probe/recv
  SimTime mpi_iprobe_ns = 280;
  /// Extra MPI_Iprobe cost per unexpected-queue entry — the "prolonged
  /// MPI_Iprobe" the paper blames in §I: probing slows down as unexpected
  /// small messages pile up, which is what throttles the MPI-based
  /// runtime in fine-grain task floods (Fig 11/12).
  SimTime mpi_iprobe_scan_ns = 40;
  /// Second prolonged-Iprobe component: the library sweeps per-connection
  /// mailbox state, so probe cost grows with the number of established
  /// peers.  The first `mpi_iprobe_conn_free` connections are covered by
  /// the base cost (batched CQ polling); each one beyond that adds
  /// `mpi_iprobe_conn_ns`.  This is what makes the MPI-based runtime
  /// unable to exploit fine-grain tasks at scale (paper Fig 12b).
  SimTime mpi_iprobe_conn_ns = 300;
  std::uint32_t mpi_iprobe_conn_free = 128;
  std::uint32_t mpi_eager_threshold = 8192;
  /// LMT switch inside the MPI library: rendezvous transfers below this use
  /// FMA GET on the receiving rank's CPU; at/above it they use the
  /// (node-shared) BTE.  Mirrors Cray MPI's RDMA threshold default.
  std::uint32_t mpi_rdma_threshold = 65536;
  std::uint32_t udreg_capacity = 512;     // registration-cache entries
  SimTime udreg_hit_ns = 60;
  // Intra-node MPI: user-space double copy below the XPMEM threshold,
  // kernel-assisted single copy (with its synchronization overhead, §IV-C)
  // at or above it.
  std::uint32_t mpi_xpmem_threshold = 16384;
  SimTime mpi_xpmem_overhead_ns = 2800;
  SimTime mpi_shm_notify_ns = 200;
  /// SMSG mailbox credits for the MPI library's internal channels (Cray
  /// MPI runs deeper mailboxes than the bare uGNI layer's
  /// smsg_mailbox_credits; tune both in one place for credit-pressure
  /// experiments).
  std::uint32_t mpi_mailbox_credits = 16;

  // ---- Intra-node shared memory (pxshm, §IV-C) ----
  SimTime pxshm_notify_ns = 250;          // fence + flag + queue bookkeeping
  SimTime pxshm_poll_ns = 120;            // receiver-side queue check

  /// Effective SMSG per-message cap for a job of `pes` PEs: Cray's runtime
  /// shrinks mailboxes as the job grows to bound per-pair memory (§III-C).
  std::uint32_t smsg_max_for_job(int pes) const {
    if (pes <= 1024) return smsg_max_bytes;
    if (pes <= 4096) return smsg_max_bytes / 2;
    if (pes <= 16384) return smsg_max_bytes / 4;
    return smsg_max_bytes / 8;
  }

  /// Time to register `bytes` of memory with the NIC.
  SimTime reg_cost(std::uint64_t bytes) const {
    return mem_reg_base_ns +
           static_cast<SimTime>(pages(bytes)) * mem_reg_per_page_ns;
  }

  SimTime dereg_cost(std::uint64_t bytes) const {
    return mem_dereg_base_ns +
           static_cast<SimTime>(pages(bytes)) * mem_dereg_per_page_ns;
  }

  SimTime malloc_cost(std::uint64_t bytes) const {
    return malloc_base_ns +
           static_cast<SimTime>(pages(bytes)) * malloc_per_page_ns;
  }

  SimTime memcpy_cost(std::uint64_t bytes) const {
    return memcpy_base_ns + transfer_time(bytes, memcpy_bw);
  }

  std::uint64_t pages(std::uint64_t bytes) const {
    return (bytes + page_bytes - 1) / page_bytes;
  }

  /// Every knob, keyed "gemini.<field>" (UGNIRT_GEMINI_<FIELD>); read,
  /// written and env-overridden by the generic helpers in util/config.hpp.
  template <class Self, class F>
  static void for_each_knob(Self& m, F&& f) {
    f("gemini.cores_per_node", m.cores_per_node);
    f("gemini.hop_ns", m.hop_ns);
    f("gemini.link_bw", m.link_bw);
    f("gemini.smsg_cpu_send_ns", m.smsg_cpu_send_ns);
    f("gemini.smsg_wire_startup_ns", m.smsg_wire_startup_ns);
    f("gemini.smsg_per_byte_ns", m.smsg_per_byte_ns);
    f("gemini.smsg_cpu_recv_ns", m.smsg_cpu_recv_ns);
    f("gemini.smsg_max_bytes", m.smsg_max_bytes);
    f("gemini.smsg_mailbox_credits", m.smsg_mailbox_credits);
    f("gemini.cq_entries", m.cq_entries);
    f("gemini.fma_put_startup_ns", m.fma_put_startup_ns);
    f("gemini.fma_get_startup_ns", m.fma_get_startup_ns);
    f("gemini.fma_bw", m.fma_bw);
    f("gemini.fma_desc_ns", m.fma_desc_ns);
    f("gemini.bte_put_startup_ns", m.bte_put_startup_ns);
    f("gemini.bte_get_startup_ns", m.bte_get_startup_ns);
    f("gemini.bte_bw", m.bte_bw);
    f("gemini.bte_desc_ns", m.bte_desc_ns);
    f("gemini.malloc_base_ns", m.malloc_base_ns);
    f("gemini.malloc_per_page_ns", m.malloc_per_page_ns);
    f("gemini.free_base_ns", m.free_base_ns);
    f("gemini.mem_reg_base_ns", m.mem_reg_base_ns);
    f("gemini.mem_reg_per_page_ns", m.mem_reg_per_page_ns);
    f("gemini.mem_dereg_base_ns", m.mem_dereg_base_ns);
    f("gemini.mem_dereg_per_page_ns", m.mem_dereg_per_page_ns);
    f("gemini.page_bytes", m.page_bytes);
    f("gemini.memcpy_base_ns", m.memcpy_base_ns);
    f("gemini.memcpy_bw", m.memcpy_bw);
    f("gemini.cq_poll_ns", m.cq_poll_ns);
    f("gemini.cq_event_ns", m.cq_event_ns);
    f("gemini.mempool_alloc_ns", m.mempool_alloc_ns);
    f("gemini.mempool_free_ns", m.mempool_free_ns);
    f("gemini.mempool_init_bytes", m.mempool_init_bytes);
    f("gemini.charm_send_overhead_ns", m.charm_send_overhead_ns);
    f("gemini.charm_recv_overhead_ns", m.charm_recv_overhead_ns);
    f("gemini.sched_loop_ns", m.sched_loop_ns);
    f("gemini.agg_item_overhead_ns", m.agg_item_overhead_ns);
    f("gemini.rdma_threshold", m.rdma_threshold);
    f("gemini.mpi_call_overhead_ns", m.mpi_call_overhead_ns);
    f("gemini.mpi_match_ns", m.mpi_match_ns);
    f("gemini.mpi_iprobe_ns", m.mpi_iprobe_ns);
    f("gemini.mpi_iprobe_scan_ns", m.mpi_iprobe_scan_ns);
    f("gemini.mpi_iprobe_conn_ns", m.mpi_iprobe_conn_ns);
    f("gemini.mpi_iprobe_conn_free", m.mpi_iprobe_conn_free);
    f("gemini.mpi_eager_threshold", m.mpi_eager_threshold);
    f("gemini.mpi_rdma_threshold", m.mpi_rdma_threshold);
    f("gemini.udreg_capacity", m.udreg_capacity);
    f("gemini.udreg_hit_ns", m.udreg_hit_ns);
    f("gemini.mpi_xpmem_threshold", m.mpi_xpmem_threshold);
    f("gemini.mpi_xpmem_overhead_ns", m.mpi_xpmem_overhead_ns);
    f("gemini.mpi_shm_notify_ns", m.mpi_shm_notify_ns);
    f("gemini.mpi_mailbox_credits", m.mpi_mailbox_credits);
    f("gemini.pxshm_notify_ns", m.pxshm_notify_ns);
    f("gemini.pxshm_poll_ns", m.pxshm_poll_ns);
  }
};

}  // namespace ugnirt::gemini
