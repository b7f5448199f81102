/**
 * @file
 * The Cluster Queue (Section 4.4): an SRAM FIFO structure at the
 * inter-GPU-cluster egress port that buffers flits about to traverse a
 * lower-bandwidth network. It is virtually partitioned two levels deep:
 * first by destination cluster (CQ.dst), then by request type (CQ.type),
 * with PTW-related flits kept in their own partition so Sequencing can
 * prioritize them and Selective Flit Pooling can exempt them from timers.
 */

#ifndef NETCRAFTER_CORE_CLUSTER_QUEUE_HH
#define NETCRAFTER_CORE_CLUSTER_QUEUE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/noc/flit.hh"
#include "src/sim/ring.hh"
#include "src/sim/types.hh"

namespace netcrafter::core {

/** Second-level partition classes (CQ.type). */
enum class CqClass : std::uint8_t
{
    ReadReq = 0,
    WriteReq,
    ReadRsp,
    WriteRsp,
    Ptw, // page table requests and responses, kept apart (Fig. 13, 4c)
};

inline constexpr std::size_t kNumCqClasses = 5;

/** Map a packet type to its Cluster Queue class. */
constexpr CqClass
cqClassOf(noc::PacketType type)
{
    switch (type) {
      case noc::PacketType::ReadReq:
        return CqClass::ReadReq;
      case noc::PacketType::WriteReq:
        return CqClass::WriteReq;
      case noc::PacketType::ReadRsp:
        return CqClass::ReadRsp;
      case noc::PacketType::WriteRsp:
        return CqClass::WriteRsp;
      case noc::PacketType::PageTableReq:
      case noc::PacketType::PageTableRsp:
        return CqClass::Ptw;
    }
    return CqClass::ReadReq;
}

/**
 * Classify a packet for the Cluster Queue. Latency-critical packets
 * (by default PTW-related ones; Figure 8's counterfactual marks sampled
 * data packets instead) occupy the separate priority partition.
 */
constexpr CqClass
cqClassOfPacket(const noc::Packet &pkt)
{
    if (pkt.latencyCritical)
        return CqClass::Ptw;
    switch (pkt.type) {
      case noc::PacketType::PageTableReq:
      case noc::PacketType::PageTableRsp:
        // PTW traffic not flagged latency-critical (PrioritizeData mode)
        // queues with size-compatible plain requests.
        return CqClass::ReadReq;
      default:
        return cqClassOf(pkt.type);
    }
}

/** Identifies one (destination cluster, class) partition. */
struct CqPartitionId
{
    ClusterId dst = 0;
    CqClass cls = CqClass::ReadReq;
};

/**
 * The two-level cluster queue. Total capacity is divided equally among
 * destination clusters (Table 2: 1024 entries, equally partitioned per
 * destination cluster).
 */
class ClusterQueue
{
  public:
    /**
     * @param total_entries total flit-sized entries of SRAM.
     * @param dst_clusters the remote clusters this egress port serves.
     */
    ClusterQueue(std::size_t total_entries,
                 std::vector<ClusterId> dst_clusters);

    /** True when a flit destined to @p dst can be buffered. */
    bool hasSpace(ClusterId dst) const;

    /** Buffer @p flit for destination cluster @p dst; requires space. */
    void push(ClusterId dst, noc::FlitPtr flit);

    /** Whole-queue emptiness. */
    bool empty() const { return totalOccupancy_ == 0; }

    /** Occupancy for one destination cluster. */
    std::size_t occupancy(ClusterId dst) const;

    /** Per-destination capacity budget. */
    std::size_t budgetPerDst() const { return budgetPerDst_; }

    /**
     * Round-robin pick of the next partition to serve. With
     * @p sequencing, non-empty PTW partitions win outright (strict
     * priority) and ignore pooling timers. Data partitions whose pooling
     * timer has not expired are skipped.
     */
    std::optional<CqPartitionId> pickNext(Tick now, bool sequencing);

    /** Head flit of a partition; requires the partition be non-empty. */
    const noc::FlitPtr &front(CqPartitionId id) const;

    /** Pop the head flit of a partition. */
    noc::FlitPtr pop(CqPartitionId id);

    /** Arm the pooling timer of a partition until @p until. */
    void blockUntil(CqPartitionId id, Tick until);

    /** Earliest tick at which any blocked, non-empty partition unblocks. */
    Tick earliestUnblock(Tick now) const;

    /**
     * True when some partition other than @p id could eject a flit right
     * now. Used by work-conserving Flit Pooling: a flit is only deferred
     * while the egress port has other work, so pooling never idles the
     * lower-bandwidth link.
     */
    bool anyOtherServable(CqPartitionId id, Tick now) const;

    /**
     * Find, remove, and return the best stitching candidate for a parent
     * flit headed to @p dst with @p free_bytes of space: the largest
     * stitchable flit whose wire footprint fits, scanning up to
     * @p search_depth entries per partition. @p exclude (the parent
     * itself, which heads one of the scanned queues) is never selected.
     * Returns nullptr when no candidate fits.
     */
    noc::FlitPtr takeCandidate(ClusterId dst, std::uint16_t free_bytes,
                               std::uint32_t search_depth,
                               const noc::Flit *exclude);

    /** Peak total occupancy observed. */
    std::size_t maxOccupancy() const { return maxOccupancy_; }

  private:
    struct DstQueues
    {
        ClusterId dst = 0;
        std::array<sim::Ring<noc::FlitPtr>, kNumCqClasses> q;
        std::array<Tick, kNumCqClasses> blockedUntil{};
        std::size_t occupancy = 0;
    };

    DstQueues &queuesFor(ClusterId dst);
    const DstQueues &queuesFor(ClusterId dst) const;

    std::vector<DstQueues> dsts_;
    std::size_t budgetPerDst_;
    std::size_t totalOccupancy_ = 0;
    std::size_t maxOccupancy_ = 0;
    std::size_t rr_ = 0;
};

} // namespace netcrafter::core

#endif // NETCRAFTER_CORE_CLUSTER_QUEUE_HH
