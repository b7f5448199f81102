/**
 * @file
 * Network packet model. We follow the paper's simplified PCIe-style
 * packet (Section 4.1, Table 1): a packet is a header plus payload.
 *
 *  - Header is 12 bytes (4B metadata + 8B address) for Read/Write/Page-
 *    Table requests and Page-Table responses; 4 bytes (metadata only) for
 *    Read/Write responses.
 *  - Payload is the 64B cache line for WriteReq and ReadRsp; empty
 *    otherwise (the PT response's 8B physical address lives in its
 *    header's address field).
 *
 * This reproduces Table 1 exactly for 16B flits:
 *
 *    type     occupied required padded flits
 *    ReadReq        16       12      4     1
 *    WriteReq       80       76      4     5
 *    PTReq          16       12      4     1
 *    ReadRsp        80       68     12     5
 *    WriteRsp       16        4     12     1
 *    PTRsp          16       12      4     1
 */

#ifndef NETCRAFTER_NOC_PACKET_HH
#define NETCRAFTER_NOC_PACKET_HH

#include <cstdint>
#include <string>

#include "src/sim/pool.hh"
#include "src/sim/types.hh"

namespace netcrafter::noc {

/** The six traffic categories of Table 1. */
enum class PacketType : std::uint8_t
{
    ReadReq = 0,
    WriteReq,
    PageTableReq,
    ReadRsp,
    WriteRsp,
    PageTableRsp,
};

/** Number of distinct packet types. */
inline constexpr std::size_t kNumPacketTypes = 6;

/** Short printable name of a packet type. */
const char *packetTypeName(PacketType type);

/** Header bytes for a packet type (4B metadata [+ 8B address]). */
constexpr std::uint32_t
headerBytes(PacketType type)
{
    switch (type) {
      case PacketType::ReadRsp:
      case PacketType::WriteRsp:
        return 4;
      default:
        return 12;
    }
}

/** Default payload bytes for a packet type (before any trimming). */
constexpr std::uint32_t
defaultPayloadBytes(PacketType type)
{
    switch (type) {
      case PacketType::WriteReq:
      case PacketType::ReadRsp:
        return kCacheLineBytes;
      default:
        return 0;
    }
}

/** True for page-table-walk related traffic (latency critical, Obs. 3). */
constexpr bool
isPtwType(PacketType type)
{
    return type == PacketType::PageTableReq ||
           type == PacketType::PageTableRsp;
}

/** True for response types. */
constexpr bool
isResponseType(PacketType type)
{
    return type == PacketType::ReadRsp || type == PacketType::WriteRsp ||
           type == PacketType::PageTableRsp;
}

struct Packet;

/**
 * Shared handle to a pooled packet (see sim/pool.hh). Packets recycle
 * through a thread-local arena instead of the heap; holders may keep the
 * handle as long as they like — the node is only reused after the last
 * handle drops.
 */
using PacketPtr = sim::PooledPtr<Packet>;

/**
 * A network packet travelling between two GPUs' RDMA engines.
 *
 * The trim* fields model the three repurposed bits in the unused upper
 * address bits (Section 4.3): one bit saying whether the request needs at
 * most one sector, and two bits giving the sector offset in the 64B line.
 */
struct Packet : sim::PoolRefCount
{
    /** Packet id, unique within one system (the header's id tag). */
    std::uint64_t id = 0;

    PacketType type = PacketType::ReadReq;

    /** Source endpoint (GPU whose RDMA engine injected the packet). */
    GpuId src = kGpuInvalid;

    /** Destination endpoint. */
    GpuId dst = kGpuInvalid;

    /** Memory address the transaction refers to. */
    Addr addr = kAddrInvalid;

    /** Payload bytes carried; reduced by the Trim Engine when trimmed. */
    std::uint32_t payloadBytes = 0;

    /**
     * Bytes of the cache line the requesting wavefront actually needs
     * (set by the coalescer on requests, copied onto responses).
     * 0 means unknown / not applicable.
     */
    std::uint8_t bytesNeeded = 0;

    /** First needed byte's offset within the cache line. */
    std::uint8_t neededOffset = 0;

    /** Trim request bit: requester needs <= one sector of the line. */
    bool trimEligible = false;

    /** Set by the Trim Engine once payload has been trimmed. */
    bool trimmed = false;

    /** Sector index within the line that a trimmed response carries. */
    std::uint8_t trimSector = 0;

    /**
     * Latency-critical marker used by Sequencing and Selective Flit
     * Pooling. Normally set for PTW-related packets; the Figure 8
     * counterfactual instead sets it on a sampled subset of data packets.
     */
    bool latencyCritical = false;

    /**
     * Requester-side bookkeeping slot: a request carries the index of
     * its entry in the requester's outstanding table and the response
     * echoes it back. Simulator metadata, not a wire field; declared
     * here so it fills alignment padding.
     */
    std::uint32_t reqSlot = 0;

    /** For responses: the id of the request packet being answered. */
    std::uint64_t reqId = 0;

    /** Tick at which the packet was injected (for latency statistics). */
    Tick injectedAt = 0;

    /** True when the src and dst GPUs are in different clusters. */
    bool interCluster = false;

    /** Total bytes on the wire: header plus (possibly trimmed) payload. */
    std::uint32_t
    totalBytes() const
    {
        return headerBytes(type) + payloadBytes;
    }

    /** True for PTW-related packets. */
    bool isPtw() const { return isPtwType(type); }

    /** Debug string. */
    std::string toString() const;

    /** Pool hook: restore the default-constructed state. */
    void resetForReuse() { *this = Packet{}; }
};

/**
 * Create a packet of @p type with a fresh unique id and the type's
 * default payload size. Ids are namespaced by @p src so that the
 * sequence a GPU's packets receive does not depend on how the system is
 * sharded across threads (see packet.cc).
 */
PacketPtr makePacket(PacketType type, GpuId src, GpuId dst, Addr addr);

/**
 * Acquire a fresh pooled packet holding a field-for-field copy of
 * @p original, id included. The wire channels use this to re-materialize
 * a packet into the destination shard's thread-local pool when a flit
 * crosses a shard boundary: pooled refcounts are non-atomic, so the
 * source shard's object must never be shared, and downstream consumers
 * (RDMA reassembly, request/response matching) identify packets by id,
 * never by object address.
 */
PacketPtr clonePacket(const Packet &original);

/** Reset this thread's packet id allocator (run on system construction). */
void resetPacketIds();

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_PACKET_HH
