/**
 * @file
 * Unit tests for the thread-local object pools behind PacketPtr and
 * FlitPtr: reference counting, recycling, reset-on-release, and the
 * zero-allocation steady state.
 */

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "src/noc/flit.hh"
#include "src/noc/packet.hh"
#include "src/sim/pool.hh"

namespace netcrafter::noc {
namespace {

using sim::ObjectPool;

TEST(Pool, CopiesShareAndLastDropRecycles)
{
    auto &pool = ObjectPool<Packet>::local();
    PacketPtr a = makePacket(PacketType::ReadReq, 0, 1, 0x100);
    Packet *raw = a.get();
    const std::size_t free_while_live = pool.freeCount();
    {
        PacketPtr b = a;
        EXPECT_EQ(b.get(), raw);
    }
    // Dropping a copy must not release the node.
    EXPECT_EQ(pool.freeCount(), free_while_live);
    // b dropped; a still owns the node.
    EXPECT_EQ(a->addr, 0x100u);
    a.reset();
    EXPECT_EQ(a, nullptr);
    // The node returned to the free list and was reset for reuse.
    PacketPtr c = makePacket(PacketType::WriteReq, 2, 3, 0x200);
    EXPECT_EQ(c.get(), raw) << "LIFO free list reuses the node";
    EXPECT_EQ(c->addr, 0x200u);
    EXPECT_EQ(c->payloadBytes, defaultPayloadBytes(PacketType::WriteReq));
    EXPECT_FALSE(c->trimmed);
}

TEST(Pool, MoveDoesNotChangeRefcount)
{
    PacketPtr a = makePacket(PacketType::ReadReq, 0, 1, 0x100);
    Packet *raw = a.get();
    PacketPtr b = std::move(a);
    EXPECT_EQ(a, nullptr);
    EXPECT_EQ(b.get(), raw);
    b.reset();
    // One allocate, one release: acquiring again reuses the node.
    EXPECT_EQ(makePacket(PacketType::ReadReq, 0, 1, 0).get(), raw);
}

TEST(Pool, PayloadCopyDoesNotCopyIdentity)
{
    // makeFlit(const Flit &) copies the payload of a flit that still has
    // live handles; the new node's refcount must be its own.
    PacketPtr pkt = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    auto flits = segmentPacket(pkt, 16);
    FlitPtr copy = makeFlit(*flits.front());
    EXPECT_NE(copy.get(), flits.front().get());
    EXPECT_EQ(copy->pkt.get(), pkt.get());
    EXPECT_EQ(copy->occupiedBytes, flits.front()->occupiedBytes);
    // Dropping the copy must not disturb the original handles.
    copy.reset();
    EXPECT_EQ(flits.front()->pkt.get(), pkt.get());
}

TEST(Pool, ReleasingFlitDropsItsPacketReference)
{
    auto &packet_pool = ObjectPool<Packet>::local();
    PacketPtr pkt = makePacket(PacketType::WriteReq, 0, 1, 0x80);
    Packet *raw = pkt.get();
    auto flits = segmentPacket(pkt, 16);
    pkt.reset();
    // Flits keep the packet alive...
    EXPECT_EQ(flits.front()->pkt.get(), raw);
    const std::size_t free_before = packet_pool.freeCount();
    flits.clear();
    // ...and the last flit's release returns the packet to its pool.
    EXPECT_EQ(packet_pool.freeCount(), free_before + 1);
}

TEST(Pool, RecycledFlitKeepsStitchedCapacity)
{
    PacketPtr parent_pkt = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    FlitPtr flit = makeFlit();
    flit->pkt = parent_pkt;
    flit->occupiedBytes = 4;
    flit->capacity = 16;
    StitchedPiece piece;
    piece.pkt = makePacket(PacketType::WriteRsp, 1, 0, 0x80);
    piece.bytes = 4;
    flit->stitched.push_back(piece);
    const std::size_t cap = flit->stitched.capacity();
    Flit *raw = flit.get();

    flit.reset();

    FlitPtr again = makeFlit();
    ASSERT_EQ(again.get(), raw);
    EXPECT_TRUE(again->stitched.empty());
    EXPECT_EQ(again->stitched.capacity(), cap)
        << "resetForReuse must keep the stitched vector's storage";
    EXPECT_EQ(again->pkt, nullptr);
    EXPECT_EQ(again->occupiedBytes, 0);
    EXPECT_FALSE(again->pooledOnce);
}

TEST(Pool, SteadyStateDoesNotGrowTheArena)
{
    auto &packet_pool = ObjectPool<Packet>::local();
    auto &flit_pool = ObjectPool<Flit>::local();
    // Warm up: one segmentation cycle populates both pools.
    segmentPacket(makePacket(PacketType::ReadRsp, 0, 1, 0x40), 16);
    const std::size_t packets = packet_pool.allocated();
    const std::size_t flits = flit_pool.allocated();
    EXPECT_GT(packets, 0u);
    EXPECT_GT(flits, 0u);

    for (int i = 0; i < 10000; ++i) {
        auto fs = segmentPacket(
            makePacket(PacketType::ReadRsp, 0, 1, 0x40 + i * 64), 16);
        EXPECT_EQ(fs.size(), 5u);
    }
    EXPECT_EQ(packet_pool.allocated(), packets)
        << "steady-state packet churn must reuse pooled nodes";
    EXPECT_EQ(flit_pool.allocated(), flits)
        << "steady-state flit churn must reuse pooled nodes";
    EXPECT_LE(packet_pool.highWater(), packet_pool.allocated());
    EXPECT_EQ(packet_pool.arenaBytes(),
              packet_pool.allocated() * sizeof(Packet));
}

TEST(Pool, SlabsRetireToTheVaultWhenTheirThreadExits)
{
    // A packet can outlive the host thread whose pool carved its
    // slab (executor threads exit with their engine): a node released on
    // thread A joins A's free list even though thread B allocated it,
    // and a still-referenced node must stay valid after B exits. The
    // exiting thread's pool retires its slabs into the process-wide
    // vault instead of freeing them.
    const std::size_t retired_before = ObjectPool<Packet>::retiredSlabs();

    PacketPtr survivor;
    std::thread worker([&survivor] {
        // Allocate from the worker's thread-local pool (forcing at
        // least one slab) and hand a live reference back out.
        survivor = makePacket(PacketType::ReadReq, 2, 3, 0x2000);
        survivor->payloadBytes = 96;
    });
    worker.join();

    // The worker's pool is gone; its slab is vaulted, not freed.
    EXPECT_GT(ObjectPool<Packet>::retiredSlabs(), retired_before);

    // The node is still fully usable from this thread — and releasing
    // it here parks it on *this* thread's free list, which is exactly
    // the cross-thread migration the vault exists to keep safe.
    ASSERT_TRUE(survivor);
    EXPECT_EQ(survivor->src, 2u);
    EXPECT_EQ(survivor->payloadBytes, 96u);
    survivor.reset();
}

TEST(Pool, CountersTrackLiveNodes)
{
    auto &pool = ObjectPool<Packet>::local();
    // Signed net liveness: nodes migrated in from other threads' pools
    // (released here, carved elsewhere) can push the free list past
    // this pool's own arena, so the difference may start negative.
    const auto net = [&pool] {
        return static_cast<std::int64_t>(pool.allocated()) -
               static_cast<std::int64_t>(pool.freeCount());
    };
    const std::int64_t live_before = net();
    std::vector<PacketPtr> held;
    for (int i = 0; i < 300; ++i)
        held.push_back(makePacket(PacketType::ReadReq, 0, 1, i * 64));
    EXPECT_EQ(net(), live_before + 300);
    EXPECT_GE(pool.highWater(),
              static_cast<std::size_t>(
                  std::max<std::int64_t>(live_before + 300, 0)));
    held.clear();
    EXPECT_EQ(net(), live_before);
}

} // namespace
} // namespace netcrafter::noc
