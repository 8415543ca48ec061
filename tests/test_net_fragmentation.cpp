#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "net/fragmentation.h"

using namespace mip::net;
using namespace mip::net::literals;

namespace {
Packet make_test_packet(std::size_t payload_size, std::uint16_t id = 7) {
    std::vector<std::uint8_t> payload(payload_size);
    for (std::size_t i = 0; i < payload_size; ++i) {
        payload[i] = static_cast<std::uint8_t>(i);
    }
    return make_packet("10.0.0.1"_ip, "10.0.0.2"_ip, IpProto::Udp, std::move(payload),
                       kDefaultTtl, id);
}
}  // namespace

TEST(Fragmentation, NoFragmentationWhenFits) {
    const auto pieces = fragment(make_test_packet(100), 1500);
    ASSERT_EQ(pieces.size(), 1u);
    EXPECT_FALSE(pieces[0].header().is_fragment());
}

TEST(Fragmentation, SplitsAtMtu) {
    // 1500-byte payload + 20 header over MTU 1500 -> 2 fragments: the paper's
    // "doubling the packet count" for encapsulation just past the MTU.
    const auto pieces = fragment(make_test_packet(1500), 1500);
    ASSERT_EQ(pieces.size(), 2u);
    EXPECT_TRUE(pieces[0].header().more_fragments);
    EXPECT_FALSE(pieces[1].header().more_fragments);
    EXPECT_EQ(pieces[0].header().fragment_offset, 0);
    EXPECT_EQ(pieces[1].header().fragment_offset, pieces[0].payload().size() / 8);
    EXPECT_LE(pieces[0].wire_size(), 1500u);
}

TEST(Fragmentation, OffsetsAreEightByteAligned) {
    const auto pieces = fragment(make_test_packet(4000), 500);
    ASSERT_GT(pieces.size(), 1u);
    std::size_t total = 0;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i + 1 < pieces.size()) {
            EXPECT_EQ(pieces[i].payload().size() % 8, 0u) << i;
        }
        EXPECT_EQ(pieces[i].header().fragment_offset * 8, total);
        total += pieces[i].payload().size();
    }
    EXPECT_EQ(total, 4000u);
}

TEST(Fragmentation, DontFragmentThrows) {
    auto p = make_test_packet(2000);
    p.header().dont_fragment = true;
    EXPECT_THROW(fragment(p, 1500), std::invalid_argument);
}

TEST(Fragmentation, TinyMtuRejected) {
    EXPECT_THROW(fragment(make_test_packet(100), 24), std::invalid_argument);
}

TEST(Reassembly, InOrder) {
    const auto original = make_test_packet(3000);
    const auto pieces = fragment(original, 600);
    Reassembler r;
    std::optional<Packet> result;
    for (const auto& piece : pieces) {
        result = r.add(piece, 0);
    }
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload().size(), 3000u);
    EXPECT_TRUE(std::equal(result->payload().begin(), result->payload().end(),
                           original.payload().begin()));
    EXPECT_EQ(r.pending(), 0u);
}

TEST(Reassembly, OutOfOrder) {
    const auto original = make_test_packet(2500);
    auto pieces = fragment(original, 700);
    ASSERT_GE(pieces.size(), 3u);
    Reassembler r;
    std::optional<Packet> result;
    // Deliver last first, then the rest in reverse.
    for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
        result = r.add(*it, 0);
    }
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload().size(), 2500u);
}

TEST(Reassembly, InterleavedDatagramsKeptApart) {
    const auto a = make_test_packet(1600, /*id=*/1);
    const auto b = make_test_packet(1600, /*id=*/2);
    const auto fa = fragment(a, 900);  // 880 + 720 bytes -> exactly two pieces
    const auto fb = fragment(b, 900);
    ASSERT_EQ(fa.size(), 2u);
    Reassembler r;
    EXPECT_FALSE(r.add(fa[0], 0).has_value());
    EXPECT_FALSE(r.add(fb[0], 0).has_value());
    EXPECT_EQ(r.pending(), 2u);
    auto ra = r.add(fa[1], 0);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(ra->header().identification, 1);
    auto rb = r.add(fb[1], 0);
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(rb->header().identification, 2);
}

TEST(Reassembly, DuplicateFragmentIsIdempotent) {
    const auto original = make_test_packet(1600);
    const auto pieces = fragment(original, 900);
    Reassembler r;
    EXPECT_FALSE(r.add(pieces[0], 0).has_value());
    EXPECT_FALSE(r.add(pieces[0], 0).has_value());  // duplicate
    const auto result = r.add(pieces[1], 0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload().size(), 1600u);
}

TEST(Reassembly, TimeoutDropsPartials) {
    const auto pieces = fragment(make_test_packet(1600), 900);
    Reassembler r(/*timeout_ns=*/1000);
    EXPECT_FALSE(r.add(pieces[0], 0).has_value());
    EXPECT_EQ(r.pending(), 1u);
    r.expire(5000);
    EXPECT_EQ(r.pending(), 0u);
    // The late fragment alone can no longer complete the datagram.
    EXPECT_FALSE(r.add(pieces[1], 6000).has_value());
}

TEST(Reassembly, PassthroughForWholePackets) {
    Reassembler r;
    const auto p = make_test_packet(64);
    const auto result = r.add(p, 0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload().size(), 64u);
}

TEST(Reassembly, FloodOfFirstFragmentsStaysWithinTheCap) {
    // 10,000 datagrams that never complete (only their first fragment
    // arrives) must not grow the table past kMaxPartial; the oldest are
    // evicted and counted.
    Reassembler r;
    for (std::uint16_t id = 1; id <= 10'000; ++id) {
        const auto pieces = fragment(make_test_packet(1600, id), 900);
        EXPECT_FALSE(r.add(pieces[0], /*now_ns=*/id).has_value());
        ASSERT_LE(r.pending(), Reassembler::kMaxPartial);
    }
    EXPECT_EQ(r.pending(), Reassembler::kMaxPartial);
    EXPECT_EQ(r.evictions(), 10'000u - Reassembler::kMaxPartial);

    // A datagram whose fragments all arrive after the flood still
    // reassembles.
    const auto original = make_test_packet(2600, 20'000);
    const auto pieces = fragment(original, 900);
    ASSERT_GT(pieces.size(), 2u);
    std::optional<Packet> whole;
    for (const Packet& piece : pieces) whole = r.add(piece, 20'000);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->header().identification, 20'000);
    EXPECT_TRUE(std::equal(whole->payload().begin(), whole->payload().end(),
                           original.payload().begin(), original.payload().end()));
    EXPECT_LE(r.pending(), Reassembler::kMaxPartial);
}
