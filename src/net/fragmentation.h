// IPv4 fragmentation and reassembly (RFC 791 §3.2).
//
// Relevant to the paper's §3.3 "Minimize Size": if adding an encapsulation
// header pushes a packet over a link's MTU, the packet is fragmented,
// "doubling the packet count". The fig06/fig08 benches measure exactly
// this crossover.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "net/packet.h"

namespace mip::net {

/// Splits @p packet into fragments whose wire size is <= @p mtu.
/// Returns a single-element vector when no fragmentation is needed.
/// Throws std::invalid_argument if the packet has DF set and doesn't fit,
/// or if @p mtu cannot carry the header plus 8 bytes of payload.
std::vector<Packet> fragment(const Packet& packet, std::size_t mtu);

/// Reassembles fragment streams. Keyed by (src, dst, id, protocol) per
/// RFC 791. Incomplete datagrams are discarded after a timeout, and at
/// most kMaxPartial are held at once: a fragment opening one more evicts
/// the oldest-started, so a flood of never-completed first fragments
/// cannot grow the table without bound.
class Reassembler {
public:
    static constexpr std::size_t kMaxPartial = 256;

    explicit Reassembler(std::int64_t timeout_ns = 30'000'000'000) : timeout_(timeout_ns) {}

    /// Adds a fragment (or passes through a complete datagram). Returns the
    /// reassembled packet once all pieces have arrived.
    std::optional<Packet> add(const Packet& fragment, std::int64_t now_ns);

    /// Drops partial datagrams older than the timeout.
    void expire(std::int64_t now_ns);

    std::size_t pending() const noexcept { return partial_.size(); }
    /// Partial datagrams evicted to stay within kMaxPartial.
    std::uint64_t evictions() const noexcept { return evictions_; }

private:
    struct Key {
        std::uint32_t src;
        std::uint32_t dst;
        std::uint16_t id;
        std::uint8_t proto;
        auto operator<=>(const Key&) const = default;
    };
    struct Partial {
        std::map<std::uint16_t, std::vector<std::uint8_t>> pieces;  ///< offset(bytes) -> data
        std::optional<std::size_t> total_payload_size;  ///< known once last fragment arrives
        Ipv4Header first_header;
        bool have_first = false;
        std::int64_t started_ns = 0;
        /// Journey id of the first fragment seen; the reassembled datagram
        /// continues that journey (all fragments share the id anyway).
        std::uint64_t journey = 0;
    };

    std::int64_t timeout_;
    std::map<Key, Partial> partial_;
    std::uint64_t evictions_ = 0;
};

}  // namespace mip::net
