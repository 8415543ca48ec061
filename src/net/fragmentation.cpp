#include "net/fragmentation.h"

#include <algorithm>
#include <stdexcept>

namespace mip::net {

std::vector<Packet> fragment(const Packet& packet, std::size_t mtu) {
    if (packet.wire_size() <= mtu) {
        return {packet};
    }
    if (packet.header().dont_fragment) {
        throw std::invalid_argument("packet exceeds MTU and DF is set");
    }
    if (mtu < kIpv4HeaderSize + 8) {
        throw std::invalid_argument("MTU too small to fragment into");
    }

    // Payload bytes per fragment, rounded down to a multiple of 8.
    const std::size_t chunk = (mtu - kIpv4HeaderSize) & ~std::size_t{7};
    const auto payload = packet.payload();

    std::vector<Packet> out;
    std::size_t offset = 0;
    while (offset < payload.size()) {
        const std::size_t n = std::min(chunk, payload.size() - offset);
        Ipv4Header h = packet.header();
        h.fragment_offset =
            static_cast<std::uint16_t>(packet.header().fragment_offset + offset / 8);
        h.more_fragments = (offset + n < payload.size()) || packet.header().more_fragments;
        std::vector<std::uint8_t> piece(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                                        payload.begin() + static_cast<std::ptrdiff_t>(offset + n));
        out.emplace_back(h, std::move(piece));
        // Every fragment continues the original datagram's journey.
        out.back().set_journey(packet.journey());
        offset += n;
    }
    return out;
}

std::optional<Packet> Reassembler::add(const Packet& fragment, std::int64_t now_ns) {
    if (!fragment.header().is_fragment()) {
        return fragment;
    }
    const auto& h = fragment.header();
    const Key key{h.src.value(), h.dst.value(), h.identification,
                  static_cast<std::uint8_t>(h.protocol)};
    auto it = partial_.find(key);
    if (it == partial_.end()) {
        if (partial_.size() >= kMaxPartial) {
            // Evict the oldest-started; min_element keeps the first of
            // equals, so ties go to the smallest key, deterministically.
            partial_.erase(std::min_element(
                partial_.begin(), partial_.end(), [](const auto& a, const auto& b) {
                    return a.second.started_ns < b.second.started_ns;
                }));
            ++evictions_;
        }
        it = partial_.emplace(key, Partial{}).first;
        it->second.started_ns = now_ns;
    }
    Partial& p = it->second;
    if (p.journey == 0) {
        p.journey = fragment.journey();
    }

    const std::size_t byte_offset = std::size_t{h.fragment_offset} * 8;
    p.pieces[static_cast<std::uint16_t>(h.fragment_offset)] =
        std::vector<std::uint8_t>(fragment.payload().begin(), fragment.payload().end());
    if (h.fragment_offset == 0) {
        p.first_header = h;
        p.have_first = true;
    }
    if (!h.more_fragments) {
        p.total_payload_size = byte_offset + fragment.payload().size();
    }

    if (!p.total_payload_size || !p.have_first) {
        return std::nullopt;
    }
    // Check contiguity.
    std::size_t next = 0;
    for (const auto& [frag_offset, data] : p.pieces) {
        const std::size_t start = std::size_t{frag_offset} * 8;
        if (start != next) return std::nullopt;
        next = start + data.size();
    }
    if (next != *p.total_payload_size) {
        return std::nullopt;
    }

    std::vector<std::uint8_t> payload;
    payload.reserve(next);
    for (const auto& [frag_offset, data] : p.pieces) {
        payload.insert(payload.end(), data.begin(), data.end());
    }
    Ipv4Header out_header = p.first_header;
    out_header.more_fragments = false;
    out_header.fragment_offset = 0;
    Packet whole(out_header, std::move(payload));
    whole.set_journey(p.journey);
    partial_.erase(key);
    return whole;
}

void Reassembler::expire(std::int64_t now_ns) {
    std::erase_if(partial_, [&](const auto& kv) {
        return now_ns - kv.second.started_ns > timeout_;
    });
}

}  // namespace mip::net
