// Golden dispatch-order pins. The simulator's ordering contract is a total
// order — (when, schedule sequence) ascending — so a scenario fires one
// exact event sequence whatever structure holds the queue. Each scenario
// here pins that sequence by two figures: the number of events fired and
// an FNV-1a hash of the full metrics snapshot JSON (or, for the bare
// Simulator scenario, of its dispatch log).
//
// The World scenarios' constants were captured on the binary-heap/calendar-
// queue scheduler the current queue replaced, so they pin it to that
// dispatch order. They have few same-instant ties, so they guard time
// order more than the tie break. SameInstantTies closes that gap: a bare
// Simulator run dense with ties between lane keys, between lane and heap
// keys, and from handlers scheduling at now. Its constants were captured
// on the queue before fixed-delay lanes existed, with every lane schedule
// written as the equivalent schedule_in; a LIFO tie break or a queue that
// lets lane keys win ties fails it. The city-scale pin lives in
// test_metro.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "mobility/motion.h"
#include "sim/simulator.h"
#include "transport/pinger.h"

using namespace mip;
using namespace mip::core;

namespace {

struct RunResult {
    std::uint64_t events = 0;
    std::string pinned;  ///< the text the pin hashes
    std::uint64_t payload = 0;  ///< scenario-specific progress figure
};

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void expect_pinned(const RunResult& r, std::uint64_t payload, std::uint64_t events,
                   std::uint64_t hash) {
    EXPECT_EQ(r.payload, payload);
    EXPECT_EQ(r.events, events) << "dispatch order changed: events_fired moved";
    EXPECT_EQ(fnv1a(r.pinned), hash)
        << "dispatch order changed: the pinned text is no longer byte-identical";
}

void serve_echo(CorrespondentHost& ch, std::uint16_t port) {
    ch.tcp().listen(port, [](transport::TcpConnection& c) {
        c.set_data_callback([&c](std::span<const std::uint8_t> d, const transport::RxMeta&) {
            c.send(std::vector<std::uint8_t>(d.begin(), d.end()));
        });
    });
}

/// Registration plus a paced ping train across the backbone.
RunResult run_ping_scenario() {
    World world{WorldConfig{}};
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    MobileHost& mh = world.create_mobile_host();
    EXPECT_TRUE(world.attach_mobile_foreign());

    std::uint64_t replies = 0;
    transport::Pinger pinger(mh.stack());
    for (int i = 0; i < 8; ++i) {
        pinger.ping(
            ch.address(), [&](auto rtt, auto&&) { replies += rtt.has_value() ? 1 : 0; },
            sim::seconds(2), 56, world.mh_home_addr());
        world.run_for(sim::milliseconds(700));
    }
    world.run_for(sim::seconds(3));
    return {world.sim.events_fired(),
            world.metrics.snapshot_json("equiv", "ping", world.sim.now()), replies};
}

/// A TCP echo conversation through the home-agent tunnel.
RunResult run_tcp_scenario() {
    World world{WorldConfig{}};
    CorrespondentHost& ch = world.create_correspondent({}, Placement::CorrLan);
    serve_echo(ch, 7601);
    MobileHost& mh = world.create_mobile_host();
    EXPECT_TRUE(world.attach_mobile_foreign());
    mh.force_mode(ch.address(), OutMode::IE);

    auto& conn = mh.tcp().connect(ch.address(), 7601);
    std::uint64_t echoed = 0;
    conn.set_data_callback([&](std::span<const std::uint8_t> d, const transport::RxMeta&) { echoed += d.size(); });
    conn.send(std::vector<std::uint8_t>(4000, 6));
    world.run_for(sim::seconds(15));
    return {world.sim.events_fired(),
            world.metrics.snapshot_json("equiv", "tcp", world.sim.now()), echoed};
}

/// A random-waypoint journey under the handoff controller: stochastic
/// motion, registrations, renewals and tunnelling all on one queue.
RunResult run_mobility_scenario() {
    World world{WorldConfig{}};
    world.create_mobile_host();

    mobility::RandomWaypointMobility::Config mc;
    mc.max_x = 1000;
    mc.max_y = 100;
    mc.min_speed_mps = 30;   // brisk, so 30 s of sim time crosses cells
    mc.max_speed_mps = 60;
    mc.start = mobility::Position{100, 50};
    mc.seed = 42;
    auto model = std::make_unique<mobility::RandomWaypointMobility>(mc);
    mobility::CoverageMap map;
    map.add(world.home_cell(mobility::Region::rect(0, 0, 280, 100), /*priority=*/1))
        .add(world.foreign_cell(mobility::Region::rect(250, 0, 600, 100)))
        .add(world.corr_cell(mobility::Region::rect(600.001, 0, 1000, 100)));
    auto& hc = world.with_mobility(std::move(model), std::move(map));
    world.run_for(sim::seconds(30));

    return {world.sim.events_fired(),
            world.metrics.snapshot_json("equiv", "journey", world.sim.now()),
            hc.stats().handoff_count()};
}

/// The registration retry path end to end. An initial attach against a
/// crashed home agent gives up after registration_max_retries. After a
/// restart the host attaches, the agent crashes again, and the first
/// refresh burns its retry budget, opens the circuit and probes; the
/// agent's second restart lets a probe through and the circuit closes.
RunResult run_circuit_scenario() {
    World world{WorldConfig{}};
    MobileHostConfig mcfg = world.mobile_config();
    mcfg.registration_lifetime = 5;  // refresh at 4 s
    mcfg.registration_retry = sim::milliseconds(200);
    mcfg.registration_backoff_cap = sim::seconds(1);
    mcfg.registration_max_retries = 4;
    mcfg.registration_retry_budget = 2;
    mcfg.registration_circuit_probe = sim::seconds(2);
    MobileHost& mh = world.create_mobile_host(std::move(mcfg));

    world.home_agent().crash();
    EXPECT_FALSE(world.attach_mobile_foreign()) << "the initial attach must give up";
    world.home_agent().restart();
    EXPECT_TRUE(world.attach_mobile_foreign());
    world.home_agent().crash();
    world.run_for(sim::seconds(20));
    EXPECT_TRUE(mh.registration_circuit_open());
    world.home_agent().restart();
    world.run_for(sim::seconds(10));
    EXPECT_FALSE(mh.registration_circuit_open());
    return {world.sim.events_fired(),
            world.metrics.snapshot_json("equiv", "circuit", world.sim.now()),
            mh.stats().registration_circuit_probes};
}

/// Same-instant ties on a bare Simulator. Times are whole milliseconds,
/// so a 2 ms lane, a 3 ms lane, heap delays of 2, 3 and 6 ms and two
/// at-now paths (a heap schedule and a delay-0 lane) keep landing keys on
/// one instant. Each event logs token@time; the pin hashes the log, and
/// the payload counts dispatches that shared the previous one's instant.
RunResult run_tie_scenario() {
    sim::Simulator s;
    const sim::Lane short_lane = s.lane(sim::milliseconds(2));
    const sim::Lane long_lane = s.lane(sim::milliseconds(3));
    const sim::Lane now_lane = s.lane(0);
    std::string log;
    std::uint64_t ties = 0;
    sim::TimePoint last = -1;
    int next = 0;
    std::function<void(int)> fire;
    const auto action = [&](int token) { return [&fire, token] { fire(token); }; };
    fire = [&](int token) {
        if (s.now() == last) ++ties;
        last = s.now();
        log += std::to_string(token) + '@' + std::to_string(s.now()) + ';';
        if (next >= 3000) return;
        switch (token % 6) {
            case 0:  // one key on each lane; their instants keep meeting
                s.schedule_on(short_lane, action(next++));
                s.schedule_on(long_lane, action(next++));
                break;
            case 1:  // at now, on the heap
                s.schedule_in(0, action(next++));
                break;
            case 2:  // at now, on the delay-0 lane
                s.schedule_on(now_lane, action(next++));
                break;
            case 3:
                s.schedule_in(sim::milliseconds(6), action(next++));
                break;
            case 4:  // lane key first, then a heap key at the same instant
                s.schedule_on(long_lane, action(next++));
                s.schedule_in(sim::milliseconds(3), action(next++));
                break;
            default:  // heap key first, then a lane key at the same instant
                s.schedule_in(sim::milliseconds(2), action(next++));
                s.schedule_on(short_lane, action(next++));
                break;
        }
    };
    for (int i = 0; i < 6; ++i) {
        s.schedule_at(sim::milliseconds(i % 2), action(next++));
    }
    s.run();
    return {s.events_fired(), log, ties};
}

}  // namespace

TEST(DispatchOrderPin, PingTrain) {
    expect_pinned(run_ping_scenario(), 8, 177, 0x7477c5e30888226cull);
}

TEST(DispatchOrderPin, TcpEcho) {
    expect_pinned(run_tcp_scenario(), 4000, 299, 0x99496b4e9f3906b6ull);
}

TEST(DispatchOrderPin, RandomWaypointJourney) {
    expect_pinned(run_mobility_scenario(), 4, 375, 0x11f00fd1706ddfe6ull);
}

TEST(DispatchOrderPin, RegistrationCircuit) {
    expect_pinned(run_circuit_scenario(), 8, 193, 0x4593d0b0abd06911ull);
}

TEST(DispatchOrderPin, SameInstantTies) {
    expect_pinned(run_tie_scenario(), 2968, 3000, 0xbab3ae9706735769ull);
}
