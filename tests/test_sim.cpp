#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulator.h"

using namespace mip::sim;

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator s;
    std::vector<int> order;
    s.schedule_in(milliseconds(30), [&] { order.push_back(3); });
    s.schedule_in(milliseconds(10), [&] { order.push_back(1); });
    s.schedule_in(milliseconds(20), [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Simulator, SameInstantFiresInScheduleOrder) {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        s.schedule_in(milliseconds(1), [&order, i] { order.push_back(i); });
    }
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
    Simulator s;
    bool fired = false;
    const EventId id = s.schedule_in(milliseconds(5), [&] { fired = true; });
    s.cancel(id);
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsHarmless) {
    Simulator s;
    s.cancel(99999);
    bool fired = false;
    s.schedule_in(milliseconds(1), [&] { fired = true; });
    s.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator s;
    int count = 0;
    s.schedule_in(milliseconds(10), [&] { ++count; });
    s.schedule_in(milliseconds(20), [&] { ++count; });
    s.run_until(milliseconds(15));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(s.now(), milliseconds(15));
    s.run();
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
    Simulator s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10) s.schedule_in(milliseconds(1), recurse);
    };
    s.schedule_in(milliseconds(1), recurse);
    s.run();
    EXPECT_EQ(depth, 10);
}

TEST(Simulator, RunUntilNotDerailedByCancelledEvents) {
    // Regression: a cancelled event at the head of the queue must not cause
    // run_until to fire a later-than-limit event (observed as simulated
    // time jumping hours ahead during a bounded run).
    Simulator s;
    const EventId cancelled = s.schedule_in(milliseconds(5), [] {});
    bool late_fired = false;
    s.schedule_in(seconds(100), [&] { late_fired = true; });
    s.cancel(cancelled);
    s.run_until(milliseconds(10));
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(s.now(), milliseconds(10));
}

TEST(Simulator, SchedulingInPastThrows) {
    Simulator s;
    s.schedule_in(milliseconds(1), [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(0, [] {}), std::logic_error);
}

namespace {
struct TestRig {
    Simulator sim;
    TraceRecorder trace;
    Link link;
    Node a{sim, "a"};
    Node b{sim, "b"};
    Nic& nic_a;
    Nic& nic_b;

    explicit TestRig(LinkConfig cfg = {})
        : link(sim, cfg), nic_a(a.add_nic()), nic_b(b.add_nic()) {
        link.set_trace(&trace);
        nic_a.connect(link);
        nic_b.connect(link);
    }
};
}  // namespace

TEST(Link, UnicastReachesOnlyAddressee) {
    TestRig rig;
    Node c(rig.sim, "c");
    Nic& nic_c = c.add_nic();
    nic_c.connect(rig.link);

    int b_got = 0, c_got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++b_got; });
    nic_c.set_handler([&](const Frame&) { ++c_got; });

    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload = {1, 2, 3};
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(b_got, 1);
    EXPECT_EQ(c_got, 0);
}

TEST(Link, BroadcastReachesEveryoneExceptSender) {
    TestRig rig;
    int a_got = 0, b_got = 0;
    rig.nic_a.set_handler([&](const Frame&) { ++a_got; });
    rig.nic_b.set_handler([&](const Frame&) { ++b_got; });
    Frame f;
    f.dst = MacAddress::broadcast();
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(a_got, 0);
    EXPECT_EQ(b_got, 1);
}

TEST(Link, DeliveryDelayIncludesLatencyAndSerialization) {
    LinkConfig cfg;
    cfg.latency = milliseconds(1);
    cfg.bandwidth_bps = 8000.0;  // 1 byte per millisecond
    TestRig rig(cfg);

    TimePoint delivered_at = -1;
    rig.nic_b.set_handler([&](const Frame&) { delivered_at = rig.sim.now(); });
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(86, 0);  // 86 + 14 header = 100 bytes -> 100 ms
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(delivered_at, milliseconds(101));
}

TEST(Link, OversizedFrameDropped) {
    LinkConfig cfg;
    cfg.mtu = 100;
    TestRig rig(cfg);
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(101, 0);
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(got, 0);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameTooBig), 1u);
}

TEST(Link, LossyLinkDropsSomeFrames) {
    LinkConfig cfg;
    cfg.loss_rate = 0.5;
    cfg.seed = 42;
    TestRig rig(cfg);
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    for (int i = 0; i < 200; ++i) {
        Frame f;
        f.dst = rig.nic_b.mac();
        rig.nic_a.send(std::move(f));
    }
    rig.sim.run();
    EXPECT_GT(got, 50);
    EXPECT_LT(got, 150);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameLost), 200u - got);
}

TEST(Link, FramesAreSerializedInFifoOrder) {
    // Regression: a small frame sent right after a large one must not
    // overtake it — the shared medium serializes transmissions. (This once
    // reordered a short final TCP segment ahead of a full-sized one.)
    LinkConfig cfg;
    cfg.bandwidth_bps = 8000.0;  // slow enough that tx time dominates
    TestRig rig(cfg);
    std::vector<std::size_t> arrival_sizes;
    rig.nic_b.set_handler(
        [&](const Frame& f) { arrival_sizes.push_back(f.payload.size()); });
    Frame big;
    big.dst = rig.nic_b.mac();
    big.payload.assign(1000, 0);
    rig.nic_a.send(std::move(big));
    Frame small;
    small.dst = rig.nic_b.mac();
    small.payload.assign(10, 0);
    rig.nic_a.send(std::move(small));
    rig.sim.run();
    ASSERT_EQ(arrival_sizes.size(), 2u);
    EXPECT_EQ(arrival_sizes[0], 1000u);
    EXPECT_EQ(arrival_sizes[1], 10u);
}

TEST(Link, NicMovedBetweenSegmentsMissesInFlightFrames) {
    TestRig rig;
    Link other(rig.sim, {});
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    Frame f;
    f.dst = rig.nic_b.mac();
    rig.nic_a.send(std::move(f));
    // b unplugs before the frame arrives.
    rig.nic_b.connect(other);
    rig.sim.run();
    EXPECT_EQ(got, 0);
}

TEST(Link, DisconnectedNicSendsVanish) {
    TestRig rig;
    int got = 0;
    rig.nic_b.set_handler([&](const Frame&) { ++got; });
    rig.nic_a.disconnect();
    Frame f;
    f.dst = rig.nic_b.mac();
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(got, 0);
}

TEST(Trace, CountsTxRxBytes) {
    TestRig rig;
    rig.nic_b.set_handler([](const Frame&) {});
    Frame f;
    f.dst = rig.nic_b.mac();
    f.payload.assign(100, 0);
    rig.nic_a.send(std::move(f));
    rig.sim.run();
    EXPECT_EQ(rig.trace.count(TraceKind::FrameTx), 1u);
    EXPECT_EQ(rig.trace.count(TraceKind::FrameRx), 1u);
    EXPECT_EQ(rig.trace.total_tx_bytes(), 114u);
}

TEST(MacAddress, FormattingAndBroadcast) {
    EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
    EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
    const MacAddress m = MacAddress::from_id(0x1234);
    EXPECT_FALSE(m.is_broadcast());
    EXPECT_EQ(m.to_string(), "02:00:00:00:12:34");
}

// ---- cancellation -----------------------------------------------------------

TEST(Simulator, StaleCancellationsSweptWhenQueueDrains) {
    Simulator s;
    const EventId id = s.schedule_in(milliseconds(1), [] {});
    s.run();
    s.cancel(id);  // the event already fired: this cancellation is stale
    EXPECT_EQ(s.cancelled_backlog(), 0u) << "a stale cancel must leave nothing behind";
    s.schedule_in(milliseconds(1), [] {});
    s.run();
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, CancellationErasedWhenItsEventIsPurged) {
    Simulator s;
    int fired = 0;
    const EventId id = s.schedule_in(milliseconds(1), [&] { ++fired; });
    s.schedule_in(milliseconds(2), [&] { ++fired; });
    s.cancel(id);
    s.cancel(id);  // a second cancel of the same handle is stale
    EXPECT_EQ(s.cancelled_backlog(), 1u);
    EXPECT_EQ(s.pending_events(), 2u) << "the dead key stays queued until it surfaces";
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, CancelOfNeverScheduledIdIsIgnoredOutright) {
    Simulator s;
    s.cancel(12345);  // larger than any id ever handed out
    s.cancel(0);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, StaleCancelsNeverAccumulateInAQueueThatNeverDrains) {
    // A periodic timer keeps the queue from ever draining, as a World's
    // re-registrations and a city's host samplers do. Cancelling events
    // that already fired must not leave anything behind.
    Simulator s;
    std::function<void()> tick = [&] { s.schedule_in(milliseconds(10), tick); };
    s.schedule_in(milliseconds(10), tick);
    std::vector<EventId> fired_ids;
    for (int i = 0; i < 10'000; ++i) {
        fired_ids.push_back(s.schedule_in(microseconds(i), [] {}));
    }
    s.run_until(milliseconds(20));
    for (const EventId id : fired_ids) s.cancel(id);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
    EXPECT_EQ(s.pending_events(), 1u) << "only the periodic timer remains";
    s.run_until(seconds(1));
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
    Simulator s;
    const EventId first = s.schedule_in(milliseconds(1), [] {});
    s.run();
    bool fired = false;
    const EventId second = s.schedule_in(milliseconds(1), [&] { fired = true; });
    EXPECT_NE(first, second);
    s.cancel(first);
    s.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, HandlerCancellingItsOwnIdIsHarmless) {
    Simulator s;
    EventId self = 0;
    int fired = 0;
    self = s.schedule_in(milliseconds(1), [&] {
        ++fired;
        s.cancel(self);  // already fired: stale
        s.schedule_in(milliseconds(1), [&] { ++fired; });
    });
    s.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

// ---- dispatch order ---------------------------------------------------------

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace {

/// Schedules @p when for every entry, recording (when, schedule index) as
/// each fires, and returns the fired sequence after run().
std::vector<std::pair<TimePoint, int>> fire_all(const std::vector<TimePoint>& whens) {
    Simulator s;
    std::vector<std::pair<TimePoint, int>> fired;
    for (int i = 0; i < static_cast<int>(whens.size()); ++i) {
        s.schedule_at(whens[static_cast<std::size_t>(i)],
                      [&fired, &s, i] { fired.emplace_back(s.now(), i); });
    }
    s.run();
    return fired;
}

}  // namespace

TEST(Simulator, FiresInTotalEventOrder) {
    std::mt19937_64 rng(42);
    // Timestamps spanning ns to minutes, with repeats.
    std::vector<TimePoint> whens;
    std::vector<std::pair<TimePoint, int>> expect;
    for (int i = 0; i < 2000; ++i) {
        TimePoint when =
            static_cast<TimePoint>(rng() % static_cast<std::uint64_t>(seconds(90)));
        if (i % 7 == 0 && i > 0) when = whens.back();  // a same-instant tie
        whens.push_back(when);
        expect.emplace_back(when, i);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fire_all(whens), expect);
}

TEST(Simulator, SameInstantFiresInScheduleOrderAmongOtherTimes) {
    // Ten events at one instant, scheduled between earlier and later
    // ones, still fire in the order they were scheduled.
    std::vector<TimePoint> whens;
    for (int i = 0; i < 10; ++i) {
        whens.push_back(seconds(2) + milliseconds(i));
        whens.push_back(seconds(1));
        whens.push_back(milliseconds(i));
    }
    std::vector<int> at_one_second;
    for (const auto& [when, index] : fire_all(whens)) {
        if (when == seconds(1)) at_one_second.push_back(index);
    }
    EXPECT_EQ(at_one_second, (std::vector<int>{1, 4, 7, 10, 13, 16, 19, 22, 25, 28}));
}

TEST(Simulator, RunUntilIncludesItsBoundary) {
    Simulator s;
    int fired = 0;
    s.schedule_at(seconds(5), [&] { ++fired; });
    EXPECT_EQ(s.run_until(seconds(5) - 1), 0u) << "earliest event is beyond the limit";
    EXPECT_EQ(s.pending_events(), 1u);
    EXPECT_EQ(s.run_until(seconds(5)), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), seconds(5));
}

TEST(Simulator, FarFutureEventDoesNotBlockNearOnes) {
    std::vector<TimePoint> whens{seconds(3600)};
    for (int i = 1; i < 64; ++i) whens.push_back(milliseconds(i));
    const auto fired = fire_all(whens);
    ASSERT_EQ(fired.size(), 64u);
    EXPECT_EQ(fired.back().second, 0) << "the distant event must fire last";
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, HandlersSchedulingMoreStayOrdered) {
    // The real access pattern: fire one, schedule a few more (some at the
    // current instant), repeat, while the queue grows and shrinks.
    Simulator s;
    std::mt19937_64 rng(7);
    int next = 0;
    std::vector<std::pair<TimePoint, int>> fired;
    std::function<void(int)> handler = [&](int index) {
        fired.emplace_back(s.now(), index);
        if (next < 5000 && rng() % 3 != 0) {
            const Duration delay = rng() % 4 == 0 ? 0 : static_cast<Duration>(rng() % seconds(2));
            const int child = next++;
            s.schedule_in(delay, [&handler, child] { handler(child); });
        }
    };
    for (; next < 200;) {
        const int index = next++;
        s.schedule_at(static_cast<TimePoint>(rng() % seconds(10)),
                      [&handler, index] { handler(index); });
    }
    s.run();
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(fired.size(), static_cast<std::size_t>(next));
    // Children are always scheduled at or after the current instant, and
    // later indices at one instant were scheduled later: (when, index)
    // must already be sorted.
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, MatchesSortedReferenceUnderScheduleCancelRunUntil) {
    // Property: against a std::multimap reference (equal keys keep
    // insertion order, which is the schedule-sequence tie break), seeded
    // interleavings of schedule (on the heap and on three fixed-delay
    // lanes, one of delay 0), cancel (live and stale handles, heap and
    // lane events alike) and run_until fire the same tokens in the same
    // order. Every fourth token schedules a child when it fires, on both
    // sides; every other child goes onto a lane.
    const Duration lane_delays[] = {0, microseconds(300), microseconds(1500)};
    const auto spawns = [](int token) { return token % 4 == 0; };
    const auto child_lane = [](int token) { return token % 8 == 0 ? (token / 8) % 3 : -1; };
    const auto child_delay = [&](int token) {
        const int lane = child_lane(token);
        return lane >= 0 ? lane_delays[lane] : (token % 3) * microseconds(100);
    };

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Simulator s;
        std::mt19937_64 rng(seed);
        const Lane lanes[] = {s.lane(lane_delays[0]), s.lane(lane_delays[1]),
                              s.lane(lane_delays[2])};

        // Simulator side.
        std::vector<EventId> ids;  // by token
        std::vector<int> fired;
        std::function<std::function<void()>(int)> action = [&](int token) {
            return [&, token] {
                fired.push_back(token);
                if (spawns(token)) {
                    const std::size_t child = ids.size();
                    ids.push_back(0);
                    const int lane = child_lane(token);
                    ids[child] =
                        lane >= 0 ? s.schedule_on(lanes[lane], action(static_cast<int>(child)))
                                  : s.schedule_in(child_delay(token),
                                                  action(static_cast<int>(child)));
                }
            };
        };

        // Reference side.
        using Ref = std::multimap<TimePoint, int>;
        Ref ref;
        std::vector<Ref::iterator> where;  // by token; valid while pending
        std::vector<bool> pending;
        const auto ref_add = [&](TimePoint when) {
            where.push_back(ref.insert({when, static_cast<int>(where.size())}));
            pending.push_back(true);
        };

        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = rng() % 10;
            if (op < 3) {
                const TimePoint when =
                    s.now() + (rng() % 20 == 0 ? seconds(3600)
                                               : static_cast<Duration>(rng() % 50) *
                                                     microseconds(100));
                ids.push_back(s.schedule_at(when, action(static_cast<int>(ids.size()))));
                ref_add(when);
            } else if (op < 5) {
                const std::size_t lane = rng() % 3;
                ids.push_back(s.schedule_on(lanes[lane], action(static_cast<int>(ids.size()))));
                ref_add(s.now() + lane_delays[lane]);
            } else if (op < 8 && !ids.empty()) {
                const std::size_t token = rng() % ids.size();
                s.cancel(ids[token]);
                if (pending[token]) {
                    ref.erase(where[token]);
                    pending[token] = false;
                }
            } else {
                const TimePoint until =
                    s.now() + static_cast<Duration>(rng() % 30) * microseconds(100);
                std::vector<int> expect;
                while (!ref.empty() && ref.begin()->first <= until) {
                    const auto [when, token] = *ref.begin();
                    ref.erase(ref.begin());
                    pending[static_cast<std::size_t>(token)] = false;
                    expect.push_back(token);
                    if (spawns(token)) ref_add(when + child_delay(token));
                }
                fired.clear();
                s.run_until(until);
                ASSERT_EQ(fired, expect) << "seed " << seed << " step " << step;
                ASSERT_EQ(s.now(), until);
            }
            ASSERT_EQ(ids.size(), where.size());
            ASSERT_EQ(s.pending_events() - s.cancelled_backlog(), ref.size())
                << "seed " << seed << " step " << step;
        }
    }
}

// ---- fixed-delay lanes ------------------------------------------------------

TEST(Simulator, LaneKeepsFifoOrderAcrossRingGrowth) {
    // Rounds of ever more events on one lane, half a delay apart: the
    // ring's head wraps while it holds one to two rounds, and it grows
    // past several powers of two. Tokens are scheduled in order, so they
    // must fire in order.
    Simulator s;
    const Lane lane = s.lane(milliseconds(1));
    std::vector<int> fired;
    int next = 0;
    for (int round = 0; round < 60; ++round) {
        for (int i = 0; i <= round; ++i) {
            const int token = next++;
            s.schedule_on(lane, [&fired, token] { fired.push_back(token); });
        }
        s.run_until(s.now() + microseconds(500));
    }
    s.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i) ASSERT_EQ(fired[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, LaneIsDeduplicatedPerDelay) {
    Simulator s;
    const Lane a = s.lane(milliseconds(2));
    const Lane zero = s.lane(0);
    EXPECT_EQ(s.lane(milliseconds(2)), a);
    EXPECT_EQ(s.lane(0), zero);
    EXPECT_NE(s.lane(milliseconds(3)), a);
}

TEST(Simulator, NegativeLaneDelayThrows) {
    Simulator s;
    EXPECT_THROW(s.lane(-1), std::invalid_argument);
    EXPECT_THROW(s.schedule_on(Lane{}, [] {}), std::invalid_argument)
        << "a default Lane names no lane";
}

TEST(Simulator, PendingAndBacklogCountLaneKeys) {
    Simulator s;
    const Lane lane = s.lane(milliseconds(1));
    int fired = 0;
    s.schedule_on(lane, [&] { ++fired; });  // the lane's head, in the heap
    const EventId queued = s.schedule_on(lane, [&] { ++fired; });  // in the ring
    s.schedule_on(lane, [&] { ++fired; });
    s.schedule_in(milliseconds(2), [&] { ++fired; });
    EXPECT_EQ(s.pending_events(), 4u);
    s.cancel(queued);
    EXPECT_EQ(s.cancelled_backlog(), 1u);
    EXPECT_EQ(s.pending_events(), 4u) << "the dead key stays queued until it surfaces";
    s.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, CancelledLaneHeadIsSkippedAndItsSlotFreed) {
    Simulator s;
    const Lane lane = s.lane(milliseconds(1));
    std::vector<int> order;
    const EventId head = s.schedule_on(lane, [&] { order.push_back(0); });
    const EventId next = s.schedule_on(lane, [&] { order.push_back(1); });
    s.cancel(head);
    EXPECT_EQ(s.cancelled_backlog(), 1u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(s.cancelled_backlog(), 0u);
    EXPECT_EQ(s.pending_events(), 0u);

    // Both slots are free again: the next two events reuse them, and the
    // cancelled head's stale handle does not touch its slot's new tenant.
    const auto slot_of = [](EventId id) { return id & 0xffff'ffffu; };
    const EventId a = s.schedule_on(lane, [&] { order.push_back(2); });
    const EventId b = s.schedule_in(milliseconds(1), [&] { order.push_back(3); });
    EXPECT_EQ(std::min(slot_of(a), slot_of(b)), std::min(slot_of(head), slot_of(next)));
    EXPECT_EQ(std::max(slot_of(a), slot_of(b)), std::max(slot_of(head), slot_of(next)));
    s.cancel(head);
    s.cancel(next);
    EXPECT_EQ(s.cancelled_backlog(), 0u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}
