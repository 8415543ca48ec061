// Single-threaded discrete-event simulator.
//
// Every link transmission, protocol timer and host action in this library
// is an event on one Simulator's queue. Events scheduled for the same
// instant fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes whole-network runs bit-reproducible.
//
// The queue is split in two. The events' callables live in a slab of
// slots that is recycled through a free list, so a closure is moved once
// on schedule and once on dispatch and never again. A 4-ary implicit
// min-heap orders only small POD keys (when, sequence, slot) that point
// into that slab, so sifting moves 24 bytes, not a std::function.
//
// Fixed-delay lanes sit under the heap. A lane is a FIFO ring of the same
// keys for one delay: every key appended to it is due at now + delay, and
// since now never decreases and sequence numbers only grow, a lane is
// already sorted by (when, sequence). Only a lane's head key is in the
// heap; popping it replaces the heap top with the lane's next key in one
// sift-down. A city's periodic host timers (each re-armed one fixed
// interval out) therefore cost a ring append and a sift-down instead of a
// full heap push and pop, and dispatch order is unchanged. Lanes are
// opt-in (lane(), schedule_on()): a World's per-frame delays vary, and
// giving every delay a lane of its own would only churn rings.
//
// An EventId names a slot and the slot's generation. cancel() marks a
// live slot dead and ignores a handle whose event already fired or was
// cancelled; a dead key leaves the heap or its lane when it reaches the
// top, and only those keys count as cancelled backlog.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/pool.h"
#include "sim/record_arena.h"
#include "sim/time.h"

namespace mip::sim {

class SimProfiler;

/// Handle for cancelling a scheduled event: the slot index plus one in
/// the low 32 bits (so 0 is never a handle) and the slot's generation in
/// the high 32 bits. Opaque to callers.
using EventId = std::uint64_t;

/// Handle for one of a Simulator's fixed-delay lanes (Simulator::lane()).
/// A default-constructed Lane names no lane; scheduling on it throws.
class Lane {
public:
    Lane() = default;
    bool operator==(const Lane&) const = default;

private:
    friend class Simulator;
    explicit Lane(std::uint32_t index) noexcept : index_(index) {}
    std::uint32_t index_ = UINT32_MAX;
};

class Simulator {
public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    TimePoint now() const noexcept { return now_; }

    /// Schedules @p action to run at absolute time @p when (>= now).
    /// @p kind tags the event for the self-profiler ("frame-delivery",
    /// "tcp-rto", ...); it must be a string literal or otherwise outlive
    /// the event. Untagged events profile under "event".
    EventId schedule_at(TimePoint when, std::function<void()> action,
                        const char* kind = nullptr);

    /// Schedules @p action to run @p delay from now.
    EventId schedule_in(Duration delay, std::function<void()> action,
                        const char* kind = nullptr) {
        return schedule_at(now_ + delay, std::move(action), kind);
    }

    /// Returns this simulator's lane for @p delay (>= 0), creating it on
    /// first use; the same delay always yields the same lane.
    Lane lane(Duration delay);

    /// Schedules @p action to run @p lane's delay from now. Behaves exactly
    /// like schedule_in(delay, ...) — same dispatch order, same cancellable
    /// EventId — but is cheaper for a timer re-armed at one fixed delay.
    EventId schedule_on(Lane lane, std::function<void()> action,
                        const char* kind = nullptr);

    /// Cancels a pending event and releases its callable. Cancelling an
    /// already-fired, already-cancelled or unknown id is a harmless no-op
    /// (timers race with the events that cancel them) and leaves nothing
    /// behind.
    void cancel(EventId id);

    /// Runs until the queue drains or @p max_events fire. Returns the
    /// number of events executed.
    std::size_t run(std::size_t max_events = kDefaultEventLimit);

    /// Runs events with timestamps <= @p until.
    std::size_t run_until(TimePoint until);

    /// Hands out the next packet-journey id (1, 2, 3, ...). Every IP stack
    /// in a simulation draws from this one counter, so ids are unique
    /// network-wide and — the scheduler being deterministic — reproducible
    /// run to run.
    std::uint64_t next_packet_id() noexcept { return next_packet_id_++; }

    /// Hands out the next NIC MAC id (1, 2, 3, ...). Scoped to this
    /// simulator — not process-global — so a World's MAC addresses depend
    /// only on its own construction order, never on how many other worlds
    /// this process (or a parallel sweep job on another thread) built
    /// first. That scoping is what makes sweep shards byte-identical to a
    /// serial run.
    std::uint32_t next_mac_id() noexcept { return next_mac_id_++; }

    /// Hands out the next ICMP echo identifier. Per-simulator for the same
    /// reproducibility reason as next_mac_id().
    std::uint16_t next_ping_ident() noexcept { return next_ping_ident_++; }

    /// The world's packet-payload recycler (see net::BufferPool): the link
    /// layer and the IP serialization path draw payload storage from here
    /// and return it after delivery. Single-threaded like the simulator.
    net::BufferPool& buffer_pool() noexcept { return buffer_pool_; }
    const net::BufferPool& buffer_pool() const noexcept { return buffer_pool_; }

    /// The world's observability-record arena (see sim::RecordArena): the
    /// trace recorder and decision log draw their chunk storage from here,
    /// so clearing a window recycles storage instead of freeing it.
    /// Single-threaded like the simulator and the buffer pool.
    RecordArena& record_arena() noexcept { return record_arena_; }
    const RecordArena& record_arena() const noexcept { return record_arena_; }

    /// Keys in the queue (heap and lanes), live and cancelled-but-not-yet-
    /// popped alike.
    std::size_t pending_events() const noexcept { return heap_.size() + lane_backlog_; }
    /// Cancelled events whose keys are still in the queue. Stale cancels
    /// never count, so this is bounded by pending_events().
    std::size_t cancelled_backlog() const noexcept { return dead_; }

    /// Cumulative count of events dispatched over the simulator's lifetime
    /// (bench_perf's events/sec numerator; monotone, never reset).
    std::uint64_t events_fired() const noexcept { return events_fired_; }

    /// Attaches (or, with nullptr, detaches) a self-profiler. Off by
    /// default; when detached the per-event cost is one pointer compare.
    /// The profiler must outlive its attachment.
    void set_profiler(SimProfiler* profiler) noexcept { profiler_ = profiler; }
    SimProfiler* profiler() const noexcept { return profiler_; }

    static constexpr std::size_t kDefaultEventLimit = 10'000'000;

private:
    /// What the heap and the lanes order. (when, seq) is the total order;
    /// seq is unique, so slot and lane never break a tie.
    struct Key {
        TimePoint when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t lane;  ///< lane index + 1 for a lane key; 0 = a heap key
    };
    static_assert(sizeof(Key) == 24, "the lane tag must fit the key's padding");

    /// A fixed-delay lane: a power-of-two ring of the keys queued behind
    /// the one it has in the heap (queued says whether it has one).
    struct LaneRing {
        Duration delay = 0;
        std::vector<Key> ring;
        std::size_t head = 0;
        std::size_t size = 0;
        bool queued = false;
    };

    /// One event's payload. A slot is free (on free_slots_), live (its
    /// key is queued and its handle cancels it) or dead (cancelled, its
    /// key still queued). Leaving the live state bumps the generation,
    /// which is what turns outstanding handles stale.
    struct Slot {
        std::function<void()> action;
        const char* kind = nullptr;  ///< profiler tag; nullptr = generic "event"
        std::uint32_t generation = 0;
        bool live = false;
    };

    static bool before(const Key& a, const Key& b) noexcept {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /// Stores @p action in a free (or new) slot and marks it live.
    std::uint32_t acquire_slot(std::function<void()>&& action, const char* kind);
    static EventId handle(std::uint32_t slot, std::uint32_t generation) noexcept {
        return (static_cast<EventId>(generation) << 32) | (EventId{slot} + 1);
    }

    void heap_push(Key key);
    /// Replaces the heap top with @p key and sifts it down.
    void heap_replace_top(Key key);

    /// Fires the next live event with timestamp <= @p limit. Returns
    /// false when none qualifies (dead keys up to the limit are freed
    /// either way).
    bool fire_next(TimePoint limit);

    TimePoint now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_packet_id_ = 1;
    std::uint32_t next_mac_id_ = 1;
    std::uint16_t next_ping_ident_ = 1;
    net::BufferPool buffer_pool_;
    RecordArena record_arena_;
    std::uint64_t events_fired_ = 0;
    SimProfiler* profiler_ = nullptr;
    std::vector<Key> heap_;  ///< 4-ary: children of i are 4i+1 .. 4i+4
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<LaneRing> lanes_;
    std::size_t lane_backlog_ = 0;  ///< keys in lane rings (not in the heap)
    std::size_t dead_ = 0;
};

}  // namespace mip::sim
