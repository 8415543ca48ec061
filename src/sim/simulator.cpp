#include "sim/simulator.h"

#include <chrono>
#include <limits>
#include <stdexcept>

#include "sim/profiler.h"

namespace mip::sim {

std::uint32_t Simulator::acquire_slot(std::function<void()>&& action, const char* kind) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
        if (slots_.size() == std::numeric_limits<std::uint32_t>::max()) {
            throw std::length_error("Simulator: too many pending events");
        }
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    s.action = std::move(action);
    s.kind = kind;
    s.live = true;
    return slot;
}

EventId Simulator::schedule_at(TimePoint when, std::function<void()> action,
                               const char* kind) {
    if (when < now_) {
        throw std::logic_error("Simulator::schedule_at in the past");
    }
    const std::uint32_t slot = acquire_slot(std::move(action), kind);
    heap_push(Key{when, next_seq_++, slot, 0});
    return handle(slot, slots_[slot].generation);
}

Lane Simulator::lane(Duration delay) {
    if (delay < 0) {
        throw std::invalid_argument("Simulator::lane with a negative delay");
    }
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (lanes_[i].delay == delay) return Lane(static_cast<std::uint32_t>(i));
    }
    lanes_.emplace_back().delay = delay;
    return Lane(static_cast<std::uint32_t>(lanes_.size() - 1));
}

EventId Simulator::schedule_on(Lane lane, std::function<void()> action, const char* kind) {
    if (lane.index_ >= lanes_.size()) {
        throw std::invalid_argument("Simulator::schedule_on: not one of this simulator's lanes");
    }
    const std::uint32_t slot = acquire_slot(std::move(action), kind);
    LaneRing& l = lanes_[lane.index_];
    // now_ never decreases and seq only grows, so this key sorts after
    // every key already on the lane: appending keeps the ring ordered.
    const Key key{now_ + l.delay, next_seq_++, slot, lane.index_ + 1};
    if (!l.queued) {
        l.queued = true;
        heap_push(key);
    } else {
        if (l.size == l.ring.size()) {
            // Grow to the next power of two, unrolling the ring in order.
            std::vector<Key> grown(l.ring.empty() ? 16 : 2 * l.ring.size());
            for (std::size_t i = 0; i < l.size; ++i) {
                grown[i] = l.ring[(l.head + i) & (l.ring.size() - 1)];
            }
            l.ring = std::move(grown);
            l.head = 0;
        }
        l.ring[(l.head + l.size) & (l.ring.size() - 1)] = key;
        ++l.size;
        ++lane_backlog_;
    }
    return handle(slot, slots_[slot].generation);
}

void Simulator::cancel(EventId id) {
    // id 0 wraps to a huge index and falls out with the never-issued ones.
    const std::uint64_t slot = (id & 0xffff'ffffu) - 1;
    if (slot >= slots_.size()) return;
    Slot& s = slots_[slot];
    if (!s.live || s.generation != static_cast<std::uint32_t>(id >> 32)) return;
    s.live = false;
    ++s.generation;
    ++dead_;
    // Destroy the callable from a local: its captures' destructors may
    // schedule or cancel, which can grow slots_ under `s`.
    const std::function<void()> doomed = std::move(s.action);
}

void Simulator::heap_push(Key key) {
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(key, heap_[parent])) break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

void Simulator::heap_replace_top(Key key) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], key)) break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = key;
}

bool Simulator::fire_next(TimePoint limit) {
    while (!heap_.empty() && heap_.front().when <= limit) {
        const Key top = heap_.front();
        // Refill the root from the top's lane when the lane has a next
        // key, else from the heap's last leaf, then sift it down once.
        Key refill{};
        LaneRing* lane = top.lane != 0 ? &lanes_[top.lane - 1] : nullptr;
        if (lane != nullptr && lane->size != 0) {
            refill = lane->ring[lane->head];
            lane->head = (lane->head + 1) & (lane->ring.size() - 1);
            --lane->size;
            --lane_backlog_;
        } else {
            if (lane != nullptr) lane->queued = false;
            refill = heap_.back();
            heap_.pop_back();
        }
        if (!heap_.empty()) {
            heap_replace_top(refill);
            // Slots are reused out of time order, so the next event's slot
            // is usually a cache miss: start loading it under this handler.
            __builtin_prefetch(&slots_[heap_.front().slot]);
        }
        Slot& s = slots_[top.slot];
        if (!s.live) {
            --dead_;
            free_slots_.push_back(top.slot);
            continue;
        }
        // Move the callable out and free the slot before running it: the
        // handler may schedule (reusing this slot, growing slots_) or
        // cancel its own, now stale, handle.
        const std::function<void()> action = std::move(s.action);
        const char* kind = s.kind;
        s.live = false;
        ++s.generation;
        free_slots_.push_back(top.slot);

        now_ = top.when;
        ++events_fired_;
        if (profiler_ != nullptr) {
            // Attach-time guard: the disabled path above pays only the
            // nullptr compare. Queue/backlog sizes are read after the
            // handler so the gauges see what the handler scheduled.
            const auto t0 = std::chrono::steady_clock::now();
            action();
            const auto t1 = std::chrono::steady_clock::now();
            profiler_->record(
                kind,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
                pending_events(), dead_);
        } else {
            action();
        }
        return true;
    }
    return false;
}

std::size_t Simulator::run(std::size_t max_events) {
    std::size_t fired = 0;
    while (fired < max_events && fire_next(std::numeric_limits<TimePoint>::max())) {
        ++fired;
    }
    return fired;
}

std::size_t Simulator::run_until(TimePoint until) {
    std::size_t fired = 0;
    while (fire_next(until)) {
        ++fired;
    }
    if (now_ < until) now_ = until;
    return fired;
}

}  // namespace mip::sim
