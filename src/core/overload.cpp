#include "core/overload.h"

#include <algorithm>
#include <utility>

#include "obs/decision.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

namespace mip::core {

const char* to_string(RequestClass c) noexcept {
    return c == RequestClass::Renewal ? "renewal" : "new";
}

// ---- DecorrelatedBackoff -----------------------------------------------------

sim::Duration decorrelated_delay(sim::Duration base, sim::Duration cap, sim::Duration prev,
                                 std::uint64_t draw) noexcept {
    if (prev == 0) prev = base;
    // Uniform in [base, 3 x prev). 3 x prev <= base only when prev == base
    // and base is tiny; guard the empty range anyway.
    const sim::Duration hi = std::max<sim::Duration>(3 * prev, base + 1);
    const auto span = static_cast<std::uint64_t>(hi - base);
    return std::min(base + static_cast<sim::Duration>(draw % span), cap);
}

sim::Duration DecorrelatedBackoff::next() {
    prev_ = decorrelated_delay(base_, cap_, prev_, draw(seed_, draws_++));
    return prev_;
}

// ---- TokenBucket -------------------------------------------------------------

void TokenBucket::refill(sim::TimePoint now) {
    if (now <= last_) return;
    tokens_ = std::min(burst_, tokens_ + rate_ * sim::to_seconds(now - last_));
    last_ = now;
}

bool TokenBucket::try_take(sim::TimePoint now) {
    refill(now);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
}

double TokenBucket::tokens(sim::TimePoint now) {
    refill(now);
    return tokens_;
}

// ---- RegistrationQueue -------------------------------------------------------

void RegistrationQueue::audit(RequestClass cls, const std::string& who,
                              const char* test, bool passed, std::string input,
                              std::string detail) {
    if (decisions_ == nullptr) return;
    obs::DecisionEvent ev;
    ev.when = sim_.now();
    ev.node = node_;
    ev.correspondent = who;
    ev.trigger = "overload";
    ev.test = test;
    ev.input = std::move(input);
    ev.passed = passed;  // false = the request did not get through
    ev.in_mode = to_string(cls);
    ev.detail = std::move(detail);
    decisions_->record(std::move(ev));
}

bool RegistrationQueue::submit(RequestClass cls, const std::string& who,
                               std::function<void()> work) {
    const sim::TimePoint now = sim_.now();

    // Admission: only the New class spends tokens — renewals of existing
    // bindings ride the fast-path regardless of how hard new arrivals
    // hammer the door.
    if (cls == RequestClass::New && config_.new_tokens_per_sec > 0.0 &&
        !bucket_.try_take(now)) {
        ++stats_.shed_new_bucket;
        audit(cls, who, "admission", false, "tokens=0",
              "new registration denied by token bucket; client recovers via retry");
        return false;
    }

    if (config_.queue_capacity > 0 && depth() >= config_.queue_capacity) {
        if (cls == RequestClass::Renewal) {
            if (!fresh_.empty()) {
                // Priority: the renewal evicts the oldest queued New.
                ++stats_.shed_new_queue;
                audit(RequestClass::New, fresh_.front().who, "queue-evict", false,
                      "depth=" + std::to_string(depth()),
                      "oldest new registration evicted for an arriving renewal");
                fresh_.pop_front();
            } else {
                // Queue is all renewals: drop-oldest within the class.
                ++stats_.shed_renewal_queue;
                audit(RequestClass::Renewal, renewals_.front().who, "queue-evict",
                      false, "depth=" + std::to_string(depth()),
                      "oldest renewal evicted for an arriving renewal");
                renewals_.pop_front();
            }
        } else {
            if (!fresh_.empty()) {
                // Drop-oldest within the New class: the arriving request
                // is fresher evidence of demand than the one that has
                // already waited longest.
                ++stats_.shed_new_queue;
                audit(RequestClass::New, fresh_.front().who, "queue-evict", false,
                      "depth=" + std::to_string(depth()),
                      "oldest new registration evicted for an arriving one");
                fresh_.pop_front();
            } else {
                // Full queue holds only renewals: a New never evicts one.
                ++stats_.shed_new_queue;
                audit(cls, who, "queue-full", false,
                      "depth=" + std::to_string(depth()),
                      "queue full of renewals; arriving new registration shed");
                return false;
            }
        }
    }

    auto& q = cls == RequestClass::Renewal ? renewals_ : fresh_;
    if (depth() > 0) {
        ++stats_.deferred;
        audit(cls, who, "defer", true, "depth=" + std::to_string(depth()),
              "admitted behind queued work; served within depth x service_time");
    }
    q.push_back(Item{who, std::move(work)});
    stats_.queue_peak = std::max(stats_.queue_peak, depth());
    ensure_service_scheduled();
    return true;
}

void RegistrationQueue::ensure_service_scheduled() {
    if (service_armed_ || depth() == 0) return;
    service_armed_ = true;
    service_timer_ = sim_.schedule_in(
        config_.service_time,
        [this] {
            service_armed_ = false;
            service_one();
        },
        "overload-service");
}

void RegistrationQueue::service_one() {
    auto& q = !renewals_.empty() ? renewals_ : fresh_;
    if (q.empty()) return;
    Item item = std::move(q.front());
    q.pop_front();
    if (&q == &renewals_) {
        ++stats_.served_renewal;
    } else {
        ++stats_.served_new;
    }
    ensure_service_scheduled();  // before work: work may submit more
    if (item.work) item.work();
}

void RegistrationQueue::clear() {
    renewals_.clear();
    fresh_.clear();
    if (service_armed_) {
        sim_.cancel(service_timer_);
        service_armed_ = false;
    }
}

void RegistrationQueue::attach_metrics(obs::MetricsRegistry& metrics,
                                       const std::string& node) {
    const std::string layer = "overload";
    metrics.register_gauge(node, layer, "queue_depth",
                           [this] { return static_cast<double>(depth()); });
    metrics.register_gauge(node, layer, "queue_peak", [this] {
        return static_cast<double>(stats_.queue_peak);
    });
    metrics.register_gauge(node, layer, "served_renewal", [this] {
        return static_cast<double>(stats_.served_renewal);
    });
    metrics.register_gauge(node, layer, "served_new", [this] {
        return static_cast<double>(stats_.served_new);
    });
    metrics.register_gauge(node, layer, "shed_new_bucket", [this] {
        return static_cast<double>(stats_.shed_new_bucket);
    });
    metrics.register_gauge(node, layer, "shed_new_queue", [this] {
        return static_cast<double>(stats_.shed_new_queue);
    });
    metrics.register_gauge(node, layer, "shed_renewal_queue", [this] {
        return static_cast<double>(stats_.shed_renewal_queue);
    });
    metrics.register_gauge(node, layer, "shed_total",
                           [this] { return static_cast<double>(shed_total()); });
    metrics.register_gauge(node, layer, "deferred", [this] {
        return static_cast<double>(stats_.deferred);
    });
    metrics.register_gauge(node, layer, "tokens",
                           [this] { return bucket_.tokens(sim_.now()); });
}

void RegistrationQueue::set_decision_log(obs::DecisionLog* log, std::string node) {
    decisions_ = log;
    node_ = std::move(node);
}

// ---- monitors ----------------------------------------------------------------

void arm_overload_monitors(obs::HealthMonitor& monitor, const std::string& node,
                           double depth_trip, double shed_min_rate) {
    obs::RateSpikeRule shed;
    shed.name = node + "-shed-spike";
    shed.node = node;
    shed.layer = "overload";
    shed.metric = "shed_total";
    shed.source = obs::MetricSource::Gauge;
    shed.min_rate = shed_min_rate;
    shed.spike_factor = 0.0;  // fixed per-evaluation rate threshold
    shed.detail = "registration shedding burst: the agent is refusing load";
    monitor.add_rate_spike(std::move(shed));

    obs::WatermarkRule depth;
    depth.name = node + "-queue-watermark";
    depth.node = node;
    depth.layer = "overload";
    depth.metric = "queue_depth";
    depth.source = obs::MetricSource::Gauge;
    depth.trip_at = depth_trip;
    depth.clear_at = depth_trip / 4.0;
    depth.detail = "registration queue depth past the collapse watermark";
    monitor.add_watermark(std::move(depth));
}

}  // namespace mip::core
