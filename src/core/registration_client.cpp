#include "core/registration_client.h"

#include <algorithm>

#include "core/overload.h"

namespace mip::core {

void RegistrationClient::start(bool bounded) noexcept {
    bounded_ = bounded;
    attempt_ = 0;
    prev_ = 0;
    circuit_open_ = false;  // a fresh exchange is on the ramp, not probing
}

std::uint64_t RegistrationClient::send() noexcept {
    pending_ = !bounded_ || attempt_ < policy_.max_attempts;
    if (!pending_) return 0;
    xid_ = ++issued_;
    return xid_;
}

bool RegistrationClient::reply(std::uint64_t xid, bool granted) noexcept {
    if (xid != xid_) return false;
    pending_ = false;
    if (granted) reset();  // the agent answered: close the circuit
    return true;
}

void RegistrationClient::reset() noexcept {
    pending_ = false;
    circuit_open_ = false;
    prev_ = 0;
}

Retry RegistrationClient::advance() noexcept {
    attempt_ = static_cast<std::uint8_t>(std::min(attempt_ + 1u, kMaxAttempt));
    Retry r;
    r.parked = !bounded_ && policy_.retry_budget > 0 && attempt_ > policy_.retry_budget;
    r.opened = r.parked && !circuit_open_;
    circuit_open_ = circuit_open_ || r.parked;
    return r;
}

sim::Duration RegistrationClient::ramp(std::uint64_t draw) noexcept {
    prev_ = decorrelated_delay(policy_.base, policy_.cap, prev_, draw);
    return prev_;
}

sim::Duration RegistrationClient::doubling(unsigned attempt) const noexcept {
    sim::Duration delay = policy_.base;
    for (unsigned i = 0; i < attempt && delay < policy_.cap; ++i) delay *= 2;
    return std::min(delay, policy_.cap);
}

sim::Duration RegistrationClient::probe_delay(std::uint64_t draw) const noexcept {
    const auto span =
        static_cast<std::uint64_t>(std::max<sim::Duration>(policy_.probe_interval / 2, 1));
    return policy_.probe_interval * 3 / 4 + static_cast<sim::Duration>(draw % span);
}

sim::Duration RegistrationClient::jittered_renewal(sim::Duration lifetime,
                                                   std::uint64_t draw) noexcept {
    // Cohorts that registered together (an initial attach, a post-flap
    // storm) would otherwise renew together for ever.
    const auto span = static_cast<std::uint64_t>(std::max<sim::Duration>(lifetime * 3 / 10, 1));
    return lifetime * 3 / 5 + static_cast<sim::Duration>(draw % span);
}

}  // namespace mip::core
