// The client side of Mobile IP registration (paper §2), written once for
// MobileHost (UDP 434) and metro::CitySim (analytic latency). Sans-I/O:
// the client holds one exchange's state and applies the policy; the driver
// sends, arms its own timers and supplies every random draw from its own
// seeded stream. Nothing here owns a timer, allocates or calls back.
//
// Policy: a retry waits uniform in [base, 3 x previous), capped, or
// doubles in lockstep when jitter is off. A background exchange whose next
// attempt exceeds a non-zero retry budget opens the circuit and parks,
// probing at the probe interval +-25%; a bounded one gives up after
// max_attempts sends. Only a reply with the latest send's xid counts; a
// granting one closes the circuit and restarts the ramp. Renewal comes at
// 4/5 of the lifetime, or in [0.6, 0.9) of it when jittered.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace mip::core {

struct RetryPolicy {
    sim::Duration base = 0;     ///< first retry delay and the ramp's floor
    sim::Duration cap = 0;      ///< longest retry delay
    bool jitter = true;         ///< jittered retries and renewal point
    unsigned retry_budget = 0;  ///< background retries before parking; 0 = none
    sim::Duration probe_interval = 0;
    unsigned max_attempts = 0;  ///< sends a bounded exchange makes
};

/// What a requested draw is for; a driver may serve several from one stream.
enum class Draw : std::uint8_t { Ramp, Probe, Renewal };

struct Retry {
    sim::Duration delay = 0;
    bool parked = false;  ///< the budget is spent: the next send is a probe
    bool opened = false;  ///< this retry opened the circuit
};

class RegistrationClient {
public:
    static constexpr unsigned kMaxAttempt = 16;  ///< attempts stop counting here

    explicit RegistrationClient(const RetryPolicy& policy) : policy_(policy) {}

    /// Opens a fresh exchange at attempt 0, circuit closed; a @p bounded one may give up.
    void start(bool bounded) noexcept;
    /// Stamps one send and returns its xid; 0 ends a bounded exchange that
    /// has made max_attempts sends.
    std::uint64_t send() noexcept;
    /// An xid for a message outside the exchange (a deregistration).
    std::uint64_t untracked_xid() noexcept { return ++issued_; }
    /// The wait before the next attempt. @p draw(Draw) returns one uniform
    /// draw from the driver's stream, called only when the policy needs one.
    template <class DrawFn>
    Retry retry(DrawFn&& draw) {
        const unsigned sent = attempt_;
        Retry r = advance();
        r.delay = r.parked         ? probe_delay(draw(Draw::Probe))
                  : policy_.jitter ? ramp(draw(Draw::Ramp))
                                   : doubling(sent);
        return r;
    }
    bool unanswered(std::uint64_t xid) const noexcept { return pending_ && xid == xid_; }
    /// False (ignore it) unless @p xid is the latest send's; then the
    /// exchange ends.
    bool reply(std::uint64_t xid, bool granted) noexcept;
    /// Abandons the exchange and closes the circuit (an attach transition).
    void reset() noexcept;

    /// Wait from a granted reply to the renewal.
    template <class DrawFn>
    sim::Duration renewal(sim::Duration lifetime, DrawFn&& draw) const {
        return policy_.jitter ? jittered_renewal(lifetime, draw(Draw::Renewal))
                              : renewal_point(lifetime);
    }
    static constexpr sim::Duration renewal_point(sim::Duration lifetime) noexcept {
        return lifetime / 5 * 4;
    }

    unsigned attempt() const noexcept { return attempt_; }
    bool circuit_open() const noexcept { return circuit_open_; }

private:
    Retry advance() noexcept;
    sim::Duration ramp(std::uint64_t draw) noexcept;
    sim::Duration doubling(unsigned attempt) const noexcept;
    sim::Duration probe_delay(std::uint64_t draw) const noexcept;
    static sim::Duration jittered_renewal(sim::Duration lifetime, std::uint64_t draw) noexcept;

    RetryPolicy policy_;
    std::uint64_t issued_ = 0;  ///< last xid handed out
    std::uint64_t xid_ = 0;     ///< the latest send's
    sim::Duration prev_ = 0;    ///< previous ramp delay; 0 = fresh ramp
    std::uint8_t attempt_ = 0;
    bool bounded_ = false;
    bool pending_ = false;
    bool circuit_open_ = false;
};

}  // namespace mip::core
