#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "app/echo.h"
#include "core/scenario.h"
#include "metro/city.h"
#include "mobility/handoff.h"
#include "mobility/motion.h"
#include "obs/metrics_view.h"
#include "transport/pinger.h"

namespace hostbench {

using namespace mip;

namespace {

// Seed streams (derive_seed): one per independent input.
constexpr std::uint64_t kWorldStream = 1;
constexpr std::uint64_t kMobilityStream = 2;
constexpr std::uint64_t kPopulationStream = 3;
constexpr std::uint64_t kTraceSampleStream = 4;
constexpr std::uint64_t kPayloadStream = 5;

/// Deliverability floor the repository asserts for the metro city
/// (tests/test_metro.cpp: at least 90% of probes find a fresh binding).
constexpr double kCityDeliverabilityFloor = 0.9;
/// Recovery bound abl_overload holds its protected city leg to
/// (bench/overload_sweep.h, kCityRecoveryBound).
constexpr sim::Duration kCityRecoveryBound = sim::seconds(60);

std::string fmt(const char* f, double a, double b) {
    char buf[128];
    std::snprintf(buf, sizeof buf, f, a, b);
    return buf;
}

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::uint64_t w = rng();
        for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
            out[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
        }
    }
    return out;
}

/// Drives a World's simulated clock in one-second slices, reporting each.
void run_sliced(core::World& world, sim::Duration horizon, const SliceHook& hook) {
    const double start_s = sim::to_seconds(world.sim.now());
    for (sim::Duration done = 0; done < horizon;) {
        const sim::Duration step = std::min(sim::seconds(1), horizon - done);
        world.run_for(step);
        if (hook) {
            hook(start_s + sim::to_seconds(done), start_s + sim::to_seconds(done + step));
        }
        done += step;
    }
}

// ---------------------------------------------------------------------------
// bulk_tunnel_tcp: the bench_perf "large" shape. Every correspondent is
// Conventional, so everything toward the mobile host is tunneled by the home
// agent (In-IE); the mobile host's default aggressive-first selection picks
// the outgoing mode and falls back on TCP failure signals.
class BulkTunnelTcp final : public Workload {
public:
    BulkTunnelTcp(std::uint64_t seed, Size size) : seed_(seed) {
        if (size == Size::Smoke) {
            routers_ = 6, correspondents_ = 2, horizon_ = sim::seconds(5), bytes_ = 64 * 1024;
        }
    }

    void build() override {
        core::WorldConfig cfg;
        cfg.backbone_routers = routers_;
        cfg.seed = derive_seed(seed_, kWorldStream);
        cfg.trace_sample_seed = derive_seed(seed_, kTraceSampleStream);
        world_ = std::make_unique<core::World>(cfg);
        for (int i = 0; i < correspondents_; ++i) {
            core::CorrespondentHost& ch = world_->create_correspondent(
                {}, core::Placement::CorrLan, static_cast<std::uint32_t>(20 + i));
            servers_.push_back(std::make_unique<app::TcpEchoServer>(ch.tcp(), kPort));
            correspondents_list_.push_back(&ch);
        }
        world_->create_mobile_host();
    }

    void attach() override { attached_ = world_->attach_mobile_foreign(); }

    void run(const SliceHook& hook) override {
        events_before_ = world_->sim.events_fired();
        core::MobileHost& mh = world_->mobile_host();
        flows_.resize(correspondents_list_.size());
        for (std::size_t i = 0; i < correspondents_list_.size(); ++i) {
            Flow& f = flows_[i];
            f.payload = random_bytes(derive_seed(seed_, kPayloadStream) + i, bytes_);
            f.sent_hash = fnv1a(f.payload.data(), f.payload.size());
            f.conn = &mh.tcp().connect(correspondents_list_[i]->address(), kPort);
            f.conn->set_data_callback(
                [this, &f](std::span<const std::uint8_t> d, const transport::RxMeta&) {
                    f.echoed += d.size();
                    f.echo_hash = fnv1a(d.data(), d.size(), f.echo_hash);
                    if (f.echoed == f.sent) send_chunk(f);
                });
            send_chunk(f);
        }
        run_sliced(*world_, horizon_, hook);
        for (Flow& f : flows_) f.conn->close();
        run_sliced(*world_, sim::milliseconds(500), hook);
    }

    Outcome outcome() override {
        Outcome o;
        o.events = world_->sim.events_fired() - events_before_;
        o.attempted_units = static_cast<std::uint64_t>(flows_.size()) * bytes_;
        bool content_ok = true;
        bool alive_ok = true;
        for (const Flow& f : flows_) {
            o.delivered_units += f.echoed;
            content_ok = content_ok && f.echoed == bytes_ && f.echo_hash == f.sent_hash;
            alive_ok = alive_ok && f.conn->state() != transport::TcpState::Failed &&
                       f.conn->state() != transport::TcpState::Reset;
        }
        o.registrations = world_->mobile_host().stats().registrations_sent;
        o.snapshot = world_->metrics.snapshot_json("hostbench", "bulk_tunnel_tcp",
                                                   world_->sim.now());
        o.checks.push_back(Check{"mobile host registered on the foreign LAN", attached_, {}});
        o.checks.push_back(Check{"every byte echoed, in order", content_ok,
                                 fmt("%.0f of %.0f bytes", double(o.delivered_units),
                                     double(o.attempted_units))});
        o.checks.push_back(Check{"no connection failed or reset", alive_ok, {}});
        return o;
    }

    core::World* world() override { return world_.get(); }
    std::vector<const transport::TcpConnection*> tcp_connections() const override {
        std::vector<const transport::TcpConnection*> out;
        for (const Flow& f : flows_) out.push_back(f.conn);
        return out;
    }
    std::uint64_t app_payload_bytes() const override {
        std::uint64_t bytes = 0;
        for (const Flow& f : flows_) bytes += f.sent + f.echoed;
        return bytes;
    }

private:
    static constexpr std::uint16_t kPort = 7200;
    /// Closed loop: the next chunk goes out only once the previous one has
    /// been echoed back in full.
    static constexpr std::size_t kChunk = 64 * 1024;

    struct Flow {
        transport::TcpConnection* conn = nullptr;
        std::vector<std::uint8_t> payload;
        std::size_t sent = 0;
        std::size_t echoed = 0;
        std::uint64_t sent_hash = 0;
        std::uint64_t echo_hash = 0xcbf29ce484222325ULL;
    };

    static void send_chunk(Flow& f) {
        const std::size_t n = std::min(kChunk, f.payload.size() - f.sent);
        if (n == 0) return;
        f.conn->send(std::span<const std::uint8_t>(f.payload).subspan(f.sent, n));
        f.sent += n;
    }

    std::uint64_t seed_;
    int routers_ = 16;
    int correspondents_ = 6;
    sim::Duration horizon_ = sim::seconds(60);
    std::size_t bytes_ = 1024 * 1024;

    std::unique_ptr<core::World> world_;
    std::vector<core::CorrespondentHost*> correspondents_list_;
    std::vector<std::unique_ptr<app::TcpEchoServer>> servers_;
    std::vector<Flow> flows_;
    bool attached_ = false;
    std::uint64_t events_before_ = 0;
};

// ---------------------------------------------------------------------------
// roaming_small_pkts: a random-waypoint ride over four cells (home, foreign
// with a co-located care-of address, foreign via its agent, correspondent
// LAN) while three correspondents send an open loop of 56-byte pings and
// small UDP echoes to the home address: Conventional (In-IE), MobileAware
// across the backbone (In-DE once the home agent's care-of advert lands) and
// MobileAware on the visited LAN (In-DH while the host shares its segment).
class RoamingSmallPkts final : public Workload {
public:
    RoamingSmallPkts(std::uint64_t seed, Size size) : seed_(seed) {
        if (size == Size::Smoke) horizon_ = sim::seconds(60);
    }

    void build() override {
        core::WorldConfig cfg;
        cfg.seed = derive_seed(seed_, kWorldStream);
        cfg.trace_sample_seed = derive_seed(seed_, kTraceSampleStream);
        cfg.home_agent.send_care_of_adverts = true;
        world_ = std::make_unique<core::World>(cfg);
        core::ForeignAgentConfig fa;
        fa.reverse_tunnel = true;  // home-sourced packets would hit the home ingress filter
        world_->create_foreign_agent(fa);

        const auto add = [&](core::Awareness awareness, core::Placement where,
                             std::uint32_t index) {
            core::CorrespondentConfig config;
            config.awareness = awareness;
            config.advert_binding_ttl = kAdvertBindingTtl;
            core::CorrespondentHost& ch = world_->create_correspondent(config, where, index);
            auto s = std::make_unique<Sender>();
            s->pinger = std::make_unique<transport::Pinger>(ch.stack());
            s->socket = ch.udp().open();
            Sender* raw = s.get();
            s->socket->set_receiver(
                [raw](std::span<const std::uint8_t>, const transport::RxMeta&) {
                    ++raw->udp_replies;
                });
            senders_.push_back(std::move(s));
        };
        add(core::Awareness::Conventional, core::Placement::CorrLan, 20);
        add(core::Awareness::MobileAware, core::Placement::CorrLan, 21);
        add(core::Awareness::MobileAware, core::Placement::ForeignLan, 20);

        core::MobileHost& mh = world_->create_mobile_host();
        echo_ = std::make_unique<app::UdpEchoServer>(mh.udp(), kEchoPort);
    }

    void attach() override {
        using namespace mobility;
        // Quadrant cells with 100 m overlaps: full coverage, four kinds of
        // attachment.
        CoverageMap map;
        map.add(world_->home_cell(Region::rect(0, 0, 550, 550), /*priority=*/1))
            .add(world_->foreign_cell(Region::rect(450, 0, 1000, 550)))
            .add(world_->foreign_agent_cell(Region::rect(0, 450, 550, 1000)))
            .add(world_->corr_cell(Region::rect(450, 450, 1000, 1000)));
        world_->with_mobility(std::make_unique<TraceMobility>(ride()), std::move(map));
        world_->run_for(sim::milliseconds(200));  // the initial home association
        attached_ = world_->mobile_host().at_home();
    }

    /// The seeded random-waypoint ride: each waypoint is a uniform point in
    /// the interior of a cell, and each leg moves to a neighbouring cell
    /// (rounds of four legs around the quadrants, clockwise or not as the
    /// seed decides), with a fixed travel time and dwell per leg. Every cell
    /// gets the same share of the horizon and every leg is one handoff, on
    /// every seed, so the simulated work depends on the seed far less than
    /// a free random walk's would.
    std::vector<mobility::TraceMobility::Waypoint> ride() const {
        // Cells around the ring: home, foreign, corr, via agent. Interiors
        // lie outside the 100 m overlaps.
        constexpr double kCorner[4][2] = {{0, 0}, {550, 0}, {550, 550}, {0, 550}};
        constexpr double kSpan = 450;
        std::mt19937_64 rng(derive_seed(seed_, kMobilityStream));
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::vector<mobility::TraceMobility::Waypoint> points;
        sim::TimePoint t = 0;
        int at = 0;  // the ride starts at home
        const auto visit = [&] {
            const mobility::Position p{kCorner[at][0] + kSpan * unit(rng),
                                       kCorner[at][1] + kSpan * unit(rng)};
            if (!points.empty()) t += kTravel;
            points.push_back({t, p});
            t += kDwell;
            points.push_back({t, p});
        };
        visit();
        while (t < horizon_ + kTail) {
            const int step = (rng() & 1) != 0 ? 1 : 3;
            for (int leg = 0; leg < 4; ++leg) {
                at = (at + step) % 4;
                visit();
            }
        }
        return points;
    }

    void run(const SliceHook& hook) override {
        events_before_ = world_->sim.events_fired();
        const net::Ipv4Address home = world_->mobile_host().home_address();
        const std::vector<std::uint8_t> udp_payload =
            random_bytes(derive_seed(seed_, kPayloadStream), kUdpPayload);
        // Open loop in simulated time: every kPeriod each correspondent
        // sends one echo request and one UDP datagram, whatever happened to
        // the previous ones.
        const double start_s = sim::to_seconds(world_->sim.now());
        const std::int64_t ticks = horizon_ / kPeriod;
        const std::int64_t ticks_per_slice = sim::seconds(1) / kPeriod;
        for (std::int64_t t = 0; t < ticks; ++t) {
            for (auto& s : senders_) {
                Sender* raw = s.get();
                raw->pinger->ping(
                    home,
                    [raw](std::optional<sim::Duration> rtt, const transport::RxMeta&) {
                        ++(rtt ? raw->answered : raw->timed_out);
                    },
                    kPingTimeout, kPingPayload);
                ++raw->pings;
                raw->socket->send_to(home, kEchoPort, udp_payload);
                ++raw->udp_sent;
            }
            world_->run_for(kPeriod);
            if (hook && (t + 1) % ticks_per_slice == 0) {
                const double to_s = start_s + sim::to_seconds((t + 1) * kPeriod);
                hook(to_s - 1.0, to_s);
            }
        }
        // Drain: every outstanding ping answers or times out.
        run_sliced(*world_, kPingTimeout + sim::seconds(1), hook);
    }

    Outcome outcome() override {
        Outcome o;
        o.events = world_->sim.events_fired() - events_before_;
        std::uint64_t pings = 0, answered = 0, timed_out = 0, udp_sent = 0, udp_replies = 0;
        for (const auto& s : senders_) {
            pings += s->pings;
            answered += s->answered;
            timed_out += s->timed_out;
            udp_sent += s->udp_sent;
            udp_replies += s->udp_replies;
        }
        o.attempted_units = pings + udp_sent;
        o.delivered_units = answered + udp_replies;
        const mobility::HandoffStats& hs = world_->handoff().stats();
        o.handoffs = hs.handoff_count();
        o.registrations = world_->mobile_host().stats().registrations_sent;
        o.snapshot = world_->metrics.snapshot_json("hostbench", "roaming_small_pkts",
                                                   world_->sim.now());
        o.checks.push_back(Check{"initial home association", attached_, {}});
        o.checks.push_back(Check{"every ping answered or timed out",
                                 answered + timed_out == pings,
                                 fmt("%.0f resolved of %.0f", double(answered + timed_out),
                                     double(pings))});
        o.checks.push_back(Check{"udp accounting closes",
                                 udp_replies <= udp_sent &&
                                     udp_replies <= echo_->datagrams_echoed(), {}});
        o.checks.push_back(Check{"the host moved between cells", o.handoffs > 0, {}});
        return o;
    }

    core::World* world() override { return world_.get(); }
    std::uint64_t app_payload_bytes() const override {
        std::uint64_t bytes = 0;
        for (const auto& s : senders_) {
            bytes += (s->pings + s->answered) * kPingPayload +
                     (s->udp_sent + s->udp_replies) * kUdpPayload;
        }
        return bytes;
    }

private:
    static constexpr std::uint16_t kEchoPort = 7;
    static constexpr sim::Duration kPeriod = sim::milliseconds(100);
    static constexpr sim::Duration kPingTimeout = sim::seconds(2);
    static constexpr std::size_t kPingPayload = 56;
    static constexpr std::size_t kUdpPayload = 32;
    /// Lifetime of a binding a MobileAware correspondent learns from the
    /// home agent's care-of advert. Shorter than a dwell, so after a move the
    /// correspondent falls back to the home agent, which advertises the new
    /// care-of address. With the 60 s default and a move every 25 s, about
    /// half of their traffic went to stale care-of addresses, and
    /// delivered_frac tracked the timing of adverts against moves (a swing
    /// of +-4% across seeds) rather than the program.
    static constexpr sim::Duration kAdvertBindingTtl = sim::seconds(5);
    static constexpr sim::Duration kTravel = sim::seconds(15);
    static constexpr sim::Duration kDwell = sim::seconds(10);
    /// The ride continues through the drain after the horizon.
    static constexpr sim::Duration kTail = sim::seconds(10);

    struct Sender {
        std::unique_ptr<transport::Pinger> pinger;
        std::unique_ptr<transport::UdpSocket> socket;
        std::uint64_t pings = 0, answered = 0, timed_out = 0;
        std::uint64_t udp_sent = 0, udp_replies = 0;
    };

    std::uint64_t seed_;
    sim::Duration horizon_ = sim::seconds(600);
    std::unique_ptr<core::World> world_;
    std::vector<std::unique_ptr<Sender>> senders_;
    std::unique_ptr<app::UdpEchoServer> echo_;
    bool attached_ = false;
    std::uint64_t events_before_ = 0;
};

// ---------------------------------------------------------------------------
// City workloads: the analytic metro model, no packet stack.
class CityWorkload : public Workload {
public:
    void attach() override {}

    void run(const SliceHook& hook) override {
        const double start_s = sim::to_seconds(city_->simulator().now());
        city_->run();
        if (hook) hook(start_s, sim::to_seconds(city_->simulator().now()));
    }

    metro::CitySim* city() override { return city_.get(); }

protected:
    Outcome base_outcome(const std::string& label) const {
        Outcome o;
        o.events = city_->events_fired();
        o.attempted_units = city_->probes_total();
        o.delivered_units =
            city_->metrics().counter("city", "metro", "probes_delivered").value();
        o.handoffs = city_->handoffs_total();
        o.registrations = city_->registrations_total();
        o.snapshot = city_->snapshot_json("hostbench", label);
        return o;
    }

    std::unique_ptr<metro::CitySim> city_;
};

/// city_metro: the bench_city city (12,000 hosts over 144 cells for 600 s,
/// sampler and storm monitor on).
class CityMetro final : public CityWorkload {
public:
    CityMetro(std::uint64_t seed, Size size) : seed_(seed), smoke_(size == Size::Smoke) {}

    void build() override {
        metro::CityConfig cfg;
        const int grid = smoke_ ? 6 : 12;
        cfg.metro.cells_x = grid;
        cfg.metro.cells_y = grid;
        cfg.metro.cell_size_m = smoke_ ? 400.0 : 500.0;
        cfg.population.hosts = smoke_ ? 600 : 12000;
        cfg.population.seed = derive_seed(seed_, kPopulationStream);
        cfg.population.metro_lines = smoke_ ? 2 : 4;
        cfg.duration = smoke_ ? sim::seconds(120) : sim::seconds(600);
        cfg.registration_lifetime = smoke_ ? sim::seconds(60) : sim::seconds(120);
        cfg.storm_threshold = smoke_ ? 25 : 50;
        cfg.metrics_interval = smoke_ ? sim::seconds(15) : sim::seconds(30);
        cfg.probes_per_sweep = smoke_ ? 64 : 256;
        cfg.monitor_interval = sim::seconds(5);
        cfg.storm_rate_floor = static_cast<double>(cfg.population.hosts) / 40.0;
        cfg.storm_spike_factor = 3.0;
        cfg.label = "seed" + std::to_string(seed_);
        city_ = std::make_unique<metro::CitySim>(cfg);
    }

    Outcome outcome() override {
        Outcome o = base_outcome("city_metro");
        const double deliverability =
            o.attempted_units > 0 ? double(o.delivered_units) / double(o.attempted_units) : 0.0;
        o.checks.push_back(Check{"probes were sent", o.attempted_units > 0, {}});
        o.checks.push_back(Check{"deliverability at or above the city floor",
                                 deliverability >= kCityDeliverabilityFloor,
                                 fmt("%.4f vs floor %.2f", deliverability,
                                     kCityDeliverabilityFloor)});
        return o;
    }

private:
    std::uint64_t seed_;
    bool smoke_;
};

/// city_storm: abl_overload's protected metro leg: overload protection on at
/// every home agent and one agent flap a third of the way in.
class CityStorm final : public CityWorkload {
public:
    CityStorm(std::uint64_t seed, Size size) : seed_(seed), smoke_(size == Size::Smoke) {}

    void build() override { city_ = std::make_unique<metro::CitySim>(config(seed_, smoke_)); }

    static metro::CityConfig config(std::uint64_t seed, bool smoke) {
        metro::CityConfig cfg;
        const int grid = smoke ? 6 : 8;
        cfg.metro.cells_x = grid;
        cfg.metro.cells_y = grid;
        cfg.metro.cell_size_m = 400.0;
        cfg.metro.home_agents = 2;
        cfg.population.hosts = smoke ? 400 : 1200;
        cfg.population.seed = derive_seed(seed, kPopulationStream);
        cfg.population.metro_lines = 2;
        cfg.duration = smoke ? sim::seconds(100) : sim::seconds(180);
        cfg.registration_lifetime = sim::seconds(60);
        cfg.metrics_interval = sim::seconds(10);
        cfg.probes_per_sweep = 64;
        cfg.monitor_interval = sim::seconds(1);
        cfg.storm_rate_floor = static_cast<double>(cfg.population.hosts);
        cfg.label = "storm-seed" + std::to_string(seed);

        cfg.overload.enabled = true;
        cfg.overload.protection = true;
        cfg.overload.agent.service_time = sim::milliseconds(15);
        cfg.overload.agent.queue_capacity = 16;
        cfg.overload.agent.new_tokens_per_sec = 40.0;
        cfg.overload.agent.new_token_burst = 8.0;
        cfg.overload.reply_timeout = sim::milliseconds(500);
        cfg.overload.retry_cap = sim::seconds(8);
        cfg.overload.retry_budget = 6;
        cfg.overload.circuit_probe = sim::seconds(10);
        cfg.overload.flap_at = cfg.duration / 3;
        cfg.overload.flap_agent = 0;
        cfg.overload.flap_notice_window = sim::seconds(1);
        cfg.overload.shed_rate_floor = 4.0;
        return cfg;
    }

    Outcome outcome() override {
        Outcome o = base_outcome("city_storm");
        const std::optional<sim::Duration> recovery = city_->storm_recovery();
        o.checks.push_back(Check{"probes were sent", o.attempted_units > 0, {}});
        o.checks.push_back(Check{"flapped agent recovered within the bound",
                                 recovery.has_value() && *recovery <= kCityRecoveryBound,
                                 fmt("%.1f s vs bound %.0f s",
                                     recovery ? sim::to_seconds(*recovery) : -1.0,
                                     sim::to_seconds(kCityRecoveryBound))});
        return o;
    }

private:
    std::uint64_t seed_;
    bool smoke_;
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t Outcome::digest() const {
    const std::uint64_t fields[] = {events, delivered_units, attempted_units, handoffs,
                                    registrations};
    return fnv1a(snapshot.data(), snapshot.size(), fnv1a(fields, sizeof fields));
}

obs::JsonValue::Object outcome_json(const Outcome& o) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(o.digest()));
    obs::JsonValue::Array checks;
    for (const Check& c : o.checks) {
        obs::JsonValue::Object j;
        j["name"] = c.name;
        j["ok"] = c.ok;
        j["detail"] = c.detail;
        checks.emplace_back(std::move(j));
    }
    obs::JsonValue::Object j;
    j["digest"] = std::string(hex);
    j["events"] = o.events;
    j["delivered_units"] = o.delivered_units;
    j["attempted_units"] = o.attempted_units;
    j["handoffs"] = o.handoffs;
    j["registrations"] = o.registrations;
    j["checks"] = std::move(checks);
    return j;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Size size) {
    if (name == "bulk_tunnel_tcp") return std::make_unique<BulkTunnelTcp>(seed, size);
    if (name == "roaming_small_pkts") return std::make_unique<RoamingSmallPkts>(seed, size);
    if (name == "city_metro") return std::make_unique<CityMetro>(seed, size);
    if (name == "city_storm") return std::make_unique<CityStorm>(seed, size);
    return nullptr;
}

}  // namespace hostbench
