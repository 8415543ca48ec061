#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/scenario.h"
#include "metro/city.h"
#include "obs/perfetto.h"
#include "sim/profiler.h"
#include "sweep/sweep.h"
#include "transport/tcp_connection.h"
#include "tunnel/encapsulator.h"

namespace hostbench {

using namespace mip;

namespace {

using Clock = std::chrono::steady_clock;

/// Every per-layer metric the traced pass reports, named after the src/
/// module it describes. Layers a workload bypasses report 0: the
/// prediction that a change to them leaves that workload alone.
const std::vector<std::string>& layer_metric_names() {
    static const std::vector<std::string> names = {
        "sim.events", "sim.events_per_s", "sim.frame_dispatches", "sim.frame_dispatch_ns",
        "sim.timer_dispatch_ns", "sim.dispatch_max_ms", "sim.outside_handlers_s",
        "sim.queue_depth_max", "sim.cancelled_max", "sim.wire_frames", "sim.wire_bytes",
        "net.pool_acquires", "net.pool_reuse_ratio", "net.ip_parse_ns", "net.ip_serialize_ns",
        "net.parse_busy_frac_est",
        "arp.frames", "arp.failures",
        "stack.packets_received", "stack.packets_forwarded", "stack.packets_delivered",
        "stack.filter_drops", "stack.no_route_drops", "stack.forwarded_per_delivered",
        "routing.lookup_ns", "routing.lookup_busy_frac_est",
        "tunnel.packets_tunneled", "tunnel.reverse_forwarded", "tunnel.decapsulated",
        "tunnel.encap_ns.ipip", "tunnel.encap_ns.minimal", "tunnel.encap_ns.gre",
        "tunnel.decap_ns.ipip", "tunnel.decap_ns.minimal", "tunnel.decap_ns.gre",
        "tunnel.wire_bytes_per_payload_byte",
        "core.registrations_sent", "core.registrations_accepted", "core.registration_backoffs",
        "core.out_ie", "core.out_de", "core.out_dh", "core.out_dt",
        "core.selection_success_ratio", "core.binding_lookup_ns", "core.overload_shed",
        "core.overload_queue_peak", "core.renewal_goodput",
        "transport.retransmissions", "transport.rto_fires", "transport.give_ups",
        "transport.goodput_ratio",
        "mobility.handoffs", "mobility.avg_registration_ms", "mobility.gap_loss",
        "mobility.dead_zone_entries",
        "metro.handoffs", "metro.registrations", "metro.deliverability",
        "metro.storm_recovery_s",
        "obs.trace_records", "obs.arena_allocations", "obs.sampler_samples", "obs.decisions",
        "obs.monitor_trips", "obs.instrumentation_overhead_frac",
        "sweep.speedup_j2", "sweep.identical",
    };
    return names;
}

/// Datagrams kept from the wire for the replays: every kSampleStride-th IPv4
/// frame, up to kSampleCap of them.
constexpr std::size_t kSampleCap = 4096;
constexpr std::uint64_t kSampleStride = 7;
/// Each replay repeats until it has run at least this long.
constexpr auto kReplayMin = std::chrono::milliseconds(40);
/// Seeds in the traced sweep.
constexpr std::uint64_t kSweepSeeds = 4;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// The benchmark's own spans on the host clock, as timeline tracks of a
/// Chrome trace (timestamps are host nanoseconds since process start).
class Spans {
public:
    explicit Spans(Clock::time_point origin) : origin_(origin) {}

    void add(const std::string& track, const std::string& name, Clock::time_point begin,
             Clock::time_point end) {
        writer_.add_span(track, ns(begin), ns(end), name);
    }

    /// Runs @p f and records it as one span.
    template <class F>
    void time(const std::string& track, const std::string& name, F&& f) {
        const Clock::time_point begin = Clock::now();
        f();
        add(track, name, begin, Clock::now());
    }

    const obs::ChromeTraceWriter& writer() const noexcept { return writer_; }

private:
    sim::TimePoint ns(Clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
    }

    Clock::time_point origin_;
    obs::ChromeTraceWriter writer_;
};

/// Counts every frame offered to any link and keeps a strided sample of the
/// IPv4 datagrams for the replays.
struct WireTap {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t ipv4 = 0;
    std::uint64_t arp = 0;
    std::vector<std::vector<std::uint8_t>> datagrams;

    void observe(const sim::Frame& f) {
        ++frames;
        bytes += f.wire_size();
        if (f.type == net::EtherType::Arp) {
            ++arp;
        } else if (f.type == net::EtherType::Ipv4) {
            if (ipv4++ % kSampleStride == 0 && datagrams.size() < kSampleCap) {
                datagrams.push_back(f.payload);
            }
        }
    }
};

volatile std::uint64_t g_sink = 0;

/// Mean wall nanoseconds per operation of @p pass, which performs @p ops
/// operations and returns a value folded into a sink so it is not elided.
template <class F>
double replay_ns(std::size_t ops, F&& pass) {
    if (ops == 0) return 0.0;
    std::uint64_t sink = 0;
    std::size_t passes = 0;
    const Clock::time_point start = Clock::now();
    Clock::duration elapsed{};
    do {
        sink += pass();
        ++passes;
        elapsed = Clock::now() - start;
    } while (elapsed < kReplayMin || passes < 3);
    g_sink = g_sink + sink;
    return std::chrono::duration<double, std::nano>(elapsed).count() /
           static_cast<double>(passes * ops);
}

/// Sum of one gauge over every node that publishes it.
double sum_gauges(const obs::MetricsRegistry& reg, const std::string& layer,
                  const std::string& name) {
    double sum = 0.0;
    for (const auto& [key, fn] : reg.gauges()) {
        if (std::get<1>(key) == layer && std::get<2>(key) == name) sum += fn();
    }
    return sum;
}

std::uint64_t counter_or_zero(const obs::MetricsRegistry& reg, const std::string& node,
                              const std::string& layer, const std::string& name) {
    const auto it = reg.counters().find({node, layer, name});
    return it == reg.counters().end() ? 0 : it->second.value();
}

void add_profile(std::map<std::string, double>& m, const sim::SimProfiler& prof,
                 double run_s) {
    std::uint64_t frame_n = 0, frame_ns = 0, other_n = 0, other_ns = 0, max_ns = 0;
    for (const auto& [kind, p] : prof.by_kind()) {
        if (kind == "frame-delivery") {
            frame_n += p.dispatches;
            frame_ns += p.wall_ns;
        } else {
            other_n += p.dispatches;
            other_ns += p.wall_ns;
        }
        max_ns = std::max(max_ns, p.max_wall_ns);
    }
    m["sim.frame_dispatches"] = static_cast<double>(frame_n);
    m["sim.frame_dispatch_ns"] =
        ratio(static_cast<double>(frame_ns), static_cast<double>(frame_n));
    m["sim.timer_dispatch_ns"] =
        ratio(static_cast<double>(other_ns), static_cast<double>(other_n));
    m["sim.dispatch_max_ms"] = static_cast<double>(max_ns) / 1e6;
    m["sim.outside_handlers_s"] = run_s - static_cast<double>(prof.total_wall_ns()) / 1e9;
    m["sim.queue_depth_max"] = static_cast<double>(prof.max_queue_depth());
    m["sim.cancelled_max"] = static_cast<double>(prof.max_cancelled_size());
    const auto rto = prof.by_kind().find("tcp-rto");
    m["transport.rto_fires"] =
        rto == prof.by_kind().end() ? 0.0 : static_cast<double>(rto->second.dispatches);
}

bool is_tunnel(const net::Packet& p) {
    const net::IpProto proto = p.header().protocol;
    return proto == net::IpProto::IpInIp || proto == net::IpProto::Gre ||
           proto == net::IpProto::MinEnc;
}

/// Addresses, protocol and payload agree. Minimal encapsulation rebuilds the
/// inner TTL from the outer header (RFC 2004), so TTL and checksum may not.
bool same_datagram(const net::Packet& a, const net::Packet& b) {
    return a.header().src == b.header().src && a.header().dst == b.header().dst &&
           a.header().protocol == b.header().protocol &&
           std::ranges::equal(a.payload(), b.payload());
}

/// Packet-layer replays over the captured datagrams; returns false when a
/// replay did not reproduce its input.
bool replay_packets(std::map<std::string, double>& m, Spans& spans, core::World& world,
                    const WireTap& tap) {
    bool ok = true;
    std::vector<net::Packet> packets;
    packets.reserve(tap.datagrams.size());
    for (const auto& d : tap.datagrams) packets.push_back(net::Packet::from_wire(d));

    spans.time("replay", "net: ip parse", [&] {
        m["net.ip_parse_ns"] = replay_ns(tap.datagrams.size(), [&] {
            std::uint64_t s = 0;
            for (const auto& d : tap.datagrams) s += net::Packet::from_wire(d).wire_size();
            return s;
        });
    });
    spans.time("replay", "net: ip serialize", [&] {
        net::BufferPool pool;
        m["net.ip_serialize_ns"] = replay_ns(packets.size(), [&] {
            std::uint64_t s = 0;
            for (const net::Packet& p : packets) {
                std::vector<std::uint8_t> wire = p.to_wire(pool);
                s += wire.size();
                pool.release(std::move(wire));
            }
            return s;
        });
    });
    for (std::size_t i = 0; i < packets.size(); ++i) {
        ok = ok && packets[i].to_wire() == tap.datagrams[i];
    }

    spans.time("replay", "routing: forwarding lookup", [&] {
        std::vector<const routing::ForwardingTable*> tables = {
            &world.home_gateway().stack().routes(), &world.foreign_gateway().stack().routes(),
            &world.corr_gateway().stack().routes()};
        for (std::size_t i = 0; i < world.backbone_size(); ++i) {
            tables.push_back(&world.backbone_router(i).stack().routes());
        }
        m["routing.lookup_ns"] = replay_ns(tables.size() * packets.size(), [&] {
            std::uint64_t s = 0;
            for (const routing::ForwardingTable* t : tables) {
                for (const net::Packet& p : packets) {
                    const auto route = t->lookup(p.header().dst);
                    s += route ? route->interface_index + 1 : 0;
                }
            }
            return s;
        });
    });

    std::vector<net::Packet> inners;
    for (const net::Packet& p : packets) {
        if (!is_tunnel(p) && !p.header().is_fragment()) inners.push_back(p);
    }
    const net::Ipv4Address outer_src = world.home_agent_addr();
    const net::Ipv4Address outer_dst = world.mh_care_of_addr();
    const std::pair<tunnel::EncapScheme, const char*> schemes[] = {
        {tunnel::EncapScheme::IpInIp, "ipip"},
        {tunnel::EncapScheme::Minimal, "minimal"},
        {tunnel::EncapScheme::Gre, "gre"}};
    for (const auto& [scheme, tag_name] : schemes) {
        const std::string tag = tag_name;
        const std::unique_ptr<tunnel::Encapsulator> enc = tunnel::make_encapsulator(scheme);
        std::vector<net::Packet> outers;
        for (const net::Packet& p : inners) {
            outers.push_back(enc->encapsulate(p, outer_src, outer_dst));
        }
        for (std::size_t i = 0; i < inners.size(); ++i) {
            ok = ok && same_datagram(enc->decapsulate(outers[i]), inners[i]);
        }
        spans.time("replay", "tunnel: encap " + tag, [&] {
            m["tunnel.encap_ns." + tag] = replay_ns(inners.size(), [&] {
                std::uint64_t s = 0;
                for (const net::Packet& p : inners) {
                    s += enc->encapsulate(p, outer_src, outer_dst).wire_size();
                }
                return s;
            });
        });
        spans.time("replay", "tunnel: decap " + tag, [&] {
            m["tunnel.decap_ns." + tag] = replay_ns(outers.size(), [&] {
                std::uint64_t s = 0;
                for (const net::Packet& p : outers) s += enc->decapsulate(p).wire_size();
                return s;
            });
        });
    }

    spans.time("replay", "core: binding lookup", [&] {
        const core::BindingTable& table = world.home_agent().bindings();
        const sim::TimePoint now = world.sim.now();
        std::vector<net::Ipv4Address> keys = {world.mh_home_addr()};
        for (const net::Packet& p : packets) keys.push_back(p.header().dst);
        m["core.binding_lookup_ns"] = replay_ns(keys.size(), [&] {
            std::uint64_t s = 0;
            for (const net::Ipv4Address& k : keys) s += table.lookup(k, now).has_value();
            return s;
        });
    });
    return ok;
}

void add_world_layers(std::map<std::string, double>& m, Workload& w, core::World& world,
                      const WireTap& tap, double ref_run_s) {
    const obs::MetricsRegistry& reg = world.metrics;
    m["sim.wire_frames"] = static_cast<double>(tap.frames);
    m["sim.wire_bytes"] = static_cast<double>(tap.bytes);
    m["arp.frames"] = static_cast<double>(tap.arp);
    m["arp.failures"] = sum_gauges(reg, "ip", "arp_failures");

    const double received = sum_gauges(reg, "ip", "packets_received");
    const double forwarded = sum_gauges(reg, "ip", "packets_forwarded");
    const double delivered = sum_gauges(reg, "ip", "packets_delivered");
    const double sent = sum_gauges(reg, "ip", "packets_sent");
    m["stack.packets_received"] = received;
    m["stack.packets_forwarded"] = forwarded;
    m["stack.packets_delivered"] = delivered;
    m["stack.filter_drops"] = sum_gauges(reg, "ip", "ingress_filter_drops") +
                              sum_gauges(reg, "ip", "egress_filter_drops");
    m["stack.no_route_drops"] = sum_gauges(reg, "ip", "no_route_drops");
    m["stack.forwarded_per_delivered"] = ratio(forwarded, delivered);

    // Busy-share estimates: a replayed per-op time times the run's real op
    // count, over the untraced run time. Each IPv4 frame is parsed once by
    // its receiver; each sent or forwarded datagram takes one route lookup.
    m["net.parse_busy_frac_est"] =
        ratio(m["net.ip_parse_ns"] * static_cast<double>(tap.ipv4) / 1e9, ref_run_s);
    m["routing.lookup_busy_frac_est"] =
        ratio(m["routing.lookup_ns"] * (sent + forwarded) / 1e9, ref_run_s);

    const core::HomeAgent::Stats& ha = world.home_agent().stats();
    m["tunnel.packets_tunneled"] = static_cast<double>(ha.packets_tunneled);
    m["tunnel.reverse_forwarded"] = static_cast<double>(ha.packets_reverse_forwarded);
    m["tunnel.decapsulated"] =
        static_cast<double>(world.trace.count(sim::TraceKind::Decapsulated));
    m["tunnel.wire_bytes_per_payload_byte"] =
        ratio(static_cast<double>(tap.bytes), static_cast<double>(w.app_payload_bytes()));

    const core::MobileHost::Stats& mh = world.mobile_host().stats();
    m["core.registrations_sent"] = static_cast<double>(mh.registrations_sent);
    m["core.registrations_accepted"] = static_cast<double>(ha.registrations_accepted);
    m["core.registration_backoffs"] = static_cast<double>(mh.registration_backoffs);
    m["core.out_ie"] = static_cast<double>(mh.out_ie);
    m["core.out_de"] = static_cast<double>(mh.out_de);
    m["core.out_dh"] = static_cast<double>(mh.out_dh);
    m["core.out_dt"] = static_cast<double>(mh.out_dt);
    m["core.selection_success_ratio"] =
        ratio(static_cast<double>(mh.success_signals),
              static_cast<double>(mh.success_signals + mh.failure_signals));

    std::uint64_t segments = 0, retrans = 0, give_ups = 0;
    for (const transport::TcpConnection* c : w.tcp_connections()) {
        segments += c->stats().segments_sent;
        retrans += c->stats().retransmissions;
        give_ups += c->state() == transport::TcpState::Failed;
    }
    m["transport.retransmissions"] = static_cast<double>(retrans);
    m["transport.give_ups"] = static_cast<double>(give_ups);
    m["transport.goodput_ratio"] =
        ratio(static_cast<double>(segments - retrans), static_cast<double>(segments));

    if (world.has_mobility()) {
        const mobility::HandoffStats& hs = world.handoff().stats();
        m["mobility.handoffs"] = static_cast<double>(hs.handoff_count());
        m["mobility.avg_registration_ms"] = hs.avg_registration_ms();
        m["mobility.gap_loss"] = static_cast<double>(hs.total_gap_loss());
        m["mobility.dead_zone_entries"] = static_cast<double>(hs.dead_zone_entries);
    }

    m["obs.trace_records"] = static_cast<double>(world.trace.record_count());
    m["obs.decisions"] = static_cast<double>(world.decisions.size());
}

void add_city_layers(std::map<std::string, double>& m, Spans& spans, metro::CitySim& city) {
    const obs::MetricsRegistry& reg = city.metrics();
    const double retries =
        static_cast<double>(counter_or_zero(reg, "city", "overload", "retries"));
    m["core.registrations_sent"] = static_cast<double>(city.registrations_total()) + retries;
    m["core.registrations_accepted"] = static_cast<double>(city.registrations_total());
    m["core.registration_backoffs"] = retries;

    double shed = 0, peak = 0, served_renewal = 0, shed_renewal = 0;
    for (std::size_t a = 0; a < city.binding_tables().size(); ++a) {
        if (const core::RegistrationQueue* q = city.overload_queue(a)) {
            shed += static_cast<double>(q->shed_total());
            peak = std::max(peak, static_cast<double>(q->stats().queue_peak));
            served_renewal += static_cast<double>(q->stats().served_renewal);
            shed_renewal += static_cast<double>(q->stats().shed_renewal_queue);
        }
    }
    m["core.overload_shed"] = shed;
    m["core.overload_queue_peak"] = peak;
    m["core.renewal_goodput"] = ratio(served_renewal, served_renewal + shed_renewal);

    spans.time("replay", "core: binding lookup", [&] {
        const sim::TimePoint now = city.simulator().now();
        const auto& tables = city.binding_tables();
        const auto& hosts = city.population().hosts();
        m["core.binding_lookup_ns"] = replay_ns(hosts.size(), [&] {
            std::uint64_t s = 0;
            for (const metro::MetroHost* h : hosts) {
                s += tables[h->home_agent].lookup(h->home_address, now).has_value();
            }
            return s;
        });
    });

    m["metro.handoffs"] = static_cast<double>(city.handoffs_total());
    m["metro.registrations"] = static_cast<double>(city.registrations_total());
    m["metro.deliverability"] =
        ratio(static_cast<double>(counter_or_zero(reg, "city", "metro", "probes_delivered")),
              static_cast<double>(city.probes_total()));
    m["metro.storm_recovery_s"] =
        city.storm_recovery() ? sim::to_seconds(*city.storm_recovery()) : 0.0;

    m["obs.sampler_samples"] =
        city.sampler() != nullptr ? static_cast<double>(city.sampler()->samples_taken()) : 0.0;
    m["obs.decisions"] = static_cast<double>(city.decisions().size());
    m["obs.monitor_trips"] =
        city.monitor() != nullptr ? static_cast<double>(city.monitor()->trips()) : 0.0;
}

/// A few city_storm seeds through SweepRunner at one job and at two (never
/// more than the machine has); returns whether both gave identical reports.
bool measure_sweep(std::map<std::string, double>& m, Spans& spans, std::uint64_t seed,
                   Size size) {
    const auto job = [size](std::uint64_t s) {
        std::unique_ptr<Workload> w = make_workload("city_storm", s, size);
        w->build();
        w->attach();
        w->run({});
        sweep::JobResult r;
        r.report = outcome_json(w->outcome());
        return r;
    };
    const auto jobs = [&] {
        std::vector<sweep::JobSpec> specs;
        for (std::uint64_t k = 0; k < kSweepSeeds; ++k) {
            const std::uint64_t s = derive_seed(seed, 100 + k);
            specs.push_back({k, "seed" + std::to_string(k), [job, s] { return job(s); }});
        }
        return specs;
    };
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int parallel = static_cast<int>(std::min(2u, hw));
    sweep::SweepOutcome serial, par;
    spans.time("sweep", "city_storm sweep, 1 job", [&] {
        serial = sweep::SweepRunner({.jobs = 1}).run(jobs());
    });
    spans.time("sweep", "city_storm sweep, " + std::to_string(parallel) + " jobs", [&] {
        par = sweep::SweepRunner({.jobs = parallel}).run(jobs());
    });
    const bool identical = serial.failures() == 0 &&
                           serial.report("hostbench", "sweep").dump() ==
                               par.report("hostbench", "sweep").dump();
    m["sweep.speedup_j2"] = ratio(serial.wall_ms, par.wall_ms);
    m["sweep.identical"] = identical ? 1.0 : 0.0;
    return identical;
}

bool valid_trace_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        const obs::JsonValue doc = obs::JsonValue::parse(buf.str());
        return !doc.at("traceEvents").as_array().empty();
    } catch (const obs::JsonError&) {
        return false;
    }
}

}  // namespace

obs::JsonValue::Object traced_run(const std::string& workload, std::uint64_t seed, Size size,
                                  double ref_run_s, const std::string& trace_out,
                                  Clock::time_point process_start) {
    Spans spans(process_start);
    std::map<std::string, double> m;
    for (const std::string& name : layer_metric_names()) m[name] = 0.0;

    std::unique_ptr<Workload> w = make_workload(workload, seed, size);
    spans.time("setup", "build", [&] { w->build(); });
    spans.time("setup", "attach", [&] { w->attach(); });
    const double setup_s = seconds(Clock::now() - process_start);

    core::World* world = w->world();
    metro::CitySim* city = w->city();
    sim::Simulator& simulator = world != nullptr ? world->sim : city->simulator();

    sim::SimProfiler profiler;
    WireTap tap;
    simulator.set_profiler(&profiler);
    if (world != nullptr) {
        for (sim::Link* link : world->all_links()) {
            link->set_tap([&tap](const sim::Frame& f) { tap.observe(f); });
        }
    }
    const net::BufferPool::Stats pool_before = simulator.buffer_pool().stats();

    const Clock::time_point run_begin = Clock::now();
    Clock::time_point slice_begin = run_begin;
    w->run([&](double from_s, double to_s) {
        const Clock::time_point now = Clock::now();
        char name[64];
        std::snprintf(name, sizeof name, "simulated %.0f-%.0f s", from_s, to_s);
        spans.add("simulated time", name, slice_begin, now);
        slice_begin = now;
    });
    const Clock::time_point run_end = Clock::now();
    spans.add("run", workload, run_begin, run_end);
    const double run_s = seconds(run_end - run_begin);

    simulator.set_profiler(nullptr);
    if (world != nullptr) {
        for (sim::Link* link : world->all_links()) link->set_tap({});
    }
    Outcome outcome = w->outcome();

    m["sim.events"] = static_cast<double>(outcome.events);
    m["sim.events_per_s"] = ratio(static_cast<double>(outcome.events), ref_run_s);
    add_profile(m, profiler, run_s);
    const net::BufferPool::Stats& pool = simulator.buffer_pool().stats();
    const double acquires = static_cast<double>(pool.acquires - pool_before.acquires);
    m["net.pool_acquires"] = acquires;
    m["net.pool_reuse_ratio"] =
        ratio(static_cast<double>(pool.reuses - pool_before.reuses), acquires);
    m["obs.arena_allocations"] =
        static_cast<double>(simulator.record_arena().stats().allocations);
    m["obs.instrumentation_overhead_frac"] = ref_run_s > 0 ? run_s / ref_run_s - 1.0 : 0.0;

    if (world != nullptr) {
        const bool replays_ok = replay_packets(m, spans, *world, tap);
        outcome.checks.push_back({"replays reproduce their captured inputs", replays_ok, {}});
        add_world_layers(m, *w, *world, tap, ref_run_s);
    } else {
        add_city_layers(m, spans, *city);
    }

    const bool sweep_ok = measure_sweep(m, spans, seed, size);
    outcome.checks.push_back({"sweep reports identical at 1 and 2 jobs", sweep_ok, {}});

    bool trace_ok = false;
    try {
        spans.writer().write(trace_out);
        trace_ok = valid_trace_file(trace_out);
    } catch (const obs::JsonError&) {
    }
    outcome.checks.push_back({"span file written and parseable", trace_ok, trace_out});

    obs::JsonValue::Object layers;
    for (const auto& [name, value] : m) layers[name] = value;
    obs::JsonValue::Object doc = outcome_json(outcome);
    doc["setup_s"] = setup_s;
    doc["run_s"] = run_s;
    doc["layers"] = std::move(layers);
    doc["profile"] = profiler.summary();
    return doc;
}

}  // namespace hostbench
