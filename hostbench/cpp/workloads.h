// The four hostbench workloads, driven only through the library's public
// API. Each is one single-threaded simulation whose inputs are generated
// from the benchmark's --seed; README.md says why each exists and which
// layers it bypasses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"

namespace mip::core {
class World;
}
namespace mip::metro {
class CitySim;
}
namespace mip::transport {
class TcpConnection;
}

namespace hostbench {

enum class Size { Full, Smoke };

/// Independent sub-seed number @p stream of the benchmark seed (splitmix64),
/// so the world, mobility, population, payload and trace-sampling streams
/// never share draws.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/// The deterministic simulated outcome of one run. Everything here is a pure
/// function of (workload, size, seed) and the program's code; digest() hashes
/// it so two runs of one build can be compared byte for byte.
struct Outcome {
    std::uint64_t events = 0;           ///< events fired in the measured run
    std::uint64_t delivered_units = 0;  ///< bytes echoed / pings answered / probes delivered
    std::uint64_t attempted_units = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t registrations = 0;
    std::string snapshot;  ///< end-of-run metrics snapshot JSON
    std::vector<Check> checks;

    std::uint64_t digest() const;
};

/// The outcome as a JSON object: counts, digest (hex) and every check.
mip::obs::JsonValue::Object outcome_json(const Outcome& o);

/// 64-bit FNV-1a, chainable through @p h.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Called after each slice of simulated time with the slice's bounds in
/// simulated seconds (World workloads slice per simulated second; the city
/// runs as one slice).
using SliceHook = std::function<void(double from_s, double to_s)>;

class Workload {
public:
    virtual ~Workload() = default;
    /// Builds the topology or population: the first part of set-up.
    virtual void build() = 0;
    /// Brings the mobile host to its first attachment (World workloads); the
    /// second part of set-up. No-op for the city.
    virtual void attach() = 0;
    /// Simulates the workload's fixed horizon.
    virtual void run(const SliceHook& hook) = 0;
    /// Collects the outcome and checks the workload's invariants.
    virtual Outcome outcome() = 0;

    // Handles for the traced run's outside-in layer accounting.
    virtual mip::core::World* world() { return nullptr; }
    virtual mip::metro::CitySim* city() { return nullptr; }
    virtual std::vector<const mip::transport::TcpConnection*> tcp_connections() const {
        return {};
    }
    /// Application payload bytes carried end to end (both directions).
    virtual std::uint64_t app_payload_bytes() const { return 0; }
};

/// nullptr when @p name is not a workload.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Size size);

}  // namespace hostbench
