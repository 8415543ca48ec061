// The traced pass: per-layer numbers measured from outside the program.
//
// It runs a workload once with the simulator's self-profiler and a tap on
// every link attached, reads each layer's public counters, and replays
// captured inputs through each layer's public functions (packet parse and
// serialize, forwarding lookups, the three encapsulation schemes, binding
// lookups) to time them per operation. It also times a small city_storm
// seed sweep at one and two jobs, and writes the benchmark's own spans as a
// Perfetto-loadable Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/json.h"
#include "workloads.h"

namespace hostbench {

/// Runs the traced pass and returns its result document: setup_s, run_s,
/// the outcome (digest and checks) and a "layers" object holding every
/// per-layer metric. @p ref_run_s is the untraced run_s of the same
/// workload and seed, the base of the rates and busy-share estimates.
mip::obs::JsonValue::Object traced_run(const std::string& workload, std::uint64_t seed,
                                       Size size, double ref_run_s,
                                       const std::string& trace_out,
                                       std::chrono::steady_clock::time_point process_start);

}  // namespace hostbench
