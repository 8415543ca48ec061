// hostbench — one run of one workload, as a fresh process.
//
//   hostbench --workload NAME --seed N [--size full|smoke]
//             [--mode e2e | --mode trace --ref-run-s S --trace-out FILE]
//
// e2e (the default) runs the workload with the product defaults and no
// benchmark instrument attached, and prints one JSON object: setup_s (host
// seconds from process start to the first measured event), run_s (host CPU
// seconds to simulate the fixed horizon), run_cost (run_s in units of the
// reference chunk timed beside the run, reference.h), peak_rss_mb, the
// deterministic outcome with its digest, and the workload's correctness
// checks. trace runs the traced pass (layers.h) instead. run.py drives this
// binary; the build and provenance live there.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "layers.h"
#include "reference.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the "empty process"
// that setup_s counts from.
const Clock::time_point kProcessStart = Clock::now();

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME --seed N [--size full|smoke] "
                 "[--mode e2e|trace] [--ref-run-s S] [--trace-out FILE]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hostbench;
    std::string workload, mode = "e2e", size_name = "full", trace_out;
    std::uint64_t seed = 0;
    bool have_seed = false;
    double ref_run_s = 0.0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            char* end = nullptr;
            seed = std::strtoull(value, &end, 10);
            have_seed = end != value && *end == '\0';
        } else if (flag == "--size") {
            size_name = value;
        } else if (flag == "--mode") {
            mode = value;
        } else if (flag == "--ref-run-s") {
            ref_run_s = std::strtod(value, nullptr);
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed) return usage("--seed needs a non-negative integer");
    if (size_name != "full" && size_name != "smoke") return usage("--size is full or smoke");
    const Size size = size_name == "smoke" ? Size::Smoke : Size::Full;

    mip::obs::JsonValue::Object doc;
    if (mode == "trace") {
        if (trace_out.empty() || ref_run_s <= 0) {
            return usage("--mode trace needs --ref-run-s and --trace-out");
        }
        if (make_workload(workload, seed, size) == nullptr) return usage("unknown workload");
        doc = traced_run(workload, seed, size, ref_run_s, trace_out, kProcessStart);
    } else if (mode == "e2e") {
        std::unique_ptr<Workload> w = make_workload(workload, seed, size);
        if (w == nullptr) return usage("unknown workload");
        w->build();
        w->attach();
        const Clock::time_point setup_end = Clock::now();
        ReferenceSampler reference;
        w->run({});
        reference.stop();
        doc = outcome_json(w->outcome());
        doc["setup_s"] = std::chrono::duration<double>(setup_end - kProcessStart).count();
        doc["run_s"] = reference.run_s();
        doc["run_cost"] = reference.run_cost();
        doc["reference_chunks"] = reference.samples();
    } else {
        return usage("--mode is e2e or trace");
    }
    doc["peak_rss_mb"] = peak_rss_mb();
    doc["workload"] = workload;
    doc["seed"] = std::to_string(seed);
    doc["size"] = size_name;
    doc["mode"] = mode;
    doc["compiler"] = HOSTBENCH_COMPILER;
    doc["build_type"] = HOSTBENCH_BUILD_TYPE;
    std::printf("%s\n", mip::obs::JsonValue(std::move(doc)).dump().c_str());
    return 0;
}
