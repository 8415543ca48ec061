// bench::Harness — the one place the bench binaries' CLI/environment
// contract lives, plus the sweep and BENCH_perf.json scaffolding the
// sweep-style benches share.
//
// A single parse builds a HarnessOptions and each figure registers a
//
//     void print_figure(const bench::HarnessOptions& opt);
//
// callback via M4X4_BENCH_MAIN(print_figure). The flags and variables:
//
//   --smoke            shrink scenarios, skip the google-benchmark
//                      microbenchmarks (same as M4X4_SMOKE=1)
//   --seeds N          seed count for sweep-style benches (abl_chaos);
//                      0 keeps the bench's own default
//   --jobs N           worker threads for SweepRunner-backed benches;
//                      1 (the default) runs serially on the caller thread
//   --metrics-dir DIR  export metrics/timeseries/decision JSON here
//                      (same as M4X4_METRICS_DIR=DIR)
//   --perfetto DIR     export Chrome-trace JSON here
//                      (same as M4X4_PERFETTO_DIR=DIR)
//   M4X4_BENCH_PERF_OUT=PATH
//                      where merge_perf_report writes BENCH_perf.json
//                      (environment only; see merge_perf_report)
//
// Environment variables are read first, flags override them — so
// bench_smoke.sh keeps driving everything through the environment while
// a human at a shell can type flags. The export_* helpers take the
// options explicitly; nothing outside parse_harness_options() reads the
// environment.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/decision.h"
#include "obs/incident.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/timeseries.h"
#include "sim/time.h"
#include "sweep/sweep.h"

namespace mip::core {
class World;
}

namespace bench {

struct HarnessOptions {
    bool smoke = false;         ///< --smoke / M4X4_SMOKE: tiny scenarios
    int seeds = 0;              ///< --seeds N: sweep seed count (0 = bench default)
    int jobs = 1;               ///< --jobs N: SweepRunner worker threads
    std::string metrics_dir;    ///< --metrics-dir / M4X4_METRICS_DIR ("" = off)
    std::string perfetto_dir;   ///< --perfetto / M4X4_PERFETTO_DIR ("" = off)
    std::string perf_out;       ///< M4X4_BENCH_PERF_OUT ("" = default path)

    /// Pick @p full normally, @p small under --smoke.
    template <typename T>
    T pick(T full, T small) const {
        return smoke ? small : full;
    }

    bool metrics_enabled() const { return !metrics_dir.empty(); }
    bool perfetto_enabled() const { return !perfetto_dir.empty(); }

    /// These options with every artifact export switched off: for
    /// comparison runs that must not race the reference run's files.
    HarnessOptions quiet() const {
        HarnessOptions q = *this;
        q.metrics_dir.clear();
        q.perfetto_dir.clear();
        return q;
    }
};

/// Builds the options from the environment, then applies recognized flags
/// from argv — removing them so the remaining arguments can be handed to
/// google-benchmark untouched. Unknown flags are left in place. Exits
/// with a usage message on a malformed value (e.g. `--jobs banana`).
HarnessOptions parse_harness_options(int* argc, char** argv);

/// Shared filename scheme for the per-(bench, label) exports:
/// <dir>/<bench>_<label><suffix>, with the stem sanitized to
/// [A-Za-z0-9._-]. Creates @p dir; returns "" when @p dir is empty.
std::string export_path(const std::string& dir, const std::string& bench,
                        const std::string& label, const char* suffix);

/// Writes the registry's snapshot (docs/TRACE_FORMAT.md §4) to
/// <metrics_dir>/<bench>_<label>.json; a no-op when metrics are disabled.
void export_metrics(const HarnessOptions& opt, const mip::obs::MetricsRegistry& metrics,
                    const std::string& bench, const std::string& label,
                    mip::sim::TimePoint now);

/// Convenience overload pulling the registry and clock out of a World.
void export_metrics(const HarnessOptions& opt, mip::core::World& world,
                    const std::string& bench, const std::string& label);

/// Writes a sampler's time-series document (§5) to
/// <metrics_dir>/<bench>_<label>.timeseries.json; no-op when disabled.
void export_timeseries(const HarnessOptions& opt, const mip::obs::MetricsSampler& sampler,
                       const std::string& bench, const std::string& label);

/// Writes a decision log (§6) to <metrics_dir>/<bench>_<label>.decisions.json;
/// no-op when disabled or when the log is empty.
void export_decisions(const HarnessOptions& opt, const mip::obs::DecisionLog& log,
                      const std::string& bench, const std::string& label);

/// Writes each captured incident bundle (§10) to
/// <metrics_dir>/<bench>_<label>.incidentN.json (N = 1-based capture
/// order); no-op when metrics are disabled or nothing was captured.
void export_incidents(const HarnessOptions& opt,
                      const mip::obs::IncidentRecorder& recorder,
                      const std::string& bench, const std::string& label);

/// Writes a Chrome-trace document to
/// <perfetto_dir>/<bench>_<label>.perfetto.json; no-op when disabled.
void export_perfetto(const HarnessOptions& opt, const mip::obs::ChromeTraceWriter& writer,
                     const std::string& bench, const std::string& label);

/// Writes @p text to <dir>/<bench>_<label><suffix>; no-op when @p dir is
/// empty. The raw-string cousin of the typed export_* helpers, used for
/// sweep reports and other already-serialized documents.
void export_text(const std::string& dir, const std::string& bench,
                 const std::string& label, const char* suffix, const std::string& text);

/// A sweep run under the determinism contract (DESIGN.md §10).
struct DeterministicSweep {
    mip::sweep::SweepOutcome serial;  ///< the reference run (exports happened)
    int compare_jobs = 2;             ///< thread count of the comparison run
    bool identical = false;           ///< sweep::identical_artifacts verdict
};

/// Runs the jobs @p make_jobs builds twice: serially with @p opt (so the
/// jobs export their artifacts), then at opt.jobs threads (2 when opt.jobs
/// is 1) with opt.quiet(). Exports the serial run's merged report as
/// <metrics_dir>/<bench>_sweep.json and prints the "sweep determinism"
/// line. The benches read their tables from the serial run.
DeterministicSweep run_deterministic_sweep(
    const HarnessOptions& opt, const std::string& bench,
    const std::function<std::vector<mip::sweep::JobSpec>(const HarnessOptions&)>&
        make_jobs);

/// Sets top-level @p key of BENCH_perf.json to @p block, keeping every
/// other key. The path is opt.perf_out, else BENCH_perf.json in the
/// working directory; under --smoke nothing is written unless perf_out is
/// set, so tiny-scenario numbers never replace a real baseline. A missing
/// or unparsable file starts a fresh schema-3 document. Also records the
/// machine's hardware_concurrency.
void merge_perf_report(const HarnessOptions& opt, const std::string& key,
                       mip::obs::JsonValue block);

/// The standard figure main: parse the harness options, print the
/// figure's table via @p run, then (outside --smoke) hand the remaining
/// argv to google-benchmark. M4X4_BENCH_MAIN expands to exactly this.
int bench_main(int argc, char** argv, void (*run)(const HarnessOptions&));

}  // namespace bench

#define M4X4_BENCH_MAIN(print_figure_fn)        \
    int main(int argc, char** argv) {           \
        return bench::bench_main(argc, argv, print_figure_fn); \
    }
