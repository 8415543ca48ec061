// The reference kernel that run_cost divides by.
//
// On a shared host the simulator's speed swings by up to 2x between
// identical runs, in phases from under a second to minutes long, because
// other tenants contend for the physical core the run is on. A fixed chunk
// of throughput-bound, branchy integer work, timed on the same CPU while the
// run goes on, slows down with it (README.md, "Why run_cost"), so the run's
// host time in units of that chunk's time stays put where the raw seconds do
// not.
#pragma once

#include <pthread.h>

#include <condition_variable>
#include <mutex>
#include <thread>

namespace hostbench {

/// Runs one fixed chunk of reference work (about a millisecond on a recent
/// x86-64 core) and returns the calling thread's CPU seconds for it. Touches
/// no memory beyond a 16 KiB table, so it barely disturbs the simulator's
/// caches.
double reference_chunk();

/// Times the reference beside a run. The constructor pins the process to
/// the CPU it is on, times a few chunks and starts a sampler thread on that
/// CPU, which wakes every kInterval to time one chunk; stop() ends it and
/// times a few more. Each stretch of simulator CPU time between two samples
/// is divided by the mean of the chunk times on either side of it.
class ReferenceSampler {
public:
    ReferenceSampler();
    ~ReferenceSampler();
    ReferenceSampler(const ReferenceSampler&) = delete;
    ReferenceSampler& operator=(const ReferenceSampler&) = delete;

    /// Stops the sampler thread and closes the last stretch. Idempotent.
    void stop();

    /// CPU seconds of the calling (simulator) thread since construction.
    double run_s() const { return run_s_; }
    /// run_s() in units of the reference chunk's time beside it.
    double run_cost() const { return run_cost_; }
    int samples() const { return samples_; }

private:
    static constexpr int kIntervalMs = 20;
    static constexpr int kBracketChunks = 8;

    double sim_cpu_s() const;
    /// Ends the current stretch with the mean of @p chunks chunk times.
    void close(int chunks);
    void loop();

    clockid_t sim_clock_{};
    double mark_cpu_s_ = 0.0;
    double start_cpu_s_ = 0.0;
    double last_ref_s_ = 0.0;
    double run_s_ = 0.0;
    double run_cost_ = 0.0;
    int samples_ = 0;

    std::mutex mu_;
    std::condition_variable wake_;
    bool stopping_ = false;
    bool stopped_ = false;
    std::thread thread_;
};

}  // namespace hostbench
