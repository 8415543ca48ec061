#include "reference.h"

#include <sched.h>
#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>

namespace hostbench {

namespace {

volatile std::uint64_t g_sink;

double cpu_seconds(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double reference_chunk() {
    const double start = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    // Eight independent multiply-xorshift chains keep every integer port
    // busy; a xorshift-driven three-way branch over a small table adds the
    // mispredictions and L1 traffic of dispatch-heavy code.
    std::array<std::uint64_t, 8> h{1, 2, 3, 4, 5, 6, 7, 8};
    std::array<std::uint32_t, 4096> table{};
    std::uint32_t x = 2463534242u;
    std::uint32_t acc = 0;
    for (std::uint32_t i = 0; i < 40000; ++i) {
        for (std::size_t j = 0; j < h.size(); ++j) {
            h[j] = h[j] * 6364136223846793005ULL + i + j;
            h[j] ^= h[j] >> 17;
        }
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        if (x & 1u) {
            acc += table[x & 4095u]++;
        } else if (x & 2u) {
            acc ^= x;
        } else {
            acc -= table[(x >> 3) & 4095u];
        }
    }
    std::uint64_t sum = acc;
    for (std::uint64_t v : h) sum += v;
    g_sink = sum;
    return cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - start;
}

ReferenceSampler::ReferenceSampler() {
    // The sampler must share the simulator's core to see its contention;
    // the thread created below inherits this mask.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
    }
    pthread_getcpuclockid(pthread_self(), &sim_clock_);
    double total = 0.0;
    for (int i = 0; i < kBracketChunks; ++i) total += reference_chunk();
    samples_ = kBracketChunks;
    last_ref_s_ = total / kBracketChunks;
    start_cpu_s_ = mark_cpu_s_ = sim_cpu_s();
    thread_ = std::thread([this] { loop(); });
}

ReferenceSampler::~ReferenceSampler() { stop(); }

double ReferenceSampler::sim_cpu_s() const { return cpu_seconds(sim_clock_); }

void ReferenceSampler::close(int chunks) {
    const double now_cpu_s = sim_cpu_s();
    double total = 0.0;
    for (int i = 0; i < chunks; ++i) total += reference_chunk();
    const double ref_s = total / chunks;
    samples_ += chunks;
    run_cost_ += (now_cpu_s - mark_cpu_s_) / (0.5 * (last_ref_s_ + ref_s));
    mark_cpu_s_ = now_cpu_s;
    last_ref_s_ = ref_s;
}

void ReferenceSampler::loop() {
    std::unique_lock<std::mutex> lock(mu_);
    auto next = std::chrono::steady_clock::now();
    while (true) {
        next += std::chrono::milliseconds(kIntervalMs);
        if (wake_.wait_until(lock, next, [this] { return stopping_; })) return;
        close(1);
    }
}

void ReferenceSampler::stop() {
    if (stopped_) return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    wake_.notify_one();
    thread_.join();
    stopped_ = true;
    run_s_ = sim_cpu_s() - start_cpu_s_;
    close(kBracketChunks);
}

}  // namespace hostbench
