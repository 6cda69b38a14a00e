#include "workload.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/hash.hh"

namespace perfbench {

using rose::core::MissionSpec;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

/** splitmix64: decorrelated per-mission seeds from one workload seed. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

MissionSpec
spec(const std::string &world, const std::string &soc, int depth,
     double yaw, rose::Cycles sync, double max_sim_s)
{
    MissionSpec s;
    s.world = world;
    s.socName = soc;
    s.modelDepth = depth;
    s.initialYawDeg = yaw;
    s.syncGranularity = sync;
    s.maxSimSeconds = max_sim_s;
    return s;
}

} // namespace

rose::core::CosimConfig
Workload::config(const MissionSpec &s) const
{
    rose::core::CosimConfig cfg = s.toConfig();
    cfg.transport = transport;
    return cfg;
}

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    using rose::kMegaCycles;
    Workload w;
    w.seed = seed;
    const double yaws[] = {-20.0, 0.0, 20.0};
    // Each spec of the mix runs under this many mission seeds per
    // round, so the round's total simulated work varies less with the
    // workload seed.
    int replicas = 1;
    if (name == "sshape-inproc") {
        // Long s-shape missions (~2.8 k periods, ~300 inferences):
        // frame work (ray-march render, pose estimation, image
        // encode/decode on the in-process copy path) dominates.
        replicas = 2;
        for (const char *soc : {"A", "B"})
            for (int depth : {6, 14})
                for (double yaw : yaws)
                    w.specs.push_back(spec("s-shape", soc, depth, yaw,
                                           10 * kMegaCycles, 60.0));
    } else if (name == "tunnel-tcp-sync2m") {
        // Fig 15's sync-overhead-bound point: 2 M-cycle periods over
        // loopback TCP, cheap tunnel render, few cfgC inferences.
        w.transport = rose::core::TransportKind::Tcp;
        replicas = 3;
        for (const char *soc : {"A", "B", "C"})
            for (int depth : {6, 14})
                for (double yaw : yaws)
                    w.specs.push_back(spec("tunnel", soc, depth, yaw,
                                           2 * kMegaCycles, 60.0));
    } else if (name == "serve-short") {
        // 3 s horizons: admission, queueing, supervision, encode and
        // streaming are about half of each job's latency.
        w.served = true;
        for (const char *world : {"tunnel", "s-shape"})
            for (const char *soc : {"A", "B"})
                for (int depth : {6, 14})
                    w.specs.push_back(spec(world, soc, depth, 0.0,
                                           10 * kMegaCycles, 3.0));
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }

    const std::vector<MissionSpec> mix = w.specs;
    for (int r = 1; r < replicas; ++r)
        w.specs.insert(w.specs.end(), mix.begin(), mix.end());
    uint64_t state = seed;
    for (MissionSpec &s : w.specs)
        s.seed = splitmix(state);
    // Seeded submission order, so which missions share the two
    // workers varies with the seed too.
    for (size_t i = w.specs.size(); i > 1; --i)
        std::swap(w.specs[i - 1], w.specs[splitmix(state) % i]);
    return w;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(q * double(v.size()) + 0.999999999);
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::string
socStatsText(const rose::soc::SocStats &s)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  uint64_t(s.totalCycles), uint64_t(s.cpuBusyCycles),
                  uint64_t(s.accelBusyCycles), uint64_t(s.ioBusyCycles),
                  uint64_t(s.rxStallCycles), uint64_t(s.haltIdleCycles),
                  s.actionsIssued, s.periods);
    return buf;
}

uint64_t
missionDigest(const std::string &trajectory_csv,
              const std::string &stats_text)
{
    return rose::fnv1a(stats_text, rose::fnv1a(trajectory_csv));
}

uint64_t
chainDigest(const std::vector<uint64_t> &digests)
{
    uint64_t h = rose::kFnv1aOffsetBasis;
    for (uint64_t d : digests)
        h = rose::fnv1a(&d, sizeof d, h);
    return h;
}

void
SimBase::add(double sim_s, uint64_t cycles, uint64_t periods_,
             uint64_t inferences_)
{
    ++missions;
    simSeconds += sim_s;
    simCycles += cycles;
    periods += periods_;
    inferences += inferences_;
}

std::string
SimBase::text() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "missions=%zu sim_s=%.3f sim_cycles=%" PRIu64
                  " periods=%" PRIu64 " inferences=%" PRIu64,
                  missions, simSeconds, simCycles, periods, inferences);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

} // namespace perfbench
