/**
 * @file
 * Robot-morphology demo: the same full-stack co-simulation — SoC,
 * bridge, synchronizer, DNN controller — driving an Ackermann ground
 * rover instead of the UAV (the paper artifact's "car vs drone"
 * option, Appendix A.8.3; morphology breadth is Section 6's roadmap).
 * Only the environment-side vehicle model changes; the companion
 * computer runs the identical software stack.
 *
 * Run: ./build/examples/rover_navigation [world] [velocity]
 * (exit 2 on an unknown world or a velocity that is not a finite,
 * non-negative number).
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    if (argc > 3) {
        std::fprintf(stderr, "usage: %s [world] [velocity]\n", argv[0]);
        return 2;
    }
    core::MissionSpec spec;
    spec.world = argc > 1 ? argv[1] : "s-shape";
    spec.vehicle = "rover";
    spec.socName = "A";
    spec.modelDepth = 14;
    spec.velocity = 6.0;
    spec.maxSimSeconds = 90.0;
    if (argc > 2) {
        const char *text = argv[2];
        const char *end = text + std::strlen(text);
        auto [ptr, ec] = std::from_chars(text, end, spec.velocity);
        if (ec != std::errc() || ptr != end || ptr == text ||
            !std::isfinite(spec.velocity) || spec.velocity < 0.0) {
            std::fprintf(stderr,
                         "velocity: not a finite non-negative number: "
                         "'%s'\n",
                         text);
            return 2;
        }
    }

    // An unknown world is caught here, before the banner and the run.
    std::unique_ptr<core::CoSimulation> sim;
    try {
        sim = std::make_unique<core::CoSimulation>(spec.toConfig());
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    std::printf("RoSE rover navigation: %s @ %.1f m/s, ResNet14 on "
                "config A\n\n",
                spec.world.c_str(), spec.velocity);

    core::MissionResult r = sim->run();

    std::printf("mission %s in %.2f s (collisions: %llu)\n",
                r.completed ? "COMPLETED" : "TIMED OUT", r.missionTime,
                (unsigned long long)r.collisions);
    std::printf("avg speed %.2f m/s, %llu inferences at %.0f ms "
                "request->command\n",
                r.avgSpeed, (unsigned long long)r.inferences,
                r.avgInferenceLatency * 1e3);

    std::printf("\ntrajectory (every ~3 s):\n%8s %8s %8s %8s\n", "t[s]",
                "x[m]", "y[m]", "v[m/s]");
    double next_t = 0.0;
    for (const core::TrajectorySample &s : r.trajectory) {
        if (s.time >= next_t) {
            std::printf("%8.2f %8.2f %8.2f %8.2f\n", s.time,
                        s.position.x, s.position.y, s.speed);
            next_t += 3.0;
        }
    }
    return r.completed ? 0 : 1;
}
