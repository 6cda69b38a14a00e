/**
 * @file
 * Table 2: hardware configurations evaluated using RoSÉ.
 *
 *   Configuration |      A      |    B    |      C
 *   CPU           | 3-wide BOOM | Rocket  | 3-wide BOOM
 *   Accelerator   |   Gemmini   | Gemmini |    None
 *
 * Prints the configuration matrix plus the modeled microarchitectural
 * parameters behind each column (Section 4.2.1), including the Gemmini
 * instance (4x4 FP32 mesh, 256 KiB scratchpad, 64 KiB accumulator).
 */

#include <cstdio>

#include "core/batch.hh"
#include "gemmini/gemmini.hh"
#include "soc/config.hh"

int
main(int argc, char **argv)
{
    rose::core::parseNoArgCli(argc, argv);
    using namespace rose;

    std::printf("Table 2: Hardware configurations evaluated using "
                "RoSE\n\n");
    std::printf("%-16s", "Configuration");
    for (const char *name : {"A", "B", "C"})
        std::printf(" | %-14s", name);
    std::printf("\n%-16s", "CPU");
    for (const char *name : {"A", "B", "C"}) {
        soc::SocConfig c = soc::configByName(name);
        std::printf(" | %-14s", c.cpuName().c_str());
    }
    std::printf("\n%-16s", "Accelerator");
    for (const char *name : {"A", "B", "C"}) {
        soc::SocConfig c = soc::configByName(name);
        std::printf(" | %-14s", c.acceleratorName().c_str());
    }
    std::printf("\n\nModeled parameters:\n");
    for (const char *name : {"A", "B", "C"}) {
        soc::SocConfig c = soc::configByName(name);
        std::printf("  config %s: clock %.1f GHz, MMIO %llu cy, host "
                    "bw %.1f B/cy, scalar FP %.3f FLOP/cy, per-layer "
                    "dispatch %llu cy\n",
                    name, c.clockHz / 1e9,
                    (unsigned long long)c.cpuParams.mmioAccessCycles,
                    c.cpuParams.hostBytesPerCycle,
                    c.cpuParams.flopsPerCycle,
                    (unsigned long long)c.cpuParams.perLayerFixedCycles);
    }

    gemmini::GemminiConfig g;
    std::printf("\nGemmini instance (configs A, B): %dx%d FP32 "
                "weight-stationary mesh, %u KiB scratchpad, %u KiB "
                "accumulator, %.0f B/cy memory bus (128-bit), peak %d "
                "MACs/cy\n",
                g.meshRows, g.meshCols, g.scratchpadBytes / 1024,
                g.accumulatorBytes / 1024, g.busBytesPerCycle,
                g.macsPerCycle());
    return 0;
}
