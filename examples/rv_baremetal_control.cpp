/**
 * @file
 * Classical-control build-flow demo (Section 3.3): a bare-metal RV32IM
 * program, assembled with the bundled assembler, runs as the companion
 * computer. It drives the RoSE bridge's memory-mapped registers
 * directly — committing VelocityCmd packets and polling sensor
 * responses — while a Rocket-class timing model charges every
 * instruction and uncached MMIO access.
 *
 * This example wires the co-simulation out of individual library
 * pieces (environment, bridge, synchronizer, SoC engine) instead of
 * using the CoSimulation convenience top, showing the composition
 * seams.
 *
 * Run: ./build/examples/rv_baremetal_control
 */

#include <cstdio>

#include "bridge/rose_bridge.hh"
#include "bridge/transport.hh"
#include "core/batch.hh"
#include "env/envsim.hh"
#include "rv/assembler.hh"
#include "rv/core.hh"
#include "rv/timing.hh"
#include "soc/rv_workload.hh"
#include "soc/socsim.hh"
#include "sync/synchronizer.hh"

/// The target program: each iteration sends a VelocityCmd
/// (forward = 2.0 m/s), requests an IMU sample, parks on `fence`
/// until the response crosses a sync boundary, then drains RX.
static const char *kProgram = R"(
        lui a0, 0x40000        # bridge MMIO base
main_loop:
        # --- VelocityCmd{forward=2.0, lateral=0, yawRate=0} ---
        li a1, 0x16            # PacketType::VelocityCmd
        sw a1, 0x18(a0)        # TX_TYPE
        li a1, 24              # 3 x f64 payload
        sw a1, 0x1C(a0)        # TX_LEN
        sw x0, 0x20(a0)        # forward, low word
        lui a2, 0x40000        # f64 2.0 = 0x4000000000000000
        sw a2, 0x20(a0)        # forward, high word
        sw x0, 0x20(a0)        # lateral = 0.0
        sw x0, 0x20(a0)
        sw x0, 0x20(a0)        # yawRate = 0.0
        sw x0, 0x20(a0)
        li a1, 1
        sw a1, 0x24(a0)        # TX_COMMIT

        # --- ImuReq (empty payload) ---
        li a1, 0x10            # PacketType::ImuReq
        sw a1, 0x18(a0)
        sw x0, 0x1C(a0)
        li a1, 1
        sw a1, 0x24(a0)

        fence                  # park until the bridge RX fills

        # --- drain and count responses ---
        lw a3, 0x00(a0)        # RX_COUNT
drain:
        beqz a3, main_loop
        sw x0, 0x10(a0)        # RX_CONSUME
        li a4, 0x100
        lw a5, 0(a4)           # responses-seen counter in RAM
        addi a5, a5, 1
        sw a5, 0(a4)
        addi a3, a3, -1
        j drain
)";

int
main(int argc, char **argv)
{
    rose::core::parseNoArgCli(argc, argv);
    using namespace rose;

    // --- Environment + synchronizer side ----------------------------
    env::EnvConfig ecfg;
    ecfg.worldName = "tunnel";
    ecfg.frameHz = 100.0;
    env::EnvSim env(ecfg);

    auto [sync_end, bridge_end] = bridge::makeInProcPair();
    bridge::RoseBridge rose_bridge(*bridge_end);

    sync::SyncConfig scfg;
    scfg.cyclesPerSync = 10 * kMegaCycles;
    sync::Synchronizer synchronizer(env, *sync_end, scfg);

    // --- Target side: assemble and load the program ------------------
    rv::Program program = rv::assemble(kProgram);
    std::printf("assembled %zu words, symbols:", program.words.size());
    for (const auto &[name, addr] : program.symbols)
        std::printf(" %s=0x%x", name.c_str(), addr);
    std::printf("\n");

    rv::Core core;
    core.loadProgram(program.words);
    soc::attachMmioDevice(core, rose_bridge);
    rv::RocketTiming timing;
    soc::RvWorkload workload(core, timing, "baremetal-control");
    soc::SocSim soc_sim(rose_bridge, workload, soc::configB());

    // --- Lockstep run -------------------------------------------------
    synchronizer.configure();
    rose_bridge.hostService();

    const int kPeriods = 1200; // 12 s at 10 ms per period
    for (int i = 0; i < kPeriods; ++i) {
        synchronizer.beginPeriod();
        soc_sim.runPeriod();
        synchronizer.endPeriod();
    }

    // --- Report --------------------------------------------------------
    flight::VehicleState k = env.kinematics();
    std::printf("\nafter %.1f s of simulated flight under RV32IM "
                "control:\n",
                env.simTime());
    std::printf("  position: x=%.2f m, y=%.2f m, z=%.2f m\n",
                k.position.x, k.position.y, k.position.z);
    std::printf("  forward speed: %.2f m/s (commanded 2.0)\n",
                k.velocity.x);
    std::printf("  collisions: %llu\n",
                (unsigned long long)env.collisionInfo().count);
    std::printf("  velocity commands decoded by synchronizer: %llu\n",
                (unsigned long long)
                    synchronizer.stats().velocityCommands);
    std::printf("  IMU responses counted by the RV program: %u\n",
                core.loadWord(0x100));
    std::printf("  retired instructions: %llu, modeled cycles: %llu "
                "(IPC %.2f)\n",
                (unsigned long long)timing.stats().insns,
                (unsigned long long)timing.cycles(), timing.ipc());
    std::printf("  MMIO accesses: %llu\n",
                (unsigned long long)timing.stats().mmioAccesses);

    bool ok = k.position.x > 10.0 &&
              env.collisionInfo().count == 0 &&
              core.loadWord(0x100) > 100;
    std::printf("\n%s\n", ok ? "baremetal control loop flies the "
                               "corridor -- OK"
                             : "unexpected outcome");
    return ok ? 0 : 1;
}
