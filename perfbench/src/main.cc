/**
 * @file
 * rose_perfbench: the mission-path benchmark program.
 *
 *   rose_perfbench setup --workload W --seed S
 *       warm the artifact caches (and start the server on serve-short)
 *       in a fresh process; print {"setup_s": ...}.
 *   rose_perfbench run --workload W --seed S --seconds T --trace 0|1
 *                      [--trace-out PATH]
 *       set up, then measure for T host seconds. Lines starting with
 *       '#' are the human-readable report; the last line is one JSON
 *       object with the metrics, the correctness verdict and the
 *       simulated-outcome digest.
 *
 * perfbench/run.py builds this binary and wraps both commands.
 */

#include <malloc.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>

#include "runner.hh"
#include "serve/server.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace {

/** Per-layer metrics of a traced run: name, unit. A workload that
 *  does not exercise a layer reports 0 with 0 samples. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"sync.begin_us", "us"},
    {"soc.run_us", "us"},
    {"sync.end_us", "us"},
    {"core.host_us_per_period", "us"},
    {"env.step_frame_us", "us"},
    {"env.render_us", "us"},
    {"bridge.image_encode_us", "us"},
    {"bridge.image_decode_us", "us"},
    {"bridge.frame_us", "us"},
    {"dnn.infer_us", "us"},
    {"core.checkpoint_us", "us"},
    {"core.batch_efficiency", "frac"},
    {"serve.submit_ms", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p90", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.supervisor_ratio", "ratio"},
    {"serve.fetch_ms", "ms"},
    {"serve.polls_per_job", "count"},
    {"serve.shed_frac", "frac"},
    {"serve.stream_bytes_per_job", "B"},
    {"sync.periods", "count"},
    {"sync.image_requests", "count"},
    {"env.frames", "count"},
    {"runtime.inferences", "count"},
    {"soc.actions", "count"},
    {"bridge.mmio_reads", "count"},
    {"soc.sim_cycles", "count"},
    {"trace.coverage", "frac"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rose_perfbench: " << why << "\n"
              << "usage: rose_perfbench setup --workload W --seed S\n"
              << "       rose_perfbench run --workload W --seed S "
                 "--seconds T --trace 0|1 [--trace-out PATH]\n";
    std::exit(2);
}

struct Cli
{
    std::string command;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
};

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(std::string(flag) + " needs a whole number, got '" + text +
              "'");
    return v;
}

Cli
parseCli(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Cli cli;
    cli.command = argv[1];
    if (cli.command != "setup" && cli.command != "run")
        usage("unknown command '" + cli.command + "'");
    bool have_seed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *value = argv[++i];
        if (flag == "--workload") {
            cli.workload = value;
        } else if (flag == "--seed") {
            cli.seed = parseUnsigned("--seed", value);
            have_seed = true;
        } else if (flag == "--seconds" && cli.command == "run") {
            cli.seconds = double(parseUnsigned("--seconds", value));
        } else if (flag == "--trace" && cli.command == "run") {
            cli.trace = int(parseUnsigned("--trace", value));
        } else if (flag == "--trace-out" && cli.command == "run") {
            cli.traceOut = value;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (cli.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (cli.command == "run" &&
        (cli.seconds < 1 || (cli.trace != 0 && cli.trace != 1)))
        usage("run needs --seconds >= 1 and --trace 0|1");
    return cli;
}

/** Warm caches and, for the rosed path, start the server. */
std::unique_ptr<rose::serve::MissionServer>
setUp(const Workload &w, double &setup_s)
{
    const auto t0 = Clock::now();
    warmCaches(w);
    std::unique_ptr<rose::serve::MissionServer> server;
    if (w.served) {
        rose::serve::ServerConfig cfg;
        cfg.workers = kWorkers;
        server = std::make_unique<rose::serve::MissionServer>(cfg);
        server->start();
    }
    setup_s = secondsSince(t0);
    return server;
}

void
printReport(const Cli &cli, const RunOutput &out, double setup_s)
{
    std::cout << "# workload=" << cli.workload << " seed=" << cli.seed
              << " trace=" << cli.trace << "\n";
    std::cout << "# one round: " << out.round.text() << "\n";
    std::cout << "# sim_digest " << hex64(out.simDigest) << "\n";
    for (const Metric &m : out.metrics) {
        std::cout << "# metric " << m.name << " " << jsonNumber(m.value)
                  << " " << m.unit << " n=" << m.samples;
        if (!m.base.empty())
            std::cout << " base: " << m.base;
        std::cout << "\n";
    }
    for (const std::string &e : out.errors)
        std::cout << "# FAILED " << e << "\n";

    std::cout << "{\"workload\":\"" << cli.workload << "\",\"seed\":"
              << cli.seed << ",\"trace\":" << cli.trace
              << ",\"correct\":" << (out.failed == 0 ? "true" : "false")
              << ",\"attempted\":" << out.attempted
              << ",\"failed\":" << out.failed << ",\"sim_digest\":\""
              << hex64(out.simDigest) << "\",\"setup_s\":"
              << jsonNumber(setup_s) << ",\"metrics\":{";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::cout << (i ? "," : "") << "\"" << m.name
                  << "\":{\"value\":" << jsonNumber(m.value)
                  << ",\"unit\":\"" << m.unit << "\",\"n\":" << m.samples
                  << "}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    // A fixed mmap threshold hands large buffers (trajectories, round
    // results) back to the OS when freed. With glibc's adaptive
    // threshold, peak RSS depended on which missions happened to share
    // an arena and varied by up to 30% between identical runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Cli cli = parseCli(argc, argv);
    Workload w;
    try {
        w = makeWorkload(cli.workload, cli.seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    // Transport warnings from the library are diagnostics of failed
    // missions, which the report already lists.
    rose::setLogThreshold(rose::LogLevel::Fatal);

    double setup_s = 0.0;
    std::unique_ptr<rose::serve::MissionServer> server = setUp(w, setup_s);
    if (cli.command == "setup") {
        if (server)
            server->stop(false);
        std::cout << "{\"setup_s\":" << jsonNumber(setup_s) << "}"
                  << std::endl;
        return 0;
    }

    RunOutput out;
    RunOptions opt;
    opt.seconds = cli.seconds;
    opt.trace = cli.trace == 1;
    if (opt.trace)
        for (const auto &[name, unit] : kLayerMetrics)
            out.metrics.push_back({name, 0.0, unit, 0, ""});
    try {
        if (w.served)
            runServed(w, *server, opt, out, std::cout);
        else
            runLocal(w, opt, out, std::cout);
    } catch (const std::exception &e) {
        out.fail(std::string("benchmark aborted: ") + e.what());
    }
    if (server)
        server->stop(false);

    if (opt.trace) {
        out.sink.printSelfTime(std::cout);
        std::cout << "# trace spans: " << out.sink.recordedSpans()
                  << " recorded, " << out.sink.keptSpans()
                  << " written\n";
        if (!cli.traceOut.empty() && !out.sink.writeChrome(cli.traceOut))
            out.fail("cannot write trace to " + cli.traceOut);
    }
    printReport(cli, out, setup_s);
    return out.failed == 0 ? 0 : 1;
}
