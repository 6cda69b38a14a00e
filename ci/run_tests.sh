#!/usr/bin/env bash
# CI entry point: build and test the default (RelWithDebInfo) tree, the
# ASan+UBSan tree, and the threaded tests under TSan, then run a short
# mission-path smoke of every benchmark workload. The ASan pass is
# what keeps the wire-framing and transport robustness tests honest — a
# buffer overread or UB in the decode path fails the build here even
# when the plain run passes.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

run_preset() {
    local preset="$1"
    local builddir="$2"
    echo "==== [$preset] configure ===="
    cmake --preset "$preset"
    echo "==== [$preset] build ===="
    cmake --build --preset "$preset" -j "$jobs"
    echo "==== [$preset] test ===="
    ctest --preset "$preset"

    # Batch determinism parity at explicit thread counts beyond the
    # default {1,2,8} matrix: ROSE_BATCH_JOBS adds counts so the
    # serial-vs-parallel bit-equality contract is exercised at both an
    # odd count and one well past this host's core count.
    echo "==== [$preset] batch parity (extra thread counts) ===="
    ROSE_BATCH_JOBS=3,16 "$builddir/tests/test_batch" \
        --gtest_filter='BatchParity.*'

    # Resilience layer, re-run explicitly: checkpoint/resume must stay
    # bit-identical to the goldens, and a multi-threaded batch with a
    # crashing slot must still return results for every other slot.
    echo "==== [$preset] resilience (checkpoint resume + batch isolation) ===="
    "$builddir/tests/test_checkpoint" \
        --gtest_filter='Checkpoint.ResumeMatchesGoldenTraces'
    "$builddir/tests/test_supervisor" \
        --gtest_filter='BatchIsolation.*:Supervisor.RecoversMissionThatAbortsUnsupervised'

    # Per-frame mission path: cached camera render and pose scratch
    # stay bit-identical to the fresh paths, and the pose scratch
    # allocates nothing in steady state. The allocation-counting
    # assertion skips itself under the sanitizer preset.
    echo "==== [$preset] frame-path bit-identity + zero-alloc ===="
    "$builddir/tests/test_hotpath"

    # Serve smoke: boot rosed on an ephemeral port, submit the golden
    # missions from 4 concurrent clients, and require every served
    # trajectory to hash bit-identically to a local run (the client's
    # `smoke` subcommand exits nonzero on any mismatch). Exercises the
    # whole daemon — listener, framing, admission, worker pool, drain
    # shutdown — under both presets, so ASan/UBSan covers the IO loop.
    echo "==== [$preset] serve smoke (rosed + 4 concurrent clients) ===="
    portfile="$(mktemp)"
    "$builddir/src/serve/rosed" --port 0 --jobs 2 \
        --port-file "$portfile" &
    rosed_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$portfile" ] && break
        sleep 0.1
    done
    [ -s "$portfile" ] || { echo "rosed never published its port"; \
        kill "$rosed_pid" 2>/dev/null; exit 1; }
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        smoke --clients 4 --missions 8

    # Streaming smoke on the same daemon: one mission whose trajectory
    # CSV exceeds 8 MiB, fetched once as binary records (many
    # ResultChunk frames), rendered to the canonical CSV on the client
    # and hash-verified against a local run. Under ASan/UBSan this
    # sweeps the chunked tx path, the record codec, and the
    # client-side reassembler.
    echo "==== [$preset] serve streaming smoke (>8 MiB trajectory) ===="
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        stream-smoke 2> /dev/null
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        shutdown
    wait "$rosed_pid"
    rm -f "$portfile"

    # Chaos smoke: SIGKILL a journaled rosed mid-mission, restart it
    # on the same journal directory, and require idempotent-resubmit
    # dedup plus golden-hash parity of the recovered result. This is
    # the crash-safety acceptance gate, run under both presets (and
    # under TSan below) so the sanitizers sweep the journal replay and
    # recovery paths too.
    echo "==== [$preset] chaos smoke (SIGKILL + journal recovery) ===="
    ci/chaos_smoke.sh "$builddir/src/serve/rose_client" \
        "$builddir/src/serve/rosed"
}

run_preset default build
run_preset asan build-asan

# ThreadSanitizer over the threaded paths: BatchRunner workers sharing
# one immutable sharedWorld (so World::raycast must stay stateless),
# supervisor checkpoint/restore threads, and rosed's IO thread, worker
# pool and pause/drop hooks. The tsan test preset selects test_batch,
# test_supervisor and test_serve; the chaos smoke then runs a TSan
# rosed through SIGKILL, journal replay and warm restore.
echo "==== [tsan] configure + build (threaded tests) ===="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
    --target test_batch test_supervisor test_serve rosed rose_client
echo "==== [tsan] test ===="
ctest --preset tsan
echo "==== [tsan] chaos smoke (SIGKILL + journal recovery) ===="
ci/chaos_smoke.sh build-tsan/src/serve/rose_client \
    build-tsan/src/serve/rosed

# Mission-path smoke: every benchmark workload runs real missions for
# a few seconds. perfbench/run.py exits 1 on any failed mission or a
# sim_digest that does not repeat across rounds and processes, so this
# is a correctness gate on the mission path, not a timing gate. The
# seed-1 digest of each workload is pinned too: a change to what any
# mission computes (frames, poses, packets, timing) moves it.
declare -A seed1_digest=(
    [sshape-inproc]=037d8f428e56c1e7
    [tunnel-tcp-sync2m]=5fba8b5105552d90
    [serve-short]=fd1cf7d0cc9045bc
)
smoke_log=$(mktemp)
trap 'rm -f "$smoke_log"' EXIT
for workload in sshape-inproc tunnel-tcp-sync2m serve-short; do
    echo "==== [perfbench] mission-path smoke: $workload ===="
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 3 --trace 0 | tee "$smoke_log"
    digest=$(awk '$1 == "#" && $2 == "sim_digest" {print $3}' \
        "$smoke_log")
    if [[ "$digest" != "${seed1_digest[$workload]}" ]]; then
        echo "sim_digest of $workload (seed 1) is '$digest'," \
            "expected ${seed1_digest[$workload]}" >&2
        exit 1
    fi
done

echo "==== all stages passed ===="
