#!/usr/bin/env python3
"""End-to-end benchmark of the repute mapper: one workload per call.

    python3 perfbench/run.py --workload oneshot_se100 --seed 7 \\
        --seconds 15 --trace 0

Builds the `perfbench` runner (perfbench/CMakeLists.txt, which builds the
mapper from this checkout's sources) into $CARGO_TARGET_DIR, default
.bench_build; generates the workload's fixtures (a fixed reference per
fixture family, reads from --seed), cached by a hash of the generator
sources; then runs the workload. The
last line of stdout is the JSON result; the exit code is non-zero when
any output check failed. --self-test builds and runs the helper tests
instead. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
RUN_LIMIT_S = 170
# Read sets kept per family (~9 MB each); older seeds are pruned.
READ_SETS_KEPT = 8
# Sources that decide fixture bytes: the generator and the simulators,
# index writer and gzip code it calls.
GENERATOR_SOURCES = [
    "perfbench/src/fixtures.hpp",
    "perfbench/src/fixtures.cpp",
    "src/genomics/*",
    "src/index/*",
    "src/util/*",
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, path, "perfbench")


def build(out_dir, targets):
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(REPO, "src", "CMakeLists.txt")
    ):
        fail("no mapper sources next to perfbench/ (expected CMakeLists.txt and src/)")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def generator_hash():
    digest = hashlib.sha256()
    for pattern in GENERATOR_SOURCES:
        for path in sorted(glob.glob(os.path.join(REPO, pattern))):
            digest.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def generate(root, name, command):
    """Runs a generator subcommand into root/name once; returns the dir.

    Output lands in a temporary directory renamed into place, so an
    interrupted run never leaves a partial fixture behind."""
    final = os.path.join(root, name)
    if os.path.isdir(final):
        os.utime(final)
        return final
    tmp = final + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if subprocess.run(command + ["--out", tmp], stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("fixture generation failed: " + " ".join(command))
    os.rename(tmp, final)
    return final


def fixtures(binary, out_dir, family, seed):
    """(reference dir, reads dir) for the family and seed, generated on
    first use. Read sets of older seeds are pruned."""
    root = os.path.join(out_dir, "fixtures")
    os.makedirs(root, exist_ok=True)
    stamp = generator_hash()
    reference = generate(root, "%s-ref-%s" % (family, stamp), [binary, "reference", "--family", family])
    reads = generate(
        root,
        "%s-s%d-%s" % (family, seed, stamp),
        [binary, "reads", "--family", family, "--seed", str(seed), "--reference", reference],
    )
    sets = sorted(
        (d for d in glob.glob(os.path.join(root, family + "-s*")) if ".tmp" not in d),
        key=os.path.getmtime,
        reverse=True,
    )
    for stale in sets[READ_SETS_KEPT:]:
        shutil.rmtree(stale, ignore_errors=True)
    return reference, reads


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if args.self_test:
        build(out_dir, ["perfbench_tests"])
        tests = os.path.join(out_dir, "perfbench_tests")
        return subprocess.run([tests], cwd=out_dir).returncode

    build(out_dir, ["perfbench"])
    started = time.monotonic()
    binary = os.path.join(out_dir, "perfbench")
    listing = subprocess.run([binary, "workloads"], stdout=subprocess.PIPE, text=True, check=True)
    families = dict(line.split() for line in listing.stdout.splitlines())
    if args.workload not in families:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(families)))
    if args.seed < 0:
        fail("--seed must be >= 0")
    reference_dir, reads_dir = fixtures(binary, out_dir, families[args.workload], args.seed)

    # sun_path holds ~108 bytes, so the socket is named relative to the
    # working directory the runner binary runs in.
    socket = os.path.relpath(os.path.join(out_dir, "s%d.sock" % os.getpid()), REPO)
    run = [
        binary, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", reference_dir,
        "--reads", reads_dir,
        "--socket", socket,
    ]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        run += ["--spans", os.path.join(spans_dir, "%s-s%d.json" % (args.workload, args.seed))]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(run, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_LIMIT_S)
    finally:
        if os.path.exists(os.path.join(REPO, socket)):
            os.unlink(os.path.join(REPO, socket))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        fail("workload exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    if proc.returncode == 0 and expected is not None and set(result["metrics"]) != expected:
        print("\n".join(lines[:-1]))
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(result["metrics"]), sorted(expected)))
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
