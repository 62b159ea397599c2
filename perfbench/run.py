#!/usr/bin/env python3
"""The repository's benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check          # the benchmark's own checks

Run it from the repository root. It builds the `perfbench` package (its own
cargo workspace, so no feature of the fuzzer leaks into the measured
binary), runs the workload, checks every output, prints each metric with
its unit, median, quartiles and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones (from spans recorded around each layer's calls) and the
tracing overhead. Exit status: 0 when every check passed, 1 when an output
check failed, 2 when the benchmark could not run. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join("docs", "results.txt")
PROFILE = "release (lto = fat, codegen-units = 1)"
# Fresh-process repetitions of the set-up step; setup_s is their median.
SETUP_REPS = 5
# Every run measures at least this many iterations besides --seconds: one
# paper pass alone varies by up to 0.13 of its median from run to run on
# the reference host.
MIN_ITERATIONS = 2
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def work_dir(*parts):
    path = os.path.join(ROOT, ".bench_build", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def child_env():
    """The environment for every child: no MFHARNESS_* knob may redirect
    the run cache, the worker count or fault injection."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MFHARNESS_")}
    env["CARGO_TARGET_DIR"] = target_dir()
    return env


def run_tool(cmd, timeout=60):
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}")
    return out.returncode, out.stdout + out.stderr


# ----------------------------------------------------------------------------
# Build, isolation, provenance
# ----------------------------------------------------------------------------

def build():
    """Builds the benchmark package and proves the build carries no
    seeded-defect hooks. Returns the binary and the `cargo tree` evidence."""
    for need in ("crates/bench/Cargo.toml", EXPECTED, "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a full checkout of the repository")
    manifest = ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", *manifest],
            cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr, timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"cargo build: {e}")
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    code, tree = run_tool(["cargo", "tree", "--offline", *manifest, "-e", "features", "-i", "trace-vm"])
    if code != 0:
        raise BenchError(f"cargo tree failed:\n{tree}")
    if "seeded-defects" in tree or "mfdefect" in tree:
        raise BenchError(f"the build carries the seeded-defect hooks:\n{tree}")
    binary = os.path.join(target_dir(), "release", "perfbench")
    if not os.access(binary, os.X_OK):
        raise BenchError(f"{binary} was not built")
    return binary, tree.strip()


def source_digest():
    """SHA-256 over every tracked-looking source file, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in d.split(os.sep)
            for f in files
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(tree):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        code, out = run_tool(["git", "rev-parse", "HEAD"])
        commit = out.strip() if code == 0 else None
    _, rustc = run_tool(["rustc", "-V"])
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "rustc": rustc.strip(),
        "profile": PROFILE,
        "nproc": len(os.sched_getaffinity(0)),
        "isolation": tree.splitlines(),
    }


# ----------------------------------------------------------------------------
# Driving the binary
# ----------------------------------------------------------------------------

class Tally:
    """Everything the child processes of one benchmark run reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = {}   # name -> list of values
        self.values = {}    # name -> list of values (one per process)

    def add(self, rep, phase, measured=True):
        """Folds in one child's report. Output checks always count; its
        samples and values only when `measured`."""
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.errors += [f"{phase}: {e}" for e in rep["errors"]]
        if not measured:
            return
        for k, v in rep["samples"].items():
            self.samples.setdefault(k, []).extend(v)
        for k, v in rep["values"].items():
            if v is not None:
                self.values.setdefault(k, []).append(v)

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def call(binary, args, phase, trace_path=None):
    """Runs one perfbench subcommand and returns its report."""
    cmd = [binary, *args]
    if trace_path:
        cmd += ["--trace", "--spans", trace_path]
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase}: timed out after {CHILD_TIMEOUT}s")
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        # A crash (a panicking run, say) is a failed operation, not a sample.
        return {"attempted": 1, "failed": 1, "samples": {}, "values": {},
                "errors": [f"perfbench exited {out.returncode}"]}
    rep = json.loads(lines[-1])
    if out.returncode == 1 and rep["failed"] == 0:
        raise BenchError(f"{phase}: perfbench exited 1 without naming a failure")
    return rep


def default_cache_stamps():
    """The run caches the harness falls back to; the benchmark must never
    touch them."""
    stamps = {}
    for d in (os.path.join(ROOT, "target", "mfharness-cache"),
              os.path.join(target_dir(), "mfharness-cache")):
        stamps[d] = os.stat(d).st_mtime_ns if os.path.exists(d) else None
    return stamps


def fresh_dir(state, name):
    path = os.path.join(state, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


FRONT_END = ("mfwork.", "mflang.", "mfopt.", "mfpredict.")


def setup(binary, tally, trace, spans_dir):
    """The set-up step, repeated in fresh processes; only its wall time
    and the front-end layer metrics are kept."""
    for i in range(SETUP_REPS):
        spans = os.path.join(spans_dir, f"prepare-{i}.json") if trace else None
        rep = call(binary, ["prepare"], f"prepare {i}", spans)
        tally.add(rep, f"prepare {i}", measured=False)
        tally.samples.setdefault("setup_s", []).extend(rep["samples"].get("wall_s", []))
        for k, v in rep["values"].items():
            if k.startswith(FRONT_END):
                tally.values.setdefault(k, []).append(v)


def paper(binary, tally, opts, state, spans_dir, warm):
    """paper-cold: every iteration a fresh process on a fresh cache.
    paper-warm: one fill during set-up, then fresh processes on it. With
    --trace 1 every iteration is traced; each prices its own spans."""
    def one(cache, phase, traced):
        spans = os.path.join(spans_dir, f"{phase.replace(' ', '-')}.json") if traced else None
        args = ["paper", "--cache", cache, "--expect", opts.expect]
        return call(binary, args, phase, spans)

    cache = fresh_dir(state, "run-cache")
    if warm:
        fill = one(cache, "fill", False)
        tally.add(fill, "fill", measured=False)
        tally.samples["fill_s"] = fill["samples"].get("wall_s", [])
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start < opts.seconds:
        if not warm:
            cache = fresh_dir(state, "run-cache")
        tally.add(one(cache, f"iteration {i}", bool(opts.trace)), f"iteration {i}")
        i += 1


def in_process(binary, tally, opts, state, spans_dir, sub):
    args = [sub, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    if sub == "profile-generations":
        args += ["--db", fresh_dir(state, "profile-db")]
    spans = os.path.join(spans_dir, f"{sub}.json") if opts.trace else None
    tally.add(call(binary, args, sub, spans), sub)


WORKLOADS = {
    "paper-cold": lambda b, t, o, s, d: paper(b, t, o, s, d, warm=False),
    "paper-warm": lambda b, t, o, s, d: paper(b, t, o, s, d, warm=True),
    "guest-exec": lambda b, t, o, s, d: in_process(b, t, o, s, d, "guest-exec"),
    "profile-generations": lambda b, t, o, s, d: in_process(b, t, o, s, d, "profile-generations"),
}


# ----------------------------------------------------------------------------
# Statistics and the result
# ----------------------------------------------------------------------------

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def tail(xs):
    """The highest percentile with at least ten samples beyond it, and the
    percentile it is (the maximum when there are ten samples or fewer)."""
    s = sorted(xs)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def summarize(tally, spec, trace):
    """Every metric of the mode as (value, samples, note)."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        xs = tally.samples.get(name) or tally.values.get(name) or []
        note = ""
        if name == "bench.failed_ratio":
            xs = [tally.failed / max(tally.attempted, 1)]
        elif name in ("bench.fill_s", "bench.raw_wall_s"):
            xs = tally.samples.get(name.removeprefix("bench."), [])
        elif name == "bench.tail_s":
            walls = tally.samples.get("wall_s", [])
            value, pct = tail(walls) if walls else (0.0, 0.0)
            xs, note = [value], f"p{pct:.1f} of {len(walls)} iteration times"
        out[name] = (statistics.median(xs) if xs else 0.0, xs, note)
    return out


def validate(result, spec, trace):
    """The result line against the contract BENCHMARK.json states."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    metrics = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in metrics}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            problems.append(f"{name}: value {m['value']!r} is not a number")
        elif not trace and m["value"] == 0 and result.get("correct"):
            # A failed operation may leave a metric unmeasured; the result
            # line then reports the failure instead.
            problems.append(f"{name}: end-to-end metric reads 0")
    return problems


def print_table(summary, units):
    print(f"{'metric':34} {'unit':>9} {'median':>14} {'q1':>14} {'q3':>14} {'n':>5}  note")
    for name, (value, xs, note) in summary.items():
        q1, _, q3 = quartiles(xs) if xs else (value, value, value)
        print(f"{name:34} {units[name]:>9} {value:14.6g} {q1:14.6g} {q3:14.6g} {len(xs):5d}  {note}")


def run_workload(opts, spec):
    binary, tree = build()
    info = provenance(tree)
    features = sorted({l.split('feature "')[1].split('"')[0]
                       for l in info["isolation"] if 'trace-vm feature "' in l})
    print(f"perfbench: build isolation: trace-vm built with features {features}, "
          f"no seeded-defects (cargo tree -e features -i trace-vm, "
          f"{len(info['isolation'])} lines in report.json)")
    state = fresh_dir(work_dir("perfbench-state"), f"{opts.workload}-{os.getpid()}")
    spans_dir = work_dir("perfbench-out", f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    stamps = default_cache_stamps()
    tally = Tally()
    info["loadavg_before"] = os.getloadavg()
    try:
        setup(binary, tally, opts.trace, spans_dir)
        WORKLOADS[opts.workload](binary, tally, opts, state, spans_dir)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    info["loadavg_after"] = os.getloadavg()
    if default_cache_stamps() != stamps:
        tally.fail("a default run cache (target/mfharness-cache) was touched")

    summary = summarize(tally, spec, opts.trace)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"perfbench: workload {opts.workload}, seed {opts.seed}, {opts.seconds}s, trace {opts.trace}")
    for k in ("commit", "source_digest", "rustc", "profile", "nproc", "loadavg_before", "loadavg_after"):
        print(f"  {k}: {info[k]}")
    if tally.samples.get("fill_s"):
        print(f"  run-cache fill (not in setup_s): {tally.samples['fill_s'][0]:.3f}s")
    print_table(summary, units)
    for e in tally.errors:
        print(f"FAILED: {e}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _, _) in summary.items()
        },
    }
    problems = validate(result, spec, opts.trace)
    if problems:
        raise BenchError("result does not match BENCHMARK.json: " + "; ".join(problems))
    with open(os.path.join(spans_dir, "report.json"), "w") as f:
        json.dump({"provenance": info, "result": result, "samples": tally.samples,
                   "errors": tally.errors}, f, indent=1)
    return result


# ----------------------------------------------------------------------------
# The benchmark's own checks
# ----------------------------------------------------------------------------

def check(spec):
    """Short runs that prove the schema, the determinism of the counts,
    and that a wrong expected table trips the paper oracle."""
    failures = []
    short = dict(seed=7, seconds=1.0, expect=EXPECTED)

    def short_run(workload, trace, **kw):
        opts = argparse.Namespace(workload=workload, trace=trace, **{**short, **kw})
        return run_workload(opts, spec)

    counts = {
        "guest-exec": ["trace-vm.guest_instrs", "trace-vm.flat_ops"],
        "profile-generations": ["mfprofsvc.group_commits"],
        "paper-cold": ["mfharness.jobs_computed"],
    }
    for workload, names in counts.items():
        first = short_run(workload, 1)
        if workload != "paper-cold":
            again = short_run(workload, 1)
        else:
            # The second paper pass doubles as the oracle check: a table
            # with one digit changed must be reported as a mismatch.
            wrong = os.path.join(work_dir("perfbench-state"), "results-wrong.txt")
            with open(os.path.join(ROOT, EXPECTED)) as f:
                text = f.read()
            i = text.index("Table 1")
            j = next(k for k in range(text.index("\n", i + 200), len(text)) if text[k].isdigit())
            with open(wrong, "w") as f:
                f.write(text[:j] + str((int(text[j]) + 1) % 10) + text[j + 1:])
            again = short_run(workload, 1, expect=os.path.relpath(wrong, ROOT))
            os.remove(wrong)
            if again["correct"] or again["failed"] == 0:
                failures.append("a wrong expected table did not trip the paper oracle")
        for name in names:
            a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b or a == 0:
                failures.append(f"{workload}: {name} did not repeat exactly ({a} vs {b})")
        if not first["correct"]:
            failures.append(f"{workload}: short run failed its output checks")
    for workload in ("guest-exec", "profile-generations"):
        if not short_run(workload, 0)["correct"]:
            failures.append(f"{workload}: short untraced run failed its output checks")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print("perfbench --check: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def main():
    # A terminated run still stops its child and deletes its private state:
    # SystemExit unwinds through subprocess.run (which kills the child and
    # waits for it) and the cleanup in run_workload.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="run the benchmark's own checks")
    opts = ap.parse_args()
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        if opts.check:
            return check(spec)
        if not opts.workload:
            ap.error("--workload is required")
        if opts.seconds is None:
            opts.seconds = spec["run_seconds"]
        opts.expect = EXPECTED
        result = run_workload(opts, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
