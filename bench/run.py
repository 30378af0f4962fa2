"""simo-energy benchmark: three workloads over the simulation stack and the CLI.

Run from the repository root:

    python3 bench/run.py --workload sim-rician --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  sim-rician   simulate on Rayleigh fading for three receivers, min_antennas
  sim-generic  Nakagami and pilot-PAM simulate, min_antennas, histogram
  cli          the six README commands as fresh `python -m simo_energy.cli`

With --trace 0 the workload's ops run in a closed loop (each op starts when
the previous one ends) in passes over the whole op list until the next pass
would end after --seconds; at least one pass runs.  Every output is checked.
The last stdout line is a JSON object with the end-to-end metrics:
setup_s (median over fresh interpreters of `import simo_energy` plus
building the workload's inputs), wall_s (median pass), op_p50_s (median
over the ops of each op's median time), op_max_s (median over passes of the
slowest op) and peak_rss_mb (this process or any child).  The failed-op
ratio is printed above it and is failed / attempted in the JSON.

With --trace 1 the per-layer metrics are measured instead (see layers.py)
and the spans are written to bench/out/.  The design stack has no timed
workload of its own: the pure-Python design code ran up to 1.5 times slower
in some minutes than in others on a shared 2-vCPU host, more than any bound
the benchmark can hold.  It is timed end to end inside the cli workload (the
design and sweep-n commands) and in sim-rician's set-up, and cell by cell in
the traced run.

The package is imported from src/, it is not installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sim-rician", "sim-generic", "cli")
SETUP_SAMPLES = 3  # fresh interpreters per run: this one plus two children
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> dict:
    """Cap native threads at nproc, import from src/, write no bytecode.

    Applied to this process before numpy is imported, and inherited by every
    child.  Without bytecode writes the package leaves no __pycache__ in src/.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def machine_header() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "loadavg_start": os.getloadavg(),
    }


def build_inputs(workload: str, seed: int, workdir: Path, env: dict):
    """`import simo_energy` and the workload's inputs; returns (ops, seconds)."""
    t0 = time.perf_counter()
    import simo_energy  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    ops = workloads.build(workload, seed, workdir, env, nproc())
    return ops, time.perf_counter() - t0


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(ops: list, seconds: float) -> dict:
    """Closed loop over the ops, in whole passes; checks run between passes."""
    walls, pass_max = [], []
    op_times = {op.name: [] for op in ops}
    attempted = failed = 0
    unexpected = []
    start = time.perf_counter()
    while True:
        results = []
        t_pass = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, f"{type(exc).__name__}: {exc}"
            results.append((op, time.perf_counter() - t0, out, error))
        walls.append(time.perf_counter() - t_pass)
        pass_max.append(max(dt for _, dt, _, _ in results))
        for op, dt, out, error in results:
            op_times[op.name].append(dt)
            attempted += 1
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                unexpected.append(f"{op.name}: {error}")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    return {
        "pass_walls": walls,
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        # The median of the per-op medians: a median over all samples would
        # sit on the gap between two kinds of op and jump between them.
        "op_p50_s": statistics.median(statistics.median(ts) for ts in op_times.values()),
        "op_max_s": statistics.median(pass_max),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(values: dict, section: str) -> dict:
    units = metric_units(section)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "simo_energy" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'simo_energy'}; run from a full checkout", file=sys.stderr)
        return 2
    env = prepare_environment()

    if args.setup_probe:
        _, seconds = build_inputs(args.workload, args.seed, BENCH_DIR, env)
        print(repr(seconds))
        return 0

    header = machine_header()
    print("# machine " + json.dumps(header))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        if args.trace:
            result = traced_run(args, workdir, env)
        else:
            ops, own_setup = build_inputs(args.workload, args.seed, workdir, env)
            setups = [own_setup]
            setups += [setup_probe(args.workload, args.seed, workdir) for _ in range(SETUP_SAMPLES - 1)]
            result = timed_run(args, ops, setups)
    print("# machine_end " + json.dumps({"loadavg_end": os.getloadavg()}))
    print(json.dumps(result))
    return 0


def timed_run(args, ops: list, setups: list) -> dict:
    loop = run_passes(ops, args.seconds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": loop["wall_s"],
        "op_p50_s": loop["op_p50_s"],
        "op_max_s": loop["op_max_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    for message in loop["unexpected"]:
        print(f"# FAILED {message}")
    print(f"# workload {args.workload}  seed {args.seed}  passes {loop['passes']}  "
          f"ops {loop['attempted']}  failed {loop['failed']}")
    print("# pass walls (s): " + " ".join(f"{w:.3f}" for w in loop["pass_walls"]))
    units = metric_units("end_to_end")
    for name, value in values.items():
        print(f"# {name:<12} {value:12.6g} {units[name]}")
    print(f"# {'fail_ratio':<12} {loop['failed'] / loop['attempted']:12.6g} ratio")
    return {
        "correct": not loop["unexpected"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": report(values, "end_to_end"),
    }


def traced_run(args, workdir: Path, env: dict) -> dict:
    import layers
    from tracing import Tracer

    tracer = Tracer()
    measured = layers.run(args.seed, workdir, env, tracer, nproc())
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    for note in measured.notes:
        print(f"# {note}")
    for problem in measured.problems:
        print(f"# FAILED {problem}")
    units = metric_units("per_layer")
    for name, value in measured.metrics.items():
        print(f"# {name:<56} {value:14.6g} {units.get(name, '?')}")
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return {
        "correct": not measured.problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": report(measured.metrics, "per_layer"),
    }


if __name__ == "__main__":
    sys.exit(main())
