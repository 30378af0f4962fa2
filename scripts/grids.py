"""Identity grids: what the library designs and draws, one JSON file per grid.

Usage:
  PYTHONPATH=src python3 scripts/grids.py designs OUT.json
  PYTHONPATH=src python3 scripts/grids.py streams OUT.json
  PYTHONPATH=src python3 scripts/grids.py compare A.json B.json [--declared PATTERN ...]

`designs` runs exact and moments designs over 5 laws x L 2/4/8/16/64 x
-20/0/10/30/50 dB x power budgets 1e-6/1e-3/1/1e3, the same at noise and budget
scaled together by 1e-100 and 1e100 (L 2/4, 10 dB), and 48 robust boxes.  Each
key holds the verdict, t*, mean power, levels, boundaries, boundary exponents
(all as float hex), `iterations` and any warning (a `warnings.warn` message
or a WARNING record of the `simo_energy` logger), or the refusal.  Under
`crossings.*` it also holds the zero-mean ML crossings (`NoncoherentML`
thresholds) of min-distance and ASK levels, and of a few edge levels, at
assumed noise powers from 5e-324 to 1e300.

`streams` holds the SHA-256 of result rows, or the refusal.  Library rows: `simulate`
(20 000 symbols, seed 7) and `min_antennas` (target 1e-2, n_max 256) at shards
1 and 3, and `histogram` (20 000 trials, 50 bins; its `outside_fraction`
included), on min-distance L = 4 levels.  They cover Rayleigh, Rician 0 dB
and Nakagami m = nakagami_m_from_K(0), 0.6, 1, 2 and 5, at n 1/4/16/100 and
0/10 dB, with energy regions, noncoherent ML and ASK-ML at an assumed mu = 0
and at mu != 0 (Rician 0 dB assumed), and pilot PAM (T 2, T_l 1).
Noiseless histograms run at n 4 and 16.  CLI rows: `cli.main` in process,
as (exit code, result hash, stderr, warnings) or the exception it raised, and
under `.header` the hash of its config echo: the `#` lines of a CSV output,
the `config` and `config_sha256` of a JSON record.  The result is the rest of
stdout, so a change of the config's layout moves only `.header` keys.  These
are `sweep-n` over n [1, 4, 16, 100] per channel, SNR and scheme, plus the
commands of `CLI_CASES`.

Both grids run on whichever `simo_energy` is importable, so two checkouts
are compared by running each with PYTHONPATH at its own `src`.  `compare`
lists every key whose value differs or that only one file has, and exits 1
when a moved key matches none of the --declared fnmatch patterns.  The
`meta` entry (run time, versions) is not compared.
"""

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import logging
import math
import os
import platform
import sys
import tempfile
import time
import warnings

import numpy as np

from simo_energy import cli
from simo_energy.channel import (
    NakagamiReal,
    Rician,
    alpha1,
    nakagami_m_from_K,
    rayleigh,
    sigma_from_snr,
)
from simo_energy.decode import EnergyMLAsk, EnergyRegions, NoncoherentML, PilotPAM
from simo_energy.design import (
    DesignConfig,
    UncertaintyBox,
    ask_constellation,
    design_exact,
    design_moments,
    design_robust,
    min_distance_constellation,
    pam_constellation,
)
from simo_energy.montecarlo import SimScenario, histogram, min_antennas, simulate

DESIGN_LAWS = {
    "rayleigh": rayleigh(),
    "rician0dB": Rician(0.0),
    "rician10dB": Rician(10.0),
    "nakagami0.6": NakagamiReal(0.6),
    "nakagami2": NakagamiReal(2.0),
}
DESIGN_LS = (2, 4, 8, 16, 64)
DESIGN_SNRS = (-20, 0, 10, 30, 50)
DESIGN_BUDGETS = (1e-6, 1e-3, 1.0, 1e3)
NOISE_SCALES = (1e-100, 1e100)
ROBUST_BOXES = (  # (alpha1 range, noise half-width in dB)
    ((0.8, 1.0), 0.5),
    ((1.0, 1.0), 1.0),
    ((0.5, 1.5), 3.0),
)
CROSSING_NOISE = (5e-324, 1e-320, 1e-310, 1e-300, 1e-100, 1e-3, 0.1, 1.0, 1e3, 1e100, 1e300)
EDGE_LEVELS = {
    "wide": (0.0, 1e10),
    "unit": (0.0, 1.0),
    "huge": (0.0, 1.7e308),
    "tied": (0.0, 1e-300),
    "subnormal": (0.0, 1e-320),
}

STREAM_CHANNELS = {
    "rayleigh": rayleigh(),
    "rician0dB": Rician(0.0),
    "nakagamiK0dB": NakagamiReal(nakagami_m_from_K(0.0)),
    "nakagami0.6": NakagamiReal(0.6),
    "nakagami1": NakagamiReal(1.0),
    "nakagami2": NakagamiReal(2.0),
    "nakagami5": NakagamiReal(5.0),
}
STREAM_NS = (1, 4, 16, 100)
STREAM_SNRS = (0, 10)
STREAM_SYMBOLS, STREAM_SEED = 20_000, 7
SEARCH_TARGET, SEARCH_N_MAX = 1e-2, 256
TRIALS, BINS = 20_000, 50
CLI_SCHEMES = ("energy", "noncoherent_ml", "ask_energy_ml", "pilot_pam")
CLI_CASES = {
    "design.exact": ["design"],
    "design.moments.nakagami2": ["design", "--design.method", "moments", "--channel.kind",
                                "nakagami", "--channel.m", "2"],
    "design.robust": ["design", "--design.method", "robust", "--design.L", "16",
                      "--design.a_dB", "1"],
    "design.robust.infeasible": ["design", "--channel.gamma_dB", "0", "--design.method",
                                 "robust", "--design.L", "2", "--design.a_K_dB", "0",
                                 "--design.a_gamma_dB", "10"],
    "design.L64.50dB": ["design", "--design.L", "64", "--channel.gamma_dB", "50"],
    "design.nakagami_m1e12.-100dB": ["design", "--channel.kind", "nakagami", "--channel.m",
                                     "1e12", "--channel.gamma_dB", "-100"],
    "evaluate": ["evaluate", "--artifact", "mindist.json", "--sim.n", "[16, 100]"],
    "evaluate.nakagami1e-300": ["evaluate", "--artifact", "mindist.json", "--channel.kind",
                                "nakagami", "--channel.m", "1e-300"],
    "histogram": ["histogram", "--design.method", "mindist", "--sim.trials", "2000"],
    "histogram.nakagami0.5": ["histogram", "--design.method", "mindist", "--channel.kind",
                              "nakagami", "--channel.m", "0.5", "--sim.trials", "2000"],
    "min-antennas": ["min-antennas", "--design.L", "4", "--sim.symbols", "100000"],
    "min-antennas.pilot_pam": ["min-antennas", "--sim.scheme", "pilot_pam", "--sim.T", "2",
                               "--sim.T_l", "0", "--design.L", "2", "--sim.n_max", "64",
                               "--sim.symbols", "5000"],
    "simulate.pilot_pam.T4": ["simulate", "--design.method", "mindist", "--sim.scheme",
                              "pilot_pam", "--sim.T", "4", "--sim.T_l", "1",
                              "--sim.symbols", "20000"],
    # Pilot PAM reads design.L alone, not the design of design.method.
    **{
        f"simulate.pilot_pam.-140dB.{method}": [
            "simulate", "--sim.scheme", "pilot_pam", "--sim.T", "2", "--sim.T_l", "1",
            "--design.L", "4", "--design.method", method, "--channel.gamma_dB", "-140",
            "--sim.symbols", "2000",
        ]
        for method in ("exact", "robust")
    },
    "refuse.pilot_pam.L3": ["simulate", "--design.method", "mindist", "--design.L", "3",
                            "--sim.scheme", "pilot_pam", "--sim.T", "4", "--sim.T_l", "1"],
    "refuse.unknown_command": ["no-such-command"],
    "refuse.K_nan": ["design", "--channel.kind", "rician", "--channel.K_dB", "nan"],
    "refuse.gamma4000": ["design", "--channel.gamma_dB", "4000"],
    "refuse.gamma_true": ["design", "--channel.gamma_dB", "true"],
    "refuse.bins": ["histogram", "--design.method", "mindist", "--sim.bins", "1e20"],
    "refuse.L": ["design", "--design.method", "mindist", "--design.L", "1e20"],
    "refuse.L1": ["design", "--design.L", "1"],
    "refuse.budget": ["design", "--design.budget", "-1"],
    "refuse.eps": ["design", "--design.eps", "0"],
    "refuse.symbols": ["simulate", "--design.method", "mindist", "--sim.symbols", "1e20"],
    "refuse.T": ["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
                 "--design.L", "2", "--sim.T", "5000", "--sim.symbols", "2000"],
    "refuse.T_l": ["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
                   "--design.L", "2", "--sim.T", "2", "--sim.T_l", "2"],
    "refuse.pilot_power": ["simulate", "--design.method", "mindist", "--sim.scheme",
                           "pilot_pam", "--design.L", "2", "--sim.pilot_power", "-1"],
    "refuse.n": ["simulate", "--design.method", "mindist", "--sim.n", "1e308"],
    "refuse.seed": ["simulate", "--design.method", "mindist", "--sim.seed", "-1"],
    "refuse.shards": ["simulate", "--design.method", "mindist", "--sim.shards", "0"],
    "refuse.ask_symbols": ["simulate", "--design.method", "ask", "--sim.symbols", "2000"],
    "refuse.target_ber": ["min-antennas", "--design.method", "mindist", "--sim.target_ber",
                          "0.7"],
    "refuse.n_max": ["min-antennas", "--design.method", "mindist", "--sim.n_max", "1e9"],
    "refuse.trials": ["histogram", "--design.method", "mindist", "--sim.trials", "0"],
    "refuse.trials1": ["histogram", "--design.method", "mindist", "--sim.trials", "1"],
    "refuse.m_robust": ["design", "--design.method", "robust", "--channel.kind", "nakagami",
                        "--channel.m", "5e-324", "--design.a_dB", "1"],
    "refuse.m_moments": ["design", "--design.method", "moments", "--channel.kind", "nakagami",
                         "--channel.m", "1e-300"],
    "refuse.m_simulate": ["simulate", "--design.method", "mindist", "--channel.kind",
                          "nakagami", "--channel.m", "1e308", "--sim.symbols", "2000"],
    "refuse.tied": ["simulate", "--artifact", "tied.json", "--sim.scheme", "noncoherent_ml",
                    "--sim.symbols", "2000"],
    "refuse.tied.min-antennas": ["min-antennas", "--artifact", "tied.json", "--sim.scheme",
                                 "ask_energy_ml", "--sim.symbols", "2000"],
    "refuse.huge": ["simulate", "--artifact", "huge.json", "--sim.scheme", "noncoherent_ml",
                    "--channel.gamma_dB", "-3080", "--sim.symbols", "2000"],
    # The refusals of the one resolver of a run's constellation.
    "refuse.evaluate.no_artifact": ["evaluate", "--design.method", "mindist"],
    "refuse.artifact.missing": ["simulate", "--design.method", "mindist", "--artifact",
                                "missing.json"],
    "refuse.artifact.array": ["simulate", "--design.method", "mindist", "--artifact",
                              "array.json"],
    "refuse.artifact.infeasible": ["histogram", "--artifact", "infeasible.json"],
    **{
        f"crossing.{name}.{scheme}.{gamma}dB": [
            "simulate", "--artifact", f"{name}.json", "--sim.scheme", scheme,
            "--channel.gamma_dB", str(gamma), "--sim.symbols", "20000",
        ]
        for name in ("wide", "unit")
        for scheme in ("noncoherent_ml", "ask_energy_ml")
        for gamma in (3000, 3200)
    },
}


def hexes(values):
    return [float(v).hex() for v in values]


def refusal(exc: BaseException) -> str:
    return f"raise {type(exc).__name__}({getattr(exc, 'field', '')}): {exc}"


def guarded(run):
    """`run()`, or its refusal: a refusal is a value of the grid."""
    try:
        return run()
    except Exception as exc:
        return refusal(exc)


@contextlib.contextmanager
def logged_warnings():
    """The messages of the WARNING records that the `simo_energy` logger gets
    inside the block, as a list filled in as they arrive."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger("simo_energy")
    log.addHandler(handler)
    try:
        yield messages
    finally:
        log.removeHandler(handler)


def design_record(run) -> dict:
    """The outcome of `run()` with every float as hex, or its refusal."""
    with warnings.catch_warnings(record=True) as caught, logged_warnings() as logged:
        warnings.simplefilter("always")
        try:
            out = run()
        except Exception as exc:
            return {"refusal": refusal(exc)}
    record = {
        "feasible": out.feasible,
        "iterations": out.iterations,
        "warnings": sorted([*(str(w.message) for w in caught), *logged]),
    }
    if out.feasible:
        con = out.constellation
        record.update(
            t_star=float(out.t_star).hex(),
            mean_power=float(out.mean_power).hex(),
            levels=hexes(con.levels),
            boundaries=hexes(con.boundaries),
            boundary_exponents=[hexes(pair) for pair in out.boundary_exponents],
        )
    return record


def exact_and_moments(key, channel, sigma2, cfg):
    yield f"exact.{key}", lambda: design_exact(channel, sigma2, cfg)
    yield f"moments.{key}", lambda: design_moments(alpha1(channel), sigma2, cfg)


def design_cases():
    """(key, thunk) of every design of the grid."""
    for law, channel in DESIGN_LAWS.items():
        for L in DESIGN_LS:
            for snr in DESIGN_SNRS:
                for budget in DESIGN_BUDGETS:
                    yield from exact_and_moments(f"{law}.L{L}.{snr}dB.b{budget:g}", channel,
                                                 sigma_from_snr(snr),
                                                 DesignConfig(L=L, power_budget=budget))
        for L in (2, 4):
            for scale in NOISE_SCALES:
                yield from exact_and_moments(f"{law}.L{L}.10dB.scale{scale:g}", channel,
                                             scale * sigma_from_snr(10.0),
                                             DesignConfig(L=L, power_budget=scale))
    for L in (2, 4, 8, 16):
        for snr in (-20, 0, 10, 30):
            for (a_lo, a_hi), half_db in ROBUST_BOXES:
                sigmas = [math.sqrt(sigma_from_snr(snr + d)) for d in (half_db, -half_db)]
                box = UncertaintyBox(a_lo, a_hi, *sigmas)
                key = f"robust.L{L}.{snr}dB.a{a_lo:g}-{a_hi:g}.pm{half_db:g}dB"
                yield key, lambda b=box, g=DesignConfig(L=L): design_robust(b, g)


def crossing_cases():
    """(key, levels, sigma2) of the zero-mean ML crossing grid."""
    for L in (2, 4, 16, 64):
        named = {
            f"mindist.L{L}": min_distance_constellation(L, 0.1).levels,
            f"ask.L{L}": ask_constellation(L).levels,
        }
        for name, levels in named.items():
            for sigma2 in CROSSING_NOISE:
                yield f"{name}.s2={sigma2:g}", levels, sigma2
    for name, levels in EDGE_LEVELS.items():
        for sigma2 in CROSSING_NOISE + (1e308,):
            yield f"{name}.s2={sigma2:g}", levels, sigma2


def designs() -> dict:
    rows = {key: design_record(run) for key, run in design_cases()}
    for key, levels, sigma2 in crossing_cases():
        for sigma_h2 in (1.0, 0.5):
            rows[f"crossings.{key}.h2={sigma_h2:g}"] = guarded(
                lambda: hexes(NoncoherentML(levels, 0.0, sigma_h2, sigma2).thresholds)
            )
    return rows


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def row(result) -> tuple:
    """Every field of a SimReport or StatHistogram."""
    return tuple(vars(result).values())


def receivers(channel, con, sigma2, n):
    """(name, decoder) of every receiver of the stream grid at n antennas."""
    assumed = Rician(0.0)
    for name, (mu, sigma_h2) in (("mu0", (0.0, 1.0)), ("mu", (assumed.mu, assumed.sigma_h2))):
        yield f"noncoherent_ml.{name}", NoncoherentML(con.levels, mu, sigma_h2, sigma2)
        yield f"ask_energy_ml.{name}", EnergyMLAsk(con.levels, mu, sigma_h2, sigma2, n)
    yield "energy", EnergyRegions(con)
    amps = pam_constellation(4).amplitudes
    yield "pilot_pam", PilotPAM(amps, channel.mu, channel.sigma_h2, sigma2, 2, 1)


def library_streams(rows: dict) -> None:
    for law, channel in STREAM_CHANNELS.items():
        for snr in STREAM_SNRS:
            sigma2 = sigma_from_snr(snr)
            con = min_distance_constellation(4, sigma2)
            for n in STREAM_NS:
                for name, decoder in receivers(channel, con, sigma2, n):
                    for shards in (1, 3):
                        scen = SimScenario(channel, sigma2, decoder, n, STREAM_SYMBOLS,
                                           STREAM_SEED, shards)
                        key = f"simulate.{law}.{snr}dB.n{n}.{name}.shards{shards}"
                        rows[key] = guarded(lambda: digest(row(simulate(scen))))
                        if n == 1:
                            key = f"min_antennas.{law}.{snr}dB.{name}.shards{shards}"
                            rows[key] = guarded(lambda: digest(
                                min_antennas(scen, SEARCH_TARGET, SEARCH_N_MAX)
                            ))
                key = f"histogram.{law}.{snr}dB.n{n}"
                rows[key] = guarded(lambda: digest(row(
                    histogram(con, channel, sigma2, n, TRIALS, BINS, seed=STREAM_SEED))))
        for n in (4, 16):
            con = min_distance_constellation(4, 0.1)
            rows[f"histogram.{law}.noiseless.n{n}"] = guarded(lambda: digest(row(
                histogram(con, channel, 0.0, n, TRIALS, BINS, seed=STREAM_SEED))))


def split_echo(text: str):
    """(config echo, result) of a CLI output: a CSV's `#` lines apart from its
    other lines, or a JSON record's config and config_sha256 apart from the rest."""
    try:
        record = json.loads(text)
    except ValueError:
        lines = text.splitlines(keepends=True)
        return ([line for line in lines if line.startswith("#")],
                [line for line in lines if not line.startswith("#")])
    return {key: record.pop(key, None) for key in ("config", "config_sha256")}, record


def run_cli(rows: dict, key: str, args) -> None:
    """`cli.main(args)` in process, as rows[key]: exit code, result hash, stderr
    and the messages of any warnings, or what it raised; rows[key + ".header"]
    is the hash of its config echo."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except Exception as exc:
            rows[key] = {"raised": refusal(exc)}
            return
    echo, result = split_echo(out.getvalue())
    rows[key] = {
        "code": code,
        "stdout_sha256": digest(result),
        "stderr": err.getvalue(),
        "warnings": sorted({str(w.message) for w in caught}),
    }
    rows[f"{key}.header"] = digest(echo)


def channel_args(law: str) -> list:
    if law == "rayleigh":
        return []
    if law.startswith("rician"):
        return ["--channel.kind", "rician", "--channel.K_dB", "0"]
    return ["--channel.kind", "nakagami", "--channel.m", repr(STREAM_CHANNELS[law].m)]


def cli_streams(rows: dict) -> None:
    """The CLI rows, run in a scratch directory so that the artifact paths
    that the config echo prints are the same on every run."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, levels in EDGE_LEVELS.items():
                with open(f"{name}.json", "w") as fh:
                    json.dump({"levels": levels, "sigma2_design": 0.1, "boundaries": None}, fh)
            with open("array.json", "w") as fh:
                json.dump([0.0, 1.0], fh)
            cli.main(["design", "--design.method", "mindist", "--out", "mindist.json"])
            cli.main([*CLI_CASES["design.robust.infeasible"], "--out", "infeasible.json"])
            for law in STREAM_CHANNELS:
                for snr in STREAM_SNRS:
                    for scheme in CLI_SCHEMES:
                        args = ["sweep-n", "--design.method", "mindist", *channel_args(law),
                                "--channel.gamma_dB", str(snr), "--sim.scheme", scheme,
                                "--sim.n", "[1, 4, 16, 100]", "--sim.symbols",
                                str(STREAM_SYMBOLS), "--seed", str(STREAM_SEED)]
                        if scheme == "pilot_pam":
                            args += ["--sim.T", "2", "--sim.T_l", "1"]
                        run_cli(rows, f"cli.sweep-n.{law}.{snr}dB.{scheme}", args)
            for key, args in CLI_CASES.items():
                run_cli(rows, f"cli.{key}", args)
        finally:
            os.chdir(home)


def streams() -> dict:
    rows = {}
    library_streams(rows)
    cli_streams(rows)
    return rows


def write(grid: str, path: str) -> None:
    start = time.perf_counter()
    rows = designs() if grid == "designs" else streams()
    seconds = time.perf_counter() - start
    meta = {
        "grid": grid,
        "keys": len(rows),
        "run_s": round(seconds, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows}, fh, indent=1, sort_keys=True)
    print(json.dumps(meta))


def compare(a: str, b: str, declared) -> int:
    with open(a) as fa, open(b) as fb:
        rows_a, rows_b = json.load(fa)["rows"], json.load(fb)["rows"]
    moved = sorted(k for k in rows_a.keys() | rows_b.keys() if rows_a.get(k) != rows_b.get(k))
    undeclared = [k for k in moved if not any(fnmatch.fnmatchcase(k, p) for p in declared)]
    for key in moved:
        mark = "UNDECLARED" if key in undeclared else "declared"
        print(f"{mark} {key}\n  A: {rows_a.get(key)}\n  B: {rows_b.get(key)}")
    print(f"{len(rows_a)} / {len(rows_b)} keys, {len(moved)} moved, "
          f"{len(undeclared)} undeclared")
    return 1 if undeclared else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for grid in ("designs", "streams"):
        sub.add_parser(grid).add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    cmp.add_argument("--declared", nargs="*", default=[])
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b, args.declared)
    write(args.command, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
