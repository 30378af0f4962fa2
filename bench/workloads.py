"""The benchmark workloads: their operations, inputs and output checks.

Every operation is a call into the public API of simo_energy (or one CLI
subprocess).  Its check returns None when the output is correct and a
message otherwise.  The checks do not depend on the random stream: they use
closed forms, invariants of the design construction, recorded design
exponents and wide ranges around recorded antenna counts, so a change that
deliberately alters the sampler's stream still passes them.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from scipy.special import gammainc

from simo_energy import (
    DesignConfig,
    EnergyMLAsk,
    EnergyRegions,
    NakagamiReal,
    NoncoherentML,
    PilotPAM,
    Rician,
    SimScenario,
    UncertaintyBox,
    alpha1,
    chernoff_ser_bound,
    design_exact,
    histogram,
    min_antennas,
    min_distance_constellation,
    ml_threshold_boundaries,
    nakagami_m_from_K,
    pam_constellation,
    rayleigh,
    sigma_from_snr,
    simulate,
)

SNR_DB = 10.0
SIGMA2 = sigma_from_snr(SNR_DB)
# Nakagami shape whose mean amplitude matches a Rician K = 0 dB channel.
NAKAGAMI_M = nakagami_m_from_K(0.0)
# Antenna draws per simulate cell: every (scheme, n) cell weighs the same.
DRAWS_PER_CELL = 1 << 21
MIN_ANTENNAS_SYMBOLS = 100_000
TARGET_BER = 1e-3
N_MAX = 2048
HIST_TRIALS = 10_000
HIST_BINS = 60

# t* of each design op at 10 dB, recorded when the benchmark was defined.
# The design bisection stops at an absolute width of 1e-9 and a power
# residual of 1e-6, so a correct solver reproduces these to well within
# T_STAR_RTOL.
T_STAR_REF = {
    "exact.rayleigh.L4": 0.15845787695312497,
    "exact.rayleigh.L8": 0.03254994335937501,
    "exact.rayleigh.L16": 0.0074397207031249996,
    "exact.rician.L4": 0.18348266210937497,
    "exact.rician.L8": 0.03776836425781249,
    "exact.rician.L16": 0.008627879882812502,
    "exact.nakagami.L4": 0.07383960644531248,
    "moments.L64": 0.000435911376953125,
    "robust.L16": 0.0024977529296875004,
}
T_STAR_RTOL = 1e-5
EQUALIZE_RTOL = 1e-8
BUDGET_TOL = 1e-6
# Antenna counts returned by min_antennas when the benchmark was defined.
# They depend on the random stream, so the check only asks for the same
# order of magnitude.
N_STAR_REF = {"energy": 30, "pilot_pam": 4}
# The simulated energy-scheme SER at n = 16 must lie within this many
# binomial standard errors of the closed form.
SER_Z = 5.0
INFEASIBLE = "design reported infeasible"


@dataclass
class Op:
    """One timed operation: `run` does the work, `check` validates its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def family_channel(family: str):
    if family == "rayleigh":
        return rayleigh()
    if family == "rician":
        return Rician(0.0)
    if family == "nakagami":
        return NakagamiReal(NAKAGAMI_M)
    raise ValueError(family)


def box_around(channel, sigma2: float, alpha_frac: float, sigma_frac: float):
    """Uncertainty box of +/- alpha_frac on alpha1 and +/- sigma_frac on sigma."""
    a1 = alpha1(channel)
    s = math.sqrt(sigma2)
    return UncertaintyBox(
        a1 * (1 - alpha_frac), a1 * (1 + alpha_frac), s * (1 - sigma_frac), s * (1 + sigma_frac)
    )


# ---------------------------------------------------------------- checks


def check_design(out, ref_key: Optional[str]) -> Optional[str]:
    """Design invariants; every design in the benchmark is feasible."""
    if not out.feasible:
        return INFEASIBLE
    levels = out.constellation.levels
    if any(b <= a for a, b in zip(levels, levels[1:])):
        return f"levels not strictly increasing: {levels}"
    t = out.t_star
    for k, (right, left) in enumerate(out.boundary_exponents):
        for side, value in (("right", right), ("left", left)):
            if not abs(value - t) <= EQUALIZE_RTOL * t:
                return f"boundary {k} {side} exponent {value!r} differs from t*={t!r}"
    if not abs(out.mean_power - 1.0) <= BUDGET_TOL:
        return f"mean power {out.mean_power!r} misses the unit budget by more than {BUDGET_TOL}"
    if ref_key is not None:
        ref = T_STAR_REF[ref_key]
        if not abs(t - ref) <= T_STAR_RTOL * ref:
            return f"t*={t!r} differs from the reference {ref!r}"
    return None


def check_counts(report) -> Optional[str]:
    if sum(report.tx_counts) != report.symbols:
        return f"tx counts {report.tx_counts} do not add up to {report.symbols} symbols"
    if sum(report.err_counts) != report.symbol_errors:
        return f"error counts {report.err_counts} do not add up to {report.symbol_errors}"
    if any(e > t for e, t in zip(report.err_counts, report.tx_counts)):
        return "more errors than transmissions for some symbol"
    if not (0 <= report.bit_errors <= report.bits):
        return "bit errors outside [0, bits]"
    return None


def check_below_bound(report, bound: float) -> Optional[str]:
    lo = report.ser_ci[0]
    if not lo <= bound:
        return f"Wilson lower SER bound {lo!r} exceeds the Chernoff bound {bound!r}"
    return None


def exact_region_ser(levels, boundaries, sigma2: float, n: int) -> float:
    """SER of interval decoding on Rayleigh fading.

    The mean statistic of level p is exactly Gamma(n, (p + sigma2)/n), so each
    region probability is a difference of regularized incomplete gammas.
    """
    edges = (0.0,) + tuple(boundaries) + (math.inf,)
    ser = 0.0
    for k, p in enumerate(levels):
        scale = (p + sigma2) / n
        hi = 1.0 if math.isinf(edges[k + 1]) else float(gammainc(n, edges[k + 1] / scale))
        lo = float(gammainc(n, edges[k] / scale))
        ser += 1.0 - (hi - lo)
    return ser / len(levels)


def check_exact_ser(report, exact: float) -> Optional[str]:
    se = math.sqrt(exact * (1.0 - exact) / report.symbols)
    if not abs(report.ser - exact) <= SER_Z * se:
        return f"SER {report.ser!r} is {abs(report.ser - exact) / se:.1f} standard errors from the exact {exact!r}"
    return None


def all_of(*checks):
    def combined(out):
        for check in checks:
            msg = check(out)
            if msg is not None:
                return msg
        return None

    return combined


def check_n_star(scheme: str, n_max: int):
    ref = N_STAR_REF[scheme]

    def check(n_star):
        if n_star is None or not (1 <= n_star <= n_max):
            return f"min_antennas returned {n_star!r}, expected an antenna count"
        if not (ref / 2 <= n_star <= 2 * ref):
            return f"n* = {n_star} is not within a factor 2 of the recorded {ref}"
        return None

    return check


def check_histogram(result, constellation, sigma2: float, trials: int, bins: int) -> Optional[str]:
    if len(result.bin_edges) != bins + 1:
        return "wrong number of bin edges"
    for k, p in enumerate(constellation.levels):
        if not sum(result.counts[k]) <= trials:
            return f"symbol {k} histogram holds more than {trials} trials"
        r = p + sigma2
        se = math.sqrt(result.variances[k] / trials)
        if not abs(result.means[k] - r) <= 6.0 * se:
            return f"symbol {k} mean statistic {result.means[k]!r} is far from r = {r!r}"
        if not 0.0 <= result.outside_fraction[k] <= 1.0:
            return "outside fraction not in [0, 1]"
    return None


# ------------------------------------------------------------- workloads


def rayleigh_l4_design():
    return design_exact(rayleigh(), SIGMA2, DesignConfig(L=4))


@dataclass
class SimCell:
    """One simulate cell: a scenario plus the checks that apply to it."""

    name: str
    scenario: SimScenario
    check: Callable[[Any], Optional[str]]


def sim_rician_cells(seed: int, design, shards: int) -> list:
    channel = rayleigh()
    c = design.constellation
    ml_regions = ml_threshold_boundaries(c.levels, channel.sigma_h2, SIGMA2)
    cells = []
    for n in (16, 100, 400):
        bound = chernoff_ser_bound(c, channel, SIGMA2, n)
        decoders = {
            "energy": (EnergyRegions(c), c.boundaries),
            "noncoherent_ml": (
                NoncoherentML(c.levels, channel.mu, channel.sigma_h2, SIGMA2),
                ml_regions.boundaries,
            ),
            "ask_energy_ml": (
                EnergyMLAsk(c.levels, channel.mu, channel.sigma_h2, SIGMA2, n),
                ml_regions.boundaries,
            ),
        }
        for scheme, (decoder, regions) in decoders.items():
            scenario = SimScenario(
                channel, SIGMA2, decoder, n, DRAWS_PER_CELL // n, seed, shards=shards
            )
            checks = [check_counts, lambda r, b=bound: check_below_bound(r, b)]
            if n == 16:
                # On Rayleigh fading all three receivers decide by intervals
                # of the energy statistic: the design's regions for the
                # energy scheme, and the likelihood crossings for both ML
                # receivers, so each has a closed-form SER.
                exact = exact_region_ser(c.levels, regions, SIGMA2, n)
                checks.append(lambda r, e=exact: check_exact_ser(r, e))
            cells.append(SimCell(f"{scheme}.n{n}", scenario, all_of(*checks)))
    return cells


def sim_generic_cells(seed: int) -> tuple:
    """Nakagami energy-region cells and pilot-PAM cells, plus the histogram inputs."""
    nakagami = family_channel("nakagami")
    mindist = min_distance_constellation(4, SIGMA2)
    pilot = pilot_decoder()
    cells = []
    for n in (16, 100):
        bound = chernoff_ser_bound(mindist, nakagami, SIGMA2, n)
        scenario = SimScenario(nakagami, SIGMA2, EnergyRegions(mindist), n, DRAWS_PER_CELL // n, seed)
        cells.append(
            SimCell(
                f"nakagami_energy.n{n}",
                scenario,
                all_of(check_counts, lambda r, b=bound: check_below_bound(r, b)),
            )
        )
        scenario = SimScenario(rayleigh(), SIGMA2, pilot, n, DRAWS_PER_CELL // n, seed)
        cells.append(SimCell(f"pilot_pam.n{n}", scenario, check_counts))
    return cells, mindist, nakagami


def sim_seed(seed: int) -> int:
    return seed % (1 << 64)


def energy_template(seed: int, constellation, shards: int) -> SimScenario:
    """min_antennas template for the energy scheme on Rayleigh fading."""
    return SimScenario(
        rayleigh(), SIGMA2, EnergyRegions(constellation), 1, MIN_ANTENNAS_SYMBOLS,
        sim_seed(seed), shards=shards,
    )


def pilot_decoder() -> PilotPAM:
    """Pilot PAM with T = 2, T_l = 1 and L = 2 under an assumed Rayleigh channel."""
    ray = rayleigh()
    pam = pam_constellation(2)
    return PilotPAM(pam.amplitudes, ray.mu, ray.sigma_h2, SIGMA2, coherence_slots=2, pilot_slots=1)


def pilot_template(seed: int) -> SimScenario:
    return SimScenario(rayleigh(), SIGMA2, pilot_decoder(), 1, MIN_ANTENNAS_SYMBOLS, sim_seed(seed))


def sim_rician_ops(seed: int, shards: int) -> list:
    design = rayleigh_l4_design()
    ops = [_simulate_op(cell) for cell in sim_rician_cells(sim_seed(seed), design, shards)]
    template = energy_template(seed, design.constellation, shards)
    ops.append(
        Op(
            "min_antennas.energy",
            lambda: min_antennas(template, TARGET_BER, N_MAX),
            check_n_star("energy", N_MAX),
        )
    )
    return ops


def sim_generic_ops(seed: int) -> list:
    cells, mindist, nakagami = sim_generic_cells(sim_seed(seed))
    ops = [_simulate_op(cell) for cell in cells]
    template = pilot_template(seed)
    ops.append(
        Op(
            "min_antennas.pilot_pam",
            lambda: min_antennas(template, TARGET_BER, N_MAX),
            check_n_star("pilot_pam", N_MAX),
        )
    )
    hist_seed = sim_seed(seed)
    ops.append(
        Op(
            "histogram.nakagami.n100",
            lambda: histogram(mindist, nakagami, SIGMA2, 100, HIST_TRIALS, HIST_BINS, seed=hist_seed),
            lambda res: check_histogram(res, mindist, SIGMA2, HIST_TRIALS, HIST_BINS),
        )
    )
    return ops


def _simulate_op(cell: SimCell) -> Op:
    return Op(f"simulate.{cell.name}", lambda: simulate(cell.scenario), cell.check)


# ------------------------------------------------------------------- CLI

SWEEP_COLUMNS = "n,ser,ber,ser_lo,ser_hi,ber_lo,ber_hi,symbols,seed"
RICIAN_ARGS = ["--channel.kind", "rician", "--channel.K_dB", "0", "--channel.gamma_dB", "10"]


def cli_commands(seed: int) -> list:
    """The README commands, design -> evaluate -> simulate -> sweep-n -> min-antennas -> histogram.

    Each entry is (command, argv after the module name, output file, check).
    Paths are relative to the working directory the commands run in.
    """
    s = str(sim_seed(seed))
    return [
        ("design", ["design", *RICIAN_ARGS, "--design.method", "exact", "--design.L", "8",
                    "--out", "design.json"], "design.json", _check_cli_design),
        ("evaluate", ["evaluate", "--artifact", "design.json", *RICIAN_ARGS,
                      "--sim.n", "[50, 100, 200]", "--out", "eval.csv"], "eval.csv",
         _csv_check("n,chernoff_bound,error_exponent," + ",".join(
             f"exp_right_{k},exp_left_{k + 1}" for k in range(1, 8)), 3)),
        ("simulate", ["simulate", "--artifact", "design.json", *RICIAN_ARGS, "--sim.n", "[100]",
                      "--sim.symbols", "100000", "--seed", s, "--out", "sim.csv"], "sim.csv",
         _csv_check(SWEEP_COLUMNS, 1)),
        ("sweep-n", ["sweep-n", "--channel.gamma_dB", "10", "--design.L", "8", "--sim.n",
                     "[50, 100, 200]", "--sim.symbols", "100000", "--seed", s,
                     "--out", "sweep.csv"], "sweep.csv", _csv_check(SWEEP_COLUMNS, 3)),
        ("min-antennas", ["min-antennas", "--channel.kind", "rayleigh", "--channel.gamma_dB", "10",
                          "--sim.scheme", "pilot_pam", "--sim.T", "2", "--sim.T_l", "0",
                          "--design.L", "2", "--seed", s, "--out", "minant.csv"], "minant.csv",
         _csv_check("scheme,effective_rate,n_star", 1)),
        ("histogram", ["histogram", "--design.method", "mindist", "--design.L", "4",
                       "--channel.gamma_dB", "10", "--sim.n", "[100]", "--seed", s,
                       "--out", "hist.csv"], "hist.csv",
         _csv_check("kind,symbol,left,right,count", 4 * HIST_BINS + 3 + 4)),
    ]


def _check_cli_design(text: str) -> Optional[str]:
    record = json.loads(text)
    if not record.get("feasible"):
        return "design artifact is not feasible"
    levels = record["levels"]
    if len(levels) != 8 or any(b <= a for a, b in zip(levels, levels[1:])):
        return f"design artifact levels are wrong: {levels}"
    ref = T_STAR_REF["exact.rician.L8"]
    if not abs(record["t_star"] - ref) <= T_STAR_RTOL * ref:
        return f"design artifact t*={record['t_star']!r} differs from the reference {ref!r}"
    return None


def _csv_check(header: str, rows: int):
    def check(text: str) -> Optional[str]:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        if not lines or lines[0] != header:
            return f"header {lines[0] if lines else ''!r}, expected {header!r}"
        if len(lines) - 1 != rows:
            return f"{len(lines) - 1} rows, expected {rows}"
        return None

    return check


def run_cli(argv: list, workdir: Path, env: dict, out_file: str):
    """One fresh `python -m simo_energy.cli` process; returns (exit code, stderr).

    The output file is removed first, so a stale copy cannot pass the check.
    """
    (workdir / out_file).unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "simo_energy.cli", *argv],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


def check_cli_output(workdir: Path, out_file: str, check, code: int, stderr: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    path = workdir / out_file
    if not path.is_file():
        return f"{out_file} was not written"
    return check(path.read_text())


def cli_ops(seed: int, workdir: Path, env: dict) -> list:
    return [
        Op(
            f"cli.{name}",
            lambda argv=argv, f=out_file: run_cli(argv, workdir, env, f),
            lambda res, f=out_file, c=check: check_cli_output(workdir, f, c, *res),
        )
        for name, argv, out_file, check in cli_commands(seed)
    ]


def build(name: str, seed: int, workdir: Path, env: dict, shards: int) -> list:
    """The ops of one workload; the op order is shuffled by the seed.

    `shards` is the simulator's worker count where a user of this machine
    would raise it (the sim-rician workload).
    """
    if name == "sim-rician":
        ops = sim_rician_ops(seed, shards)
    elif name == "sim-generic":
        ops = sim_generic_ops(seed)
    elif name == "cli":
        # The CLI commands keep their order: later ones read the design artifact.
        return cli_ops(seed, workdir, env)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(ops)
    return ops
