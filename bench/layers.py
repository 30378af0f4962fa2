"""The traced run: per-layer numbers for channel, rates, design, decode,
montecarlo and cli, timed from the benchmark's side of each public call.

Inputs are shaped like the workloads: the same design levels and region
boundaries, the same 2**18-draw blocks and the same CLI arguments.  Nothing
here runs inside a timed end-to-end run.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from simo_energy import (
    DesignConfig,
    RateOracle,
    alpha1,
    chernoff_ser_bound,
    design_exact,
    design_moments,
    design_robust,
    equalize_boundary,
    histogram,
    log_mgf_energy,
    min_antennas,
    rayleigh,
    sample_channel,
    sigma_from_snr,
    simulate,
)
from simo_energy import cli as simo_cli
from simo_energy.decode import energy_ml_logpdf, nearest_amplitude_index, noncoherent_nll
from simo_energy.design import exact_power_at

import workloads as W
from tracing import Tracer, TracedOracle, design_summary

BLOCK_DRAWS = 1 << 18  # antenna draws per logical block of the simulator
DESIGN_CELLS = [("rayleigh", L) for L in (4, 8, 16)] + [("rician", L) for L in (4, 8, 16)] + [
    ("nakagami", 4)
]
# Counts of one Rayleigh L = 4 design at 10 dB, recorded when the benchmark
# was defined; a traced run reports whether it reproduces them.
RAYLEIGH_L4_COUNTS = {
    "log_mgf": 338_410,
    "build_oracle": 1_422,
    "inverse_rate": 144,
    "rate_left": 1_275,
    "rate_right": 6_051,
}


def per_call_s(fn, calls, min_s: float = 0.2, max_s: float = 1.5) -> float:
    """Median over batches of the mean time per call; a batch makes every call once."""
    batches = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for args in calls:
            fn(*args)
        batches.append((perf_counter() - t0) / len(calls))
        elapsed = perf_counter() - start
        if (elapsed >= min_s and len(batches) >= 3) or elapsed >= max_s:
            return statistics.median(batches)


class Layers:
    """Collects per-layer metrics and the problems found while measuring them."""

    def __init__(self, tracer: Tracer, seed: int, workdir: Path, env: dict, shards: int):
        self.tracer = tracer
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.shards = shards
        self.metrics = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def outcome(self, what: str, problem, known_defect=None) -> bool:
        """Count one measured call; a non-None problem makes it a failure.

        A problem equal to `known_defect`, the message a known defect of the
        program produces, still counts as failed but is reported as a note,
        so the run stays correct; any other problem is not excused.
        """
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if problem == known_defect:
            self.notes.append(f"known defect reproduced: {what}: {problem}")
        else:
            self.problems.append(f"{what}: {problem}")
        return False

    def timed(self, name: str, fn, *args):
        with self.tracer.span(name):
            t0 = perf_counter()
            out = fn(*args)
            return out, perf_counter() - t0

    # ------------------------------------------------------------ design

    def design(self) -> dict:
        outcomes = {}
        overhead = 0.0
        for family, L in DESIGN_CELLS:
            cell = f"{family}.L{L}"
            channel = W.family_channel(family)
            cfg = DesignConfig(L=L)
            plain, plain_s = self.timed(f"design.exact.{cell}", design_exact, channel, W.SIGMA2, cfg)
            tracer = self.tracer
            with tracer.span(f"design.exact.{cell}.traced") as span:
                t0 = perf_counter()
                traced = design_exact(
                    channel, W.SIGMA2, cfg,
                    oracle_factory=lambda p: TracedOracle(tracer, channel, W.SIGMA2, p),
                )
                traced_s = perf_counter() - t0
            overhead += traced_s - plain_s
            outcomes[cell] = plain
            self.outcome(f"design {cell}", W.check_design(plain, f"exact.{cell}"))
            identical = (
                traced.t_star == plain.t_star
                and traced.constellation.levels == plain.constellation.levels
                and traced.constellation.boundaries == plain.constellation.boundaries
            )
            self.outcome(
                f"traced design {cell}",
                None if identical else "traced outcome differs from the untraced one",
            )
            summary = design_summary(tracer, span)
            self.record(f"design.exact_s.{cell}", plain_s)
            self.record(f"design.outer_iters.{cell}", plain.iterations)
            for key in ("oracles_built", "log_mgf_calls", "rate_calls", "rates_self_s", "construct_self_s"):
                self.record(f"design.{key}.{cell}", summary[key])
            if cell == "rayleigh.L4":
                match = summary["per_method"] == RAYLEIGH_L4_COUNTS
                self.notes.append(
                    f"rayleigh L4 oracle counts {summary['per_method']} "
                    f"{'match' if match else 'differ from'} the recorded {RAYLEIGH_L4_COUNTS}"
                )
        self.record("design.trace_overhead_s", overhead)
        self.notes.append(
            f"tracing overhead: the {len(DESIGN_CELLS)} traced designs took {overhead:.3f} s "
            "longer than the untraced ones"
        )

        a1 = alpha1(rayleigh())
        out = None

        def moments():
            nonlocal out
            out = design_moments(a1, W.SIGMA2, DesignConfig(L=64))

        with self.tracer.span("design.moments.L64"):
            self.record("design.moments_s.L64", per_call_s(moments, [()]))
        self.outcome("design moments L64", W.check_design(out, "moments.L64"))

        box = W.box_around(rayleigh(), W.SIGMA2, 0.05, 0.10)

        def robust():
            nonlocal out
            out = design_robust(box, DesignConfig(L=16))

        with self.tracer.span("design.robust.L16"):
            self.record("design.robust_s.L16", per_call_s(robust, [()]))
        self.outcome("design robust L16", W.check_design(out, "robust.L16"))

        # design_moments reports this feasible design as infeasible.
        out = design_moments(a1, sigma_from_snr(-20.0), DesignConfig(L=16))
        self.outcome("design moments L16 -20 dB", W.check_design(out, None), known_defect=W.INFEASIBLE)

        cfg = DesignConfig(L=4)
        for family in ("rayleigh", "rician", "nakagami"):
            channel = W.family_channel(family)
            t = outcomes[f"{family}.L4"].t_star
            with self.tracer.span(f"design.exact_power_at.{family}"):
                s = per_call_s(exact_power_at, [(channel, W.SIGMA2, cfg, t)], min_s=0.3)
            self.record(f"design.exact_power_at_ms.{family}", 1e3 * s)
            power = exact_power_at(channel, W.SIGMA2, cfg, t)
            self.outcome(
                f"exact_power_at {family}",
                None if abs(power - 1.0) <= W.BUDGET_TOL else f"power {power!r} at t* is not the budget",
            )
        return outcomes

    # ----------------------------------------------------- channel, rates

    def channel_and_rates(self, rician_l4) -> None:
        c = rician_l4.constellation
        t_star = rician_l4.t_star
        levels = c.levels
        d_right = [b - (p + W.SIGMA2) for p, b in zip(levels, c.boundaries)]
        d_left = [(p + W.SIGMA2) - b for p, b in zip(levels[1:], c.boundaries)]
        for family in ("rician", "nakagami"):
            channel = W.family_channel(family)
            oracles = [RateOracle(channel, W.SIGMA2, p) for p in levels]
            thetas = [
                (channel, W.SIGMA2, p, f * o.theta_max)
                for p, o in zip(levels, oracles)
                for f in (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 0.9, 0.99)
            ]
            with self.tracer.span(f"channel.log_mgf_energy.{family}"):
                s = per_call_s(log_mgf_energy, thetas)
            self.record(f"channel.log_mgf_us.{family}", 1e6 * s)

            rng = np.random.default_rng(W.sim_seed(self.seed))
            with self.tracer.span(f"channel.sample_channel.{family}"):
                s = per_call_s(sample_channel, [(channel, BLOCK_DRAWS, rng)])
            self.record(f"channel.sample_mdraws_per_s.{family}", BLOCK_DRAWS / s / 1e6)

            rights = [(o.rate_right, d) for o, d in zip(oracles, d_right)]
            lefts = [(o.rate_left, d) for o, d in zip(oracles[1:], d_left)]
            inverses = [(o.inverse_rate, "right", t_star) for o in oracles[:-1]]
            inverses += [(o.inverse_rate, "left", t_star) for o in oracles[1:]]
            call = lambda f, *a: f(*a)  # noqa: E731
            with self.tracer.span(f"rates.rate_right.{family}"):
                self.record(f"rates.rate_right_us.{family}", 1e6 * per_call_s(call, rights))
            with self.tracer.span(f"rates.rate_left.{family}"):
                self.record(f"rates.rate_left_us.{family}", 1e6 * per_call_s(call, lefts))
            with self.tracer.span(f"rates.inverse_rate.{family}"):
                self.record(f"rates.inverse_rate_us.{family}", 1e6 * per_call_s(call, inverses))
            for o, d in zip(oracles[:-1], d_right):
                value = o.inverse_rate("right", o.rate_right(d))
                self.outcome(
                    f"inverse_rate {family}",
                    None if abs(value - d) <= 1e-6 * d else f"inverse of rate_right({d!r}) is {value!r}",
                )
            if family == "rician":
                pairs = [
                    (oracles[k], oracles[k + 1], levels[k + 1] - levels[k])
                    for k in range(len(levels) - 1)
                ]
                with self.tracer.span("rates.equalize_boundary.rician"):
                    s = per_call_s(equalize_boundary, pairs)
                self.record("rates.equalize_boundary_us.rician", 1e6 * s)
            with self.tracer.span(f"rates.chernoff_ser_bound.{family}"):
                s = per_call_s(chernoff_ser_bound, [(c, channel, W.SIGMA2, 100)])
            self.record(f"rates.chernoff_bound_ms.{family}", 1e3 * s)
            bound = chernoff_ser_bound(c, channel, W.SIGMA2, 100)
            self.outcome(
                f"chernoff bound {family}",
                None if 0.0 < bound < 1.0 else f"bound {bound!r} at n = 100 is not in (0, 1)",
            )

    # ------------------------------------------------------------ decode

    def decode(self, levels) -> None:
        rng = np.random.default_rng(W.sim_seed(self.seed))
        levels = np.asarray(levels)
        ch = rayleigh()
        for n in (16, 100, 400):
            count = BLOCK_DRAWS // n
            p = levels[rng.integers(0, len(levels), size=count)]
            norm2 = rng.gamma(n, p + W.SIGMA2)
            re_sum = rng.standard_normal(count) * np.sqrt(n * (p + W.SIGMA2) / 2.0)
            args = (levels, ch.mu, ch.sigma_h2, W.SIGMA2, n, norm2, re_sum)
            with self.tracer.span(f"decode.noncoherent_nll.n{n}"):
                s = per_call_s(noncoherent_nll, [args])
            self.record(f"decode.noncoherent_nll_msym_per_s.n{n}", count / s / 1e6)
            args = (norm2 / n, n, levels, ch.mu, ch.sigma_h2, W.SIGMA2)
            with self.tracer.span(f"decode.energy_ml_logpdf.n{n}"):
                s = per_call_s(energy_ml_logpdf, [args])
            self.record(f"decode.energy_ml_logpdf_msym_per_s.n{n}", count / s / 1e6)
            logpdf = energy_ml_logpdf(*args)
            self.outcome(
                f"energy_ml_logpdf n{n}",
                None if logpdf.shape == (count, len(levels)) else f"shape {logpdf.shape}",
            )
        # One pilot-PAM block at n = 16 with T = 2: 8192 coherence blocks of one data slot.
        amps = np.asarray(W.pilot_decoder().amplitudes)
        z = rng.standard_normal((BLOCK_DRAWS // 16 // 2, 1))
        with self.tracer.span("decode.nearest_amplitude_index"):
            s = per_call_s(nearest_amplitude_index, [(amps, z)])
        self.record("decode.nearest_amplitude_msym_per_s", z.size / s / 1e6)

    # -------------------------------------------------------- montecarlo

    def montecarlo(self, rayleigh_l4) -> None:
        seed = W.sim_seed(self.seed)
        cells = W.sim_rician_cells(seed, rayleigh_l4, self.shards)
        generic, mindist, nakagami = W.sim_generic_cells(seed)
        for cell in cells + generic:
            scen = cell.scenario
            report, s = self.timed(f"montecarlo.simulate.{cell.name}", simulate, scen)
            self.outcome(f"simulate {cell.name}", cell.check(report))
            # Antenna samples of the symbol budget, pilot slots included.
            draws = scen.symbols * scen.n
            self.record(f"montecarlo.simulate_mdraws_per_s.{cell.name}", draws / s / 1e6)
            with self.tracer.span(f"montecarlo.sampler_estimate.{cell.name}"):
                estimate = sampler_decoder_s(scen)
            self.record(f"montecarlo.sampler_share.{cell.name}", estimate / s)

        templates = {
            "energy": W.energy_template(self.seed, rayleigh_l4.constellation, self.shards),
            "pilot_pam": W.pilot_template(self.seed),
        }
        for scheme, template in templates.items():
            n_star, s = self.timed(
                f"montecarlo.min_antennas.{scheme}", min_antennas, template, W.TARGET_BER, W.N_MAX
            )
            self.record(f"montecarlo.min_antennas_s.{scheme}", s)
            self.outcome(f"min_antennas {scheme}", W.check_n_star(scheme, W.N_MAX)(n_star))

        result, s = self.timed(
            "montecarlo.histogram", histogram, mindist, nakagami, W.SIGMA2, 100,
            W.HIST_TRIALS, W.HIST_BINS, seed,
        )
        self.record("montecarlo.histogram_s", s)
        self.outcome(
            "histogram", W.check_histogram(result, mindist, W.SIGMA2, W.HIST_TRIALS, W.HIST_BINS)
        )

    # --------------------------------------------------------------- cli

    def cli(self) -> None:
        for name, argv, out_file, check in W.cli_commands(self.seed):
            with self.tracer.span(f"cli.cmd.{name}"):
                t0 = perf_counter()
                code, stderr = W.run_cli(argv, self.workdir, self.env, out_file)
                self.record(f"cli.cmd_s.{name}", perf_counter() - t0)
            self.outcome(f"cli {name}", W.check_cli_output(self.workdir, out_file, check, code, stderr))

            (self.workdir / out_file).unlink(missing_ok=True)
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with self.tracer.span(f"cli.main.{name}"):
                    t0 = perf_counter()
                    code = simo_cli.main(argv)
                    self.record(f"cli.main_s.{name}", perf_counter() - t0)
            finally:
                os.chdir(cwd)
            startup = self.metrics[f"cli.cmd_s.{name}"] - self.metrics[f"cli.main_s.{name}"]
            self.notes.append(f"cli {name}: start-up (cmd_s - main_s) {startup:.3f} s")
            self.outcome(f"cli main {name}", W.check_cli_output(self.workdir, out_file, check, code, ""))

        samples = {"simo_energy": [], "scipy.stats": [], "scipy.optimize": []}
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import simo_energy"],
                env=self.env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
            found = parse_importtime(proc.stderr)
            for module in samples:
                if module in found:
                    samples[module].append(found[module])
        for module, metric in (
            ("simo_energy", "cli.import_s"),
            ("scipy.stats", "cli.import_scipy_stats_s"),
            ("scipy.optimize", "cli.import_scipy_optimize_s"),
        ):
            if self.outcome(f"importtime {module}", None if samples[module] else "not imported"):
                self.record(metric, statistics.median(samples[module]))


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output.

    A module appears once, at its first import, with the time of everything
    it imported first; scipy.stats is imported after scipy.optimize, so its
    figure excludes scipy.optimize.
    """
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def sampler_decoder_s(scenario) -> float:
    """Estimated time of the sampler and decoder work of one simulate call.

    One block of the scenario's shape is drawn and decoded with the public
    sampler and decoder functions, and its time is scaled to the scenario's
    number of blocks.  The simulator's own block code is not called, so the
    figure is an estimate.
    """
    dec = scenario.decoder
    n = scenario.n
    rng = np.random.Generator(np.random.Philox(key=scenario.seed))
    noise = math.sqrt(scenario.true_sigma2 / 2.0)
    if isinstance(dec, W.PilotPAM):
        T = dec.coherence_slots
        per = max(T, (max(1, BLOCK_DRAWS // n) // T) * T)
        nb, nd = per // T, T - dec.pilot_slots
        amps = np.asarray(dec.amplitudes)

        def block():
            h = sample_channel(scenario.true_channel, nb * n, rng).reshape(nb, n)
            g = rng.standard_normal((nb, n, 2))
            y_bar = h + noise * (g[..., 0] + 1j * g[..., 1])
            idx = rng.integers(0, len(amps), size=(nb, nd))
            g = rng.standard_normal((nb, n, nd, 2))
            y = h[:, :, None] * amps[idx][:, None, :] + noise * (g[..., 0] + 1j * g[..., 1])
            z = np.sum(np.conj(y_bar)[:, :, None] * y, axis=1).real
            z /= np.sum(np.abs(y_bar) ** 2, axis=1)[:, None]
            return nearest_amplitude_index(amps, z)

    else:
        per = max(1, BLOCK_DRAWS // n)
        levels = np.asarray(
            dec.constellation.levels if isinstance(dec, W.EnergyRegions) else dec.levels
        )

        def block():
            idx = rng.integers(0, len(levels), size=per)
            h = sample_channel(scenario.true_channel, per * n, rng).reshape(per, n)
            g = rng.standard_normal((per, n, 2))
            y = h * np.sqrt(levels[idx])[:, None] + noise * (g[..., 0] + 1j * g[..., 1])
            if isinstance(dec, W.EnergyRegions):
                stat = np.mean(np.abs(y) ** 2, axis=1)
                return np.searchsorted(dec.constellation.boundaries, stat)
            if isinstance(dec, W.NoncoherentML):
                nll = noncoherent_nll(
                    levels, dec.mu, dec.sigma_h2, dec.sigma2, n,
                    np.sum(np.abs(y) ** 2, axis=1), np.sum(y.real, axis=1),
                )
                return np.argmin(nll, axis=1)
            stat = np.mean(np.abs(y) ** 2, axis=1)
            return np.argmax(energy_ml_logpdf(stat, n, levels, dec.mu, dec.sigma_h2, dec.sigma2), axis=1)

    times = []
    for _ in range(3):
        t0 = perf_counter()
        block()
        times.append(perf_counter() - t0)
    # `per` counts symbol slots, pilots included, as the scenario's budget does.
    return min(times) * scenario.symbols / per


def run(seed: int, workdir: Path, env: dict, tracer: Tracer, shards: int) -> Layers:
    layers = Layers(tracer, seed, workdir, env, shards)
    with tracer.span("layer.design"):
        outcomes = layers.design()
    with tracer.span("layer.channel_rates"):
        layers.channel_and_rates(outcomes["rician.L4"])
    with tracer.span("layer.decode"):
        layers.decode(outcomes["rayleigh.L4"].constellation.levels)
    with tracer.span("layer.montecarlo"):
        layers.montecarlo(outcomes["rayleigh.L4"])
    with tracer.span("layer.cli"):
        layers.cli()
    return layers
