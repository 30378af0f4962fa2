"""Time `simulate` per cell and `min_antennas` per search, and count their work.

The cells are Rayleigh energy and noncoherent-ML receivers at large n, plus
the two samplers the Rayleigh cells do not run at n = 16: Nakagami energy
regions and Rayleigh pilot PAM (T = 2, T_l = 1).  The Nakagami energy cells
run at m = 2, where the sampler draws `_gaussian_sums` given the channel
energy, and at the benchmark's m = nakagami_m_from_K(0) ~ 0.2945 (n = 16
and 100), where it adds one Gamma to it.  A Rician K = 0 dB pilot-PAM
cell (T = 4, T_l = 1) runs the projection sampler's other branch: a
nonzero-mean estimate and three data slots that share one cross term.  One
more Rayleigh energy cell decodes 64 minimum-distance levels at n = 400,
where the interval search takes log2(64) = 6 passes.

Two `min_antennas` searches run on the benchmark's templates (target BER
1e-3, n_max 2048, 100 000 symbols per candidate, seed 1): the energy scheme
with the Rayleigh L = 4 design, and pilot PAM with L = 2, T = 2, T_l = 1.
For those the line gives the candidates simulated and their symbols.

Usage: PYTHONPATH=src python3 scripts/block_timing.py

It times whichever `simo_energy` is importable, so the same script measures
two checkouts when PYTHONPATH points at each one's `src` in turn.  Each cell
is timed REPS times, the cells interleaved, after one warm-up run; the
median and quartiles are printed in ms with the cell's block count (or
candidates) and its decided symbols per second at the median (Msym/s), one
JSON object per line.
"""

import json
import statistics
import time

from simo_energy import montecarlo
from simo_energy.channel import (
    NakagamiReal,
    Rician,
    nakagami_m_from_K,
    rayleigh,
    sigma_from_snr,
)
from simo_energy.decode import EnergyRegions, NoncoherentML, PilotPAM
from simo_energy.design import (
    DesignConfig,
    design_exact,
    min_distance_constellation,
    pam_constellation,
)
from simo_energy.montecarlo import SimScenario, min_antennas, simulate

DRAWS = 1 << 21  # antenna draws per cell, as n * symbols, except energy.n1000
REPS = 100  # timed runs per cell
TARGET_BER, N_MAX, SEARCH_SYMBOLS = 1e-3, 2048, 100_000


def cells():
    sigma2 = sigma_from_snr(10.0)
    constellation = design_exact(rayleigh(), sigma2, DesignConfig(L=4)).constellation
    energy = EnergyRegions(constellation)
    energy_64 = EnergyRegions(min_distance_constellation(64, sigma2))
    ml = NoncoherentML(constellation.levels, 0.0, 1.0, sigma2)
    amps = pam_constellation(4).amplitudes
    pilot = PilotPAM(amps, 0.0, 1.0, sigma2, 2, 1)
    rician = Rician(0.0)
    nakagami_k0 = NakagamiReal(nakagami_m_from_K(0.0))
    rician_pilot = PilotPAM(amps, rician.mu, rician.sigma_h2, sigma2, 4, 1)
    pilot_l2 = PilotPAM(pam_constellation(2).amplitudes, 0.0, 1.0, sigma2, 2, 1)
    for name, decoder in (("min_antennas.energy", energy), ("min_antennas.pilot_pam", pilot_l2)):
        yield name, SimScenario(rayleigh(), sigma2, decoder, 1, SEARCH_SYMBOLS, seed=1)
    for name, channel, decoder, n, symbols in (
        ("energy.n100", rayleigh(), energy, 100, DRAWS // 100),
        ("noncoherent_ml.n100", rayleigh(), ml, 100, DRAWS // 100),
        ("energy.n400", rayleigh(), energy, 400, DRAWS // 400),
        ("energy.n1000", rayleigh(), energy, 1000, 100_000),
        ("energy_L64.n400", rayleigh(), energy_64, 400, DRAWS // 400),
        ("nakagami_energy.n16", NakagamiReal(2.0), energy, 16, DRAWS // 16),
        ("nakagami_k0dB_energy.n16", nakagami_k0, energy, 16, DRAWS // 16),
        ("nakagami_k0dB_energy.n100", nakagami_k0, energy, 100, DRAWS // 100),
        ("pilot_pam.n16", rayleigh(), pilot, 16, DRAWS // 16),
        ("pilot_pam_rician0dB_T4.n16", rician, rician_pilot, 16, DRAWS // 16),
    ):
        yield name, SimScenario(channel, sigma2, decoder, n, symbols, seed=1)


def run(name, scenario):
    if name.startswith("min_antennas."):
        return min_antennas(scenario, TARGET_BER, N_MAX)
    return simulate(scenario)


def block_count(scenario):
    """(rng blocks, decided symbols) of one `simulate` run."""
    make_rng, seen = montecarlo._block_generator, []

    def counting(seed, index):
        seen.append(index)
        return make_rng(seed, index)

    montecarlo._block_generator = counting
    try:
        report = simulate(scenario)
    finally:
        montecarlo._block_generator = make_rng
    return len(seen), report.symbols


def search_count(scenario):
    """(candidates simulated, their decided symbols) of one `min_antennas` search."""
    accumulate, seen = montecarlo._accumulate, []

    def counting(scen, stop_bit_errors=None):
        result = accumulate(scen, stop_bit_errors)
        seen.append(result.symbols)
        return result

    montecarlo._accumulate = counting
    try:
        min_antennas(scenario, TARGET_BER, N_MAX)
    finally:
        montecarlo._accumulate = accumulate
    return len(seen), sum(seen)


def main() -> None:
    scenarios = dict(cells())
    times = {name: [] for name in scenarios}
    for name, scenario in scenarios.items():
        run(name, scenario)
    for _ in range(REPS):
        for name, scenario in scenarios.items():
            start = time.perf_counter()
            run(name, scenario)
            times[name].append(time.perf_counter() - start)
    for name, scenario in scenarios.items():
        q1, median, q3 = statistics.quantiles(times[name], n=4)
        if name.startswith("min_antennas."):
            count, decided = search_count(scenario)
            counted = {"candidates": count}
        else:
            count, decided = block_count(scenario)
            counted = {"n": scenario.n, "blocks": count}
        print(json.dumps({
            "cell": name,
            **counted,
            "symbols": decided,
            "msym_per_s": round(decided / median / 1e6, 3),
            "median_ms": round(1e3 * median, 3),
            "q1_ms": round(1e3 * q1, 3),
            "q3_ms": round(1e3 * q3, 3),
        }))


if __name__ == "__main__":
    main()
