"""Command-line front end: design, evaluate, and simulate from JSON configs.

Subcommands: design | evaluate | simulate | sweep-n | min-antennas | histogram.
Configuration comes from an optional JSON file plus dotted per-field override
flags (``--channel.K_dB -10``); later sources win.  Results are written as
gnuplot-friendly CSV (config echoed in ``#`` comment lines) or as a JSON
object with ``config`` and ``rows``.

Exit codes: 0 success (NOT_REACHED is data, not an error), 1 usage or config
error, 2 design infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional

from .channel import NakagamiReal, Rician, alpha1, sigma_from_snr
from .design import (
    DesignConfig,
    UncertaintyBox,
    ask_constellation,
    design_exact,
    design_moments,
    design_robust,
    min_distance_constellation,
    pam_constellation,
)
from .decode import EnergyMLAsk, EnergyRegions, NoncoherentML, PilotPAM
from .montecarlo import (
    SimScenario,
    check_bins,
    check_n_max,
    check_seed,
    check_target_ber,
    check_trials,
    histogram,
    min_antennas,
    simulate,
)
from .rates import Constellation, chernoff_ser_bound, error_exponent, tail_exponents

_CHANNEL_DEFAULTS = {"kind": "rayleigh", "K_dB": None, "m": None, "omega": 1.0, "gamma_dB": 10.0}
_DESIGN_DEFAULTS = {
    "method": "exact",
    "L": 4,
    "eps": 1e-6,
    "budget": 1.0,
    "a_dB": None,
    "a_K_dB": None,
    "a_gamma_dB": None,
}
_SIM_DEFAULTS = {
    "scheme": "energy",
    "n": [100],
    "symbols": 100000,
    "seed": 0,
    "shards": 1,
    "T": 1,
    "T_l": 0,
    "pilot_power": 1.0,
    "true": None,
    "assumed": None,
    "target_ber": 1e-3,
    "n_max": 2048,
    "trials": 10000,
    "bins": 60,
}
_OUTPUT_DEFAULTS = {"path": None, "format": "csv"}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


@contextmanager
def _field(name: str):
    """Report a ValueError or TypeError raised inside the block (a library check, or
    a conversion of a value of the wrong type) as a config error on `name`."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("-inf", "inf", "+inf"):
        return float(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _merge_config(path: Optional[str], overrides) -> dict:
    cfg = {
        "channel": dict(_CHANNEL_DEFAULTS),
        "design": dict(_DESIGN_DEFAULTS),
        "sim": dict(_SIM_DEFAULTS),
        "output": dict(_OUTPUT_DEFAULTS),
        "artifact": None,
    }
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for block, value in loaded.items():
            if block not in cfg:
                raise ConfigError(f"unknown config block {block!r}")
            if isinstance(value, dict):
                for key, v in value.items():
                    if key not in cfg[block]:
                        raise ConfigError(f"unknown field {block}.{key!r}")
                    cfg[block][key] = v
            else:
                cfg[block] = value
    for dotted, raw in overrides:
        value = _parse_scalar(raw)
        parts = dotted.split(".")
        if len(parts) == 1 and parts[0] in cfg and not isinstance(cfg[parts[0]], dict):
            cfg[parts[0]] = value
            continue
        if len(parts) < 2 or parts[0] not in cfg or not isinstance(cfg[parts[0]], dict):
            raise ConfigError(f"unknown override field {dotted!r}")
        node = cfg[parts[0]]
        for part in parts[1:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        leaf = parts[-1]
        if parts[1:] == [leaf] and leaf not in node and parts[0] in ("channel", "design", "sim", "output"):
            raise ConfigError(f"unknown override field {dotted!r}")
        node[leaf] = value
    return cfg


def _channel_from(block: dict):
    """(ChannelSpec, sigma2) from a channel-shaped dict."""
    kind = block.get("kind", "rayleigh")
    gamma = block.get("gamma_dB")
    if gamma is None or not math.isfinite(float(gamma)):
        raise ConfigError("channel.gamma_dB must be a finite number")
    sigma2 = sigma_from_snr(float(gamma))
    if kind == "rayleigh":
        return Rician(-math.inf), sigma2
    if kind == "rician":
        k_db = block.get("K_dB")
        if k_db is None:
            raise ConfigError("channel.K_dB is required for kind 'rician'")
        return Rician(float(k_db)), sigma2
    if kind == "nakagami":
        m = block.get("m")
        if m is None:
            raise ConfigError("channel.m is required for kind 'nakagami'")
        with _field("channel"):
            return NakagamiReal(float(m), float(block.get("omega", 1.0))), sigma2
    raise ConfigError(f"unknown channel.kind {kind!r}")


def _merged_channel(base: dict, override) -> dict:
    if not override:
        return base
    merged = dict(base)
    merged.update({k: v for k, v in override.items() if v is not None})
    return merged


def _box_from(cfg: dict) -> UncertaintyBox:
    """Uncertainty box from +/- dB half-widths around the nominal channel.

    alpha1 and sigma are evaluated at the four (K +/- a_K, gamma +/- a_g)
    corners and the enclosing interval is taken.
    """
    ch = cfg["channel"]
    d = cfg["design"]
    a = d.get("a_dB")
    a_k = a if d.get("a_K_dB") is None else d["a_K_dB"]
    a_g = a if d.get("a_gamma_dB") is None else d["a_gamma_dB"]
    if a_k is None or a_g is None:
        raise ConfigError("design.a_dB (or a_K_dB / a_gamma_dB) is required for robust")
    nominal, _ = _channel_from(ch)
    gamma = float(ch["gamma_dB"])
    alphas = []
    for dk in (-a_k, a_k):
        if isinstance(nominal, Rician):
            k_db = nominal.K_db
            corner = Rician(k_db + dk if math.isfinite(k_db) else k_db)
        else:
            corner = nominal
        alphas.append(alpha1(corner))
    sigmas = [math.sqrt(sigma_from_snr(gamma + dg)) for dg in (-a_g, a_g)]
    return UncertaintyBox(min(alphas), max(alphas), min(sigmas), max(sigmas))


def _design_from(cfg: dict):
    """Run the configured design. Returns (outcome_or_None, constellation_or_None)."""
    d = cfg["design"]
    channel, sigma2 = _channel_from(cfg["channel"])
    method = d["method"]
    with _field("design.L"):
        dcfg = DesignConfig(L=int(d["L"]))
    with _field("design.budget"):
        dcfg = replace(dcfg, power_budget=float(d["budget"]))
    with _field("design.eps"):
        dcfg = replace(dcfg, eps=float(d["eps"]))
    if method == "exact":
        out = design_exact(channel, sigma2, dcfg)
        return out, out.constellation
    if method == "moments":
        out = design_moments(alpha1(channel), sigma2, dcfg)
        return out, out.constellation
    if method == "robust":
        out = design_robust(_box_from(cfg), dcfg)
        return out, out.constellation
    if method == "mindist":
        return None, min_distance_constellation(dcfg.L, sigma2)
    if method == "ask":
        return None, ask_constellation(dcfg.L, sigma2)
    raise ConfigError(f"unknown design.method {d['method']!r}")


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(cfg: dict, columns, rows, out_path: Optional[str]) -> None:
    fmt = cfg["output"]["format"]
    seed = cfg["sim"]["seed"]
    shards = cfg["sim"]["shards"]
    digest = _config_hash(cfg)
    if fmt == "json":
        payload = {
            "config": cfg,
            "config_sha256": digest,
            "seed": seed,
            "shards": shards,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, default=str) + "\n"
    elif fmt == "csv":
        lines = [
            f"# config: {json.dumps(cfg, sort_keys=True, default=str)}",
            f"# config_sha256: {digest}",
            f"# seed: {seed}",
            f"# shards: {shards}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_format_value(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown output.format {fmt!r}")
    _emit(text, out_path)


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write text to stdout, or to out_path when one is given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_design(cfg: dict, out_path: Optional[str]) -> int:
    outcome, constellation = _design_from(cfg)
    record = {
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "method": cfg["design"]["method"],
    }
    if outcome is not None and not outcome.feasible:
        record["feasible"] = False
        record["iterations"] = outcome.iterations
        _emit(json.dumps(record, indent=2, default=str) + "\n", out_path)
        return 2
    record["feasible"] = True
    record["levels"] = list(constellation.levels)
    record["sigma2_design"] = constellation.sigma2_design
    record["boundaries"] = (
        list(constellation.boundaries) if constellation.boundaries else None
    )
    if outcome is not None:
        record["t_star"] = outcome.t_star
        record["mean_power"] = outcome.mean_power
        record["boundary_exponents"] = [list(pair) for pair in outcome.boundary_exponents]
        record["iterations"] = outcome.iterations
    _emit(json.dumps(record, indent=2, default=str) + "\n", out_path)
    return 0


def load_constellation_artifact(path: str) -> Constellation:
    with open(path) as fh:
        record = json.load(fh)
    if not record.get("feasible", True):
        raise ConfigError(f"artifact {path} records an infeasible design")
    boundaries = record.get("boundaries")
    return Constellation(
        tuple(record["levels"]),
        float(record["sigma2_design"]),
        tuple(boundaries) if boundaries else None,
    )


def _artifact_constellation(cfg: dict) -> Constellation:
    path = cfg["artifact"]
    with _field("artifact"):
        try:
            return load_constellation_artifact(path)
        except OSError as exc:
            raise ConfigError(f"artifact: cannot read {path}: {exc.strerror}") from None
        except (AttributeError, KeyError, TypeError):
            raise ConfigError(f"artifact: {path} is not a design artifact") from None


def _antenna_counts(cfg: dict) -> list:
    """sim.n as a nonempty list of antenna counts, each at least 1."""
    with _field("sim.n"):
        counts = [int(n) for n in cfg["sim"]["n"]]
        if not counts or min(counts) < 1:
            raise ValueError(f"antenna counts must be at least 1, got {cfg['sim']['n']!r}")
    return counts


def _constellation_for_run(cfg: dict) -> Constellation:
    if cfg.get("artifact"):
        return _artifact_constellation(cfg)
    outcome, constellation = _design_from(cfg)
    if outcome is not None and not outcome.feasible:
        raise ConfigError("configured design is infeasible")
    return constellation


def cmd_evaluate(cfg: dict, out_path: Optional[str]) -> int:
    if not cfg.get("artifact"):
        raise ConfigError("artifact: evaluate requires a constellation artifact")
    constellation = _artifact_constellation(cfg)
    channel, sigma2 = _channel_from(cfg["channel"])
    i_e = error_exponent(constellation, channel, sigma2)
    columns = ["n", "chernoff_bound", "error_exponent"]
    for k in range(1, constellation.L):
        columns += [f"exp_right_{k}", f"exp_left_{k + 1}"]
    exponents = tail_exponents(constellation, channel, sigma2)
    pair_values = []
    for k in range(constellation.L - 1):
        pair_values += [exponents[k][1], exponents[k + 1][0]]
    rows = []
    for n in _antenna_counts(cfg):
        bound = chernoff_ser_bound(constellation, channel, sigma2, n)
        rows.append([n, bound, i_e] + pair_values)
    _write_rows(cfg, columns, rows, out_path)
    return 0


def _scenario_from(cfg: dict, constellation: Constellation, n: int) -> SimScenario:
    sim = cfg["sim"]
    true_block = _merged_channel(cfg["channel"], sim.get("true"))
    assumed_block = _merged_channel(cfg["channel"], sim.get("assumed"))
    true_channel, true_sigma2 = _channel_from(true_block)
    assumed_channel, assumed_sigma2 = _channel_from(assumed_block)
    scheme = sim["scheme"]
    if scheme == "energy":
        decoder = EnergyRegions(constellation)
    elif scheme == "noncoherent_ml":
        decoder = NoncoherentML(
            levels=constellation.levels,
            mu=assumed_channel.mu,
            sigma_h2=assumed_channel.sigma_h2,
            sigma2=assumed_sigma2,
        )
    elif scheme == "ask_energy_ml":
        decoder = EnergyMLAsk(
            levels=constellation.levels,
            mu=assumed_channel.mu,
            sigma_h2=assumed_channel.sigma_h2,
            sigma2=assumed_sigma2,
            n=n,
        )
    elif scheme == "pilot_pam":
        with _field("design.L"):
            pam = pam_constellation(int(cfg["design"]["L"]))
        with _field("sim.T_l"):
            decoder = PilotPAM(
                amplitudes=pam.amplitudes,
                mu=assumed_channel.mu,
                sigma_h2=assumed_channel.sigma_h2,
                sigma2=assumed_sigma2,
                coherence_slots=int(sim["T"]),
                pilot_slots=int(sim["T_l"]),
                pilot_power=float(sim["pilot_power"]),
            )
    else:
        raise ConfigError(f"unknown sim.scheme {scheme!r}")
    # n is checked by the callers, so only the symbol budget can fail here.
    with _field("sim.symbols"):
        scenario = SimScenario(
            true_channel=true_channel,
            true_sigma2=true_sigma2,
            decoder=decoder,
            n=n,
            symbols=int(sim["symbols"]),
            seed=0,
        )
    with _field("sim.seed"):
        scenario = replace(scenario, seed=int(sim["seed"]))
    with _field("sim.shards"):
        scenario = replace(scenario, shards=int(sim["shards"]))
    return scenario


_SWEEP_COLUMNS = ["n", "ser", "ber", "ser_lo", "ser_hi", "ber_lo", "ber_hi", "symbols", "seed"]


def _report_row(n: int, report) -> list:
    return [
        n,
        report.ser,
        report.ber,
        report.ser_ci[0],
        report.ser_ci[1],
        report.ber_ci[0],
        report.ber_ci[1],
        report.symbols,
        report.seed,
    ]


def cmd_simulate(cfg: dict, out_path: Optional[str]) -> int:
    constellation = _constellation_for_run(cfg)
    n = _antenna_counts(cfg)[0]
    report = simulate(_scenario_from(cfg, constellation, n))
    _write_rows(cfg, _SWEEP_COLUMNS, [_report_row(n, report)], out_path)
    return 0


def cmd_sweep_n(cfg: dict, out_path: Optional[str]) -> int:
    constellation = _constellation_for_run(cfg)
    rows = []
    for n in _antenna_counts(cfg):
        report = simulate(_scenario_from(cfg, constellation, n))
        rows.append(_report_row(n, report))
    _write_rows(cfg, _SWEEP_COLUMNS, rows, out_path)
    return 0


def cmd_min_antennas(cfg: dict, out_path: Optional[str]) -> int:
    constellation = _constellation_for_run(cfg)
    sim = cfg["sim"]
    with _field("sim.target_ber"):
        target_ber = float(sim["target_ber"])
        check_target_ber(target_ber)
    with _field("sim.n_max"):
        n_max = int(sim["n_max"])
        check_n_max(n_max)
    template = _scenario_from(cfg, constellation, 1)
    n_star = min_antennas(template, target_ber, n_max)
    rows = [
        [
            template.scheme,
            template.effective_rate,
            "NOT_REACHED" if n_star is None else n_star,
        ]
    ]
    _write_rows(cfg, ["scheme", "effective_rate", "n_star"], rows, out_path)
    return 0


def cmd_histogram(cfg: dict, out_path: Optional[str]) -> int:
    sim = cfg["sim"]
    with _field("sim.bins"):
        bins = int(sim["bins"])
        check_bins(bins)
    with _field("sim.trials"):
        trials = int(sim["trials"])
        check_trials(trials)
    with _field("sim.seed"):
        seed = int(sim["seed"])
        check_seed(seed)
    constellation = _constellation_for_run(cfg)
    if constellation.boundaries is None:
        raise ConfigError("histogram needs a region-decoded constellation")
    channel, sigma2 = _channel_from(
        _merged_channel(cfg["channel"], cfg["sim"].get("true"))
    )
    result = histogram(
        constellation, channel, sigma2, n=_antenna_counts(cfg)[0],
        trials=trials, bins=bins, seed=seed,
    )
    columns = ["kind", "symbol", "left", "right", "count"]
    rows = []
    edges = result.bin_edges
    for k, counts in enumerate(result.counts):
        for j, c in enumerate(counts):
            rows.append(["hist", k, edges[j], edges[j + 1], c])
    for k, c in enumerate(result.boundaries):
        rows.append(["boundary", k + 1, c, c, 0])
    for k, r in enumerate(result.receiver_points):
        rows.append(["receiver_point", k, r, r, 0])
    _write_rows(cfg, columns, rows, out_path)
    return 0


_COMMANDS = {
    "design": cmd_design,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "sweep-n": cmd_sweep_n,
    "min-antennas": cmd_min_antennas,
    "histogram": cmd_histogram,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simo-energy",
        description="Energy-level constellation design and link simulation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--seed", type=int, help="simulation seed (64-bit)")
    parser.add_argument("--shards", type=int, help="shard count (provenance only)")
    parser.add_argument("--artifact", help="constellation artifact to load")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    overrides = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or "." not in token:
            print(f"config error: unrecognized argument {token!r}", file=sys.stderr)
            return 1
        if "=" in token:
            dotted, raw = token[2:].split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extras):
                print(f"config error: missing value for {token!r}", file=sys.stderr)
                return 1
            dotted, raw = token[2:], extras[i + 1]
            i += 2
        overrides.append((dotted, raw))
    try:
        cfg = _merge_config(args.config, overrides)
        if args.seed is not None:
            cfg["sim"]["seed"] = args.seed
        if args.shards is not None:
            cfg["sim"]["shards"] = args.shards
        if args.format is not None:
            cfg["output"]["format"] = args.format
        if args.artifact is not None:
            cfg["artifact"] = args.artifact
        if isinstance(cfg["sim"]["n"], (int, float)):
            cfg["sim"]["n"] = [int(cfg["sim"]["n"])]
        out_path = args.out if args.out is not None else cfg["output"]["path"]
        return _COMMANDS[args.command](cfg, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
