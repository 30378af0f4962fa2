"""Command-line front end: design, evaluate, and simulate from JSON configs.

usage: simo-energy COMMAND [--config FILE] [--out PATH] [--artifact PATH]
           [--seed N] [--shards N] [--format csv|json] [--BLOCK.FIELD VALUE ...]

COMMAND comes first: design | evaluate | simulate | sweep-n | min-antennas |
histogram.  Configuration comes from an optional JSON file plus dotted
per-field flags (``--channel.K_dB -10``, ``--sim.n "[50, 100]"``); flags apply
after the file and in order, so the last setting of a field wins.  --seed,
--shards and --format are shorthands for sim.seed, sim.shards and
output.format.  Integer fields take whole numbers, and sim.true / sim.assumed
take channel fields only.  Results are written as gnuplot-friendly CSV
(config echoed in ``#`` comment lines) or as a JSON object with ``config``
and ``rows``.

Exit codes: 0 success (NOT_REACHED is data, not an error), 1 usage or config
error, 2 design infeasibility.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from typing import Optional

from .channel import InputError, NakagamiReal, Rician, alpha1, check_number, sigma_from_snr
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
from .decode import ANTENNA_RANGE, EnergyMLAsk, EnergyRegions, NoncoherentML, PilotPAM
from .montecarlo import SimScenario, histogram, min_antennas, simulate
from .rates import Constellation, chernoff_ser_bound, error_exponent, tail_exponents

_CHANNEL_DEFAULTS = {"kind": "rayleigh", "K_dB": None, "m": None, "gamma_dB": 10.0}
_DESIGN_DEFAULTS = {
    "method": "exact",
    "L": 4,
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
_OUTPUT_DEFAULTS = {"format": "csv"}

# The fields each block takes, by the block's path; () is the top level.
_FIELDS = {
    (): ("channel", "design", "sim", "output", "artifact"),
    ("channel",): _CHANNEL_DEFAULTS,
    ("design",): _DESIGN_DEFAULTS,
    ("sim",): _SIM_DEFAULTS,
    ("output",): _OUTPUT_DEFAULTS,
    ("sim", "true"): _CHANNEL_DEFAULTS,
    ("sim", "assumed"): _CHANNEL_DEFAULTS,
}
_SHORTHANDS = {"seed": "sim.seed", "shards": "sim.shards", "format": "output.format"}
# The config field of each library parameter that an InputError can name.
_PARAM_FIELDS = {
    "L": "design.L", "power_budget": "design.budget",
    # Only a Nakagami shape takes a design's alpha1 = 1/m past its bound.
    "alpha1": "channel.m",
    "coherence_slots": "sim.T", "pilot_slots": "sim.T_l", "pilot_power": "sim.pilot_power",
    **{name: f"sim.{name}" for name in
       ("n", "symbols", "seed", "shards", "target_ber", "n_max", "trials", "bins")},
}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


@contextmanager
def _field(name: str):
    """Report a ValueError, TypeError or OverflowError raised inside the block
    (a library check, or arithmetic on a value of the wrong type or size) as a
    config error on the field `name`.  `main` reports an InputError raised
    outside every such block on its parameter's field (`_PARAM_FIELDS`).
    """
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _json_int(value):
    """An integral float as an int, so that a whole field reads 1e5 as 100000;
    any other value as it is, for the library's check to accept or refuse."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("-inf", "inf", "+inf"):
        return float(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set(cfg: dict, path: tuple, value) -> None:
    """Write one config field, named by its path of keys, from the file or a flag.

    A JSON object given for a block sets that block's fields one by one; one
    given for sim.true or sim.assumed replaces it, and those two may be null.
    """
    *block, field = path
    if path in _FIELDS and not (value is None and block == ["sim"]):
        if not isinstance(value, dict):
            raise ConfigError(f"{'.'.join(path)}: expected a JSON object, got {value!r}")
        if block == ["sim"]:
            cfg["sim"][field] = {}
        for key, v in value.items():
            _set(cfg, (*path, key), v)
        return
    if field not in _FIELDS.get(tuple(block), ()):
        raise ConfigError(f"{'.'.join(path)}: unknown config field")
    if path == ("artifact",) and not isinstance(value, (str, type(None))):
        raise ConfigError(f"{'.'.join(path)}: must be a path or null, got {value!r}")
    if path == ("sim", "n") and isinstance(value, (int, float)):
        value = [value]
    node = cfg
    for part in block:
        if node[part] is None:
            node[part] = {}
        node = node[part]
    node[field] = value


def _merge_config(path: Optional[str], settings) -> dict:
    """The defaults, then the JSON file at `path`, then the (field path, value) settings."""
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
        except OSError as exc:
            raise ConfigError(f"config: {path}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not text
            raise ConfigError(f"config: {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config: {path}: top level must be a JSON object")
        settings = [*(((key,), v) for key, v in loaded.items()), *settings]
    for field, value in settings:
        _set(cfg, field, value)
    return cfg


def _channel_from(block: dict, name: str):
    """(ChannelSpec, sigma2) from a channel-shaped dict; errors name it `name`."""
    kind = block.get("kind", "rayleigh")
    with _field(f"{name}.gamma_dB"):
        sigma2 = sigma_from_snr(block.get("gamma_dB"))
    if kind == "rayleigh":
        return Rician(-math.inf), sigma2
    if kind == "rician":
        k_db = block.get("K_dB")
        if k_db is None:
            raise ConfigError(f"{name}.K_dB: required for kind 'rician'")
        with _field(f"{name}.K_dB"):
            return Rician(k_db), sigma2
    if kind == "nakagami":
        m = block.get("m")
        if m is None:
            raise ConfigError(f"{name}.m: required for kind 'nakagami'")
        with _field(f"{name}.m"):
            return NakagamiReal(m), sigma2
    raise ConfigError(f"{name}.kind: unknown kind {kind!r}")


def _sim_channel(cfg: dict, which: str):
    """(ChannelSpec, sigma2) of sim.true or sim.assumed over the channel block."""
    override = cfg["sim"][which] or {}
    merged = {**cfg["channel"], **{k: v for k, v in override.items() if v is not None}}
    return _channel_from(merged, f"sim.{which}" if override else "channel")


def _box_from(cfg: dict) -> UncertaintyBox:
    """Uncertainty box from +/- dB half-widths around the nominal channel.

    alpha1 and sigma are evaluated at the four (K +/- a_K, gamma +/- a_g)
    corners and the enclosing interval is taken.  Without a finite K there
    is no K to widen, so an explicit nonzero a_K_dB is refused there.
    """
    ch = cfg["channel"]
    d = cfg["design"]

    def width(key):
        """(field, value) of a half-width, read from `key` or, when unset, a_dB."""
        key = key if d[key] is not None else "a_dB"
        if d[key] is None:
            raise ConfigError("design.a_dB: required for method 'robust' unless both "
                              "a_K_dB and a_gamma_dB are set")
        with _field(f"design.{key}"):
            return f"design.{key}", check_number(d[key], key, -math.inf, math.inf)

    k_field, a_k = width("a_K_dB")
    g_field, a_g = width("a_gamma_dB")
    nominal, _ = _channel_from(ch, "channel")
    finite_k = isinstance(nominal, Rician) and math.isfinite(nominal.K_db)
    if k_field == "design.a_K_dB" and a_k != 0.0 and not finite_k:
        raise ConfigError(f"{k_field}: the channel has no finite K-factor to widen, got {a_k!r}")
    gamma = float(ch["gamma_dB"])
    with _field(k_field):
        corners = [Rician(nominal.K_db + dk) for dk in (-a_k, a_k)] if finite_k else [nominal]
        alphas = [alpha1(corner) for corner in corners]
    with _field(g_field):
        sigmas = [math.sqrt(sigma_from_snr(gamma + dg)) for dg in (-a_g, a_g)]
        return UncertaintyBox(min(alphas), max(alphas), min(sigmas), max(sigmas))


def _design_from(cfg: dict):
    """Run the configured design. Returns (outcome_or_None, constellation_or_None)."""
    d = cfg["design"]
    channel, sigma2 = _channel_from(cfg["channel"], "channel")
    method = d["method"]
    dcfg = DesignConfig(L=_json_int(d["L"]), power_budget=d["budget"])
    if method in ("exact", "moments", "robust"):
        box = _box_from(cfg) if method == "robust" else None
        if method == "exact":
            out = design_exact(channel, sigma2, dcfg)
        elif method == "moments":
            out = design_moments(alpha1(channel), sigma2, dcfg)
        else:
            out = design_robust(box, dcfg)
        return out, out.constellation
    if method == "mindist":
        return None, min_distance_constellation(dcfg.L, sigma2)
    if method == "ask":
        return None, ask_constellation(dcfg.L, sigma2)
    raise ConfigError(f"design.method: unknown method {method!r}")


def _constellation_from(cfg: dict) -> Constellation:
    """The constellation a run decodes: the design artifact's when `artifact`
    is set, the configured design's otherwise; either must be feasible."""
    path = cfg["artifact"]
    if path is None:
        outcome, constellation = _design_from(cfg)
        if outcome is not None and not outcome.feasible:
            raise ConfigError("design.method: the configured design is infeasible")
        return constellation
    with _field("artifact"):
        try:
            with open(path) as fh:
                record = json.load(fh)
            if not record.get("feasible", True):
                raise ConfigError(f"artifact: {path} records an infeasible design")
            boundaries = record.get("boundaries")
            return Constellation(
                tuple(record["levels"]),
                record["sigma2_design"],
                tuple(boundaries) if boundaries else None,
            )
        except OSError as exc:
            raise ConfigError(f"artifact: cannot read {path}: {exc.strerror}") from None
        except (AttributeError, KeyError, TypeError):
            raise ConfigError(f"artifact: {path} is not a design artifact") from None


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
    else:
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
    _emit(text, out_path)


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write text to stdout, or to out_path (--out) when one is given."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out_path!r}: {exc.strerror}") from None


def cmd_design(cfg: dict, out_path: Optional[str]) -> int:
    outcome, constellation = _design_from(cfg)
    feasible = outcome is None or outcome.feasible
    record = {
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "method": cfg["design"]["method"],
        "feasible": feasible,
    }
    if feasible:
        record["levels"] = list(constellation.levels)
        record["sigma2_design"] = constellation.sigma2_design
        record["boundaries"] = (
            list(constellation.boundaries) if constellation.boundaries else None
        )
        if outcome is not None:
            record["t_star"] = outcome.t_star
            record["mean_power"] = outcome.mean_power
            record["boundary_exponents"] = [list(pair) for pair in outcome.boundary_exponents]
    if outcome is not None:
        record["iterations"] = outcome.iterations
    _emit(json.dumps(record, indent=2, default=str) + "\n", out_path)
    return 0 if feasible else 2


def _antenna_counts(cfg: dict) -> list:
    """sim.n as a nonempty list of antenna counts."""
    with _field("sim.n"):
        counts = [
            check_number(_json_int(n), "n", *ANTENNA_RANGE, whole=True) for n in cfg["sim"]["n"]
        ]
    if not counts:
        raise ConfigError(f"sim.n: must list at least one antenna count, got {cfg['sim']['n']!r}")
    return counts


def cmd_evaluate(cfg: dict, out_path: Optional[str]) -> int:
    if cfg["artifact"] is None:
        raise ConfigError("artifact: evaluate requires a constellation artifact")
    constellation = _constellation_from(cfg)
    with _field("artifact"):
        EnergyRegions(constellation)  # the bounds are those of its energy regions
    channel, sigma2 = _channel_from(cfg["channel"], "channel")
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


def _scenario_from(cfg: dict, constellation: Optional[Constellation], n: int) -> SimScenario:
    sim = cfg["sim"]
    true_channel, true_sigma2 = _sim_channel(cfg, "true")
    assumed_channel, assumed_sigma2 = _sim_channel(cfg, "assumed")
    assumed = dict(mu=assumed_channel.mu, sigma_h2=assumed_channel.sigma_h2, sigma2=assumed_sigma2)
    scheme = sim["scheme"]
    if scheme == "energy":
        with _field("sim.scheme"):
            decoder = EnergyRegions(constellation)
    elif scheme in ("noncoherent_ml", "ask_energy_ml"):
        # The zero-mean receivers refuse levels whose assumed variances tie.
        with _field("artifact" if cfg["artifact"] is not None else "sim.scheme"):
            if scheme == "noncoherent_ml":
                decoder = NoncoherentML(constellation.levels, **assumed)
            else:
                decoder = EnergyMLAsk(constellation.levels, **assumed, n=n)
    elif scheme == "pilot_pam":
        decoder = PilotPAM(
            amplitudes=pam_constellation(_json_int(cfg["design"]["L"])).amplitudes,
            **assumed,
            coherence_slots=_json_int(sim["T"]),
            pilot_slots=_json_int(sim["T_l"]),
            pilot_power=sim["pilot_power"],
        )
    else:
        raise ConfigError(f"sim.scheme: unknown scheme {scheme!r}")
    return SimScenario(
        true_channel=true_channel,
        true_sigma2=true_sigma2,
        decoder=decoder,
        n=n,
        symbols=_json_int(sim["symbols"]),
        seed=_json_int(sim["seed"]),
        shards=_json_int(sim["shards"]),
    )


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
    """The sweep-n row of the first antenna count in sim.n."""
    return cmd_sweep_n(cfg, out_path, max_rows=1)


def cmd_sweep_n(cfg: dict, out_path: Optional[str], max_rows: Optional[int] = None) -> int:
    # Pilot PAM's amplitudes come from design.L alone, so it reads no constellation.
    constellation = None if cfg["sim"]["scheme"] == "pilot_pam" else _constellation_from(cfg)
    rows = []
    for n in _antenna_counts(cfg)[:max_rows]:
        report = simulate(_scenario_from(cfg, constellation, n))
        rows.append(_report_row(n, report))
    _write_rows(cfg, _SWEEP_COLUMNS, rows, out_path)
    return 0


def cmd_min_antennas(cfg: dict, out_path: Optional[str]) -> int:
    sim = cfg["sim"]
    constellation = None if sim["scheme"] == "pilot_pam" else _constellation_from(cfg)
    template = _scenario_from(cfg, constellation, 1)
    n_star = min_antennas(template, sim["target_ber"], _json_int(sim["n_max"]))
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
    constellation = _constellation_from(cfg)
    with _field("design.method" if cfg["artifact"] is None else "artifact"):
        EnergyRegions(constellation)
    channel, sigma2 = _sim_channel(cfg, "true")
    n = _antenna_counts(cfg)[0]
    result = histogram(
        constellation, channel, sigma2, n=n, trials=_json_int(sim["trials"]),
        bins=_json_int(sim["bins"]), seed=_json_int(sim["seed"]),
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


def _parse_argv(argv: list):
    """(command, paths, settings) from argv: the command, then flags in order.

    paths holds the verbatim values of --config and --out; settings lists the
    (field path, value) pairs of every other flag, shorthands resolved.
    """
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        commands = ", ".join(_COMMANDS)
        raise ConfigError(f"the command comes first, one of {commands}; got {command!r}")
    paths, settings = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, raw = token.partition("=")
        name = _SHORTHANDS.get(flag[2:], flag[2:])
        known = "." in name or name in ("config", "out", "artifact")
        if not (flag.startswith("--") and known):
            raise ConfigError(f"unrecognized argument {token!r}")
        if not eq:
            raw = next(tokens, None)
            if raw is None:
                raise ConfigError(f"missing value for {token!r}")
        if name in ("config", "out"):
            paths[name] = raw
        else:
            value = raw if name == "artifact" else _parse_scalar(raw)
            settings.append((tuple(name.split(".")), value))
    return command, paths, settings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    try:
        command, paths, settings = _parse_argv(argv)
        cfg = _merge_config(paths.get("config"), settings)
        fmt = cfg["output"]["format"]
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format: must be 'csv' or 'json', got {fmt!r}")
        return _COMMANDS[command](cfg, paths.get("out"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        if exc.field not in _PARAM_FIELDS:
            raise
        print(f"config error: {_PARAM_FIELDS[exc.field]}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
