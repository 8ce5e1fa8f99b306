"""Config-driven command dispatch and CSV/manifest emission.

A run is described by one YAML document with four sections: ``map`` (branch
family and parameters), ``potential`` (kind plus table or coefficient, and
an optional weak-Gibbs envelope), ``command`` (which computation to run and
its numeric parameters), ``output`` (artifact paths and float precision).
Command-line flags only pick the config file and apply dotted-key
overrides; every numeric decision lives in the document so a run is
reproducible from the document alone.

Exit codes: 0 on success, 2 when a result converged only to an enclosure
wider than requested (the enclosure is still written), 1 on validation or
configuration errors.  All artifacts are deterministic: identical config
and seed give byte-identical bytes, there are no timestamps, and floats
are printed at fixed significance.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import yaml

from .errors import (
    ConfigError,
    DimspectraError,
    IoError,
    NotConverged,
)
from .finite_measures import block_objective, optimize_block_weights
from .induced import build_induced, induced_b_curve
from .maps import (
    Branch,
    MarkovMap,
    build_map,
    doubling_map,
    farey_map,
    golden_mean_map,
    linear_full_branch_map,
    manneville_pomeau_map,
)
from .pressure import Enclosure, normalize_potential, pressure
from .spectrum import b_curve, legendre_spectrum, spectrum_endpoints
from .symbolic import Potential, geometric, locally_constant, validate_potential
from .weak_gibbs import declared_model, exact_model, local_dimension
from . import __version__

_FAMILIES = {
    "doubling": (),
    "linear_full_branch": ("slopes",),
    "linear_markov": ("branches", "transition"),
    "golden_mean": (),
    "manneville_pomeau": ("s",),
    "farey": (),
}


# ---------------------------------------------------------------------------
# Config schema


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized run description.

    The four dicts hold only YAML-safe primitives, with defaults filled in,
    so ``serialize`` -> ``parse`` is the identity on a parsed config.
    """

    map: dict = field(default_factory=dict)
    potential: dict = field(default_factory=dict)
    command: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def to_mapping(self) -> dict:
        return {
            "map": dict(self.map),
            "potential": dict(self.potential),
            "command": dict(self.command),
            "output": dict(self.output),
        }


def _expect_mapping(obj: Any, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(d: dict, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}")


def _finite(value: Any, label: str) -> float:
    """The one number rule: an int or float, not a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number")
    if not abs(value) <= sys.float_info.max:  # inf, nan, or an int past float range
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return float(value)


def _get_number(
    d: dict,
    key: str,
    path: str,
    *,
    default: float | None = None,
    integer: bool = False,
    minimum: float | None = None,
    maximum: float | None = None,
    strict_min: bool = False,
) -> Any:
    if key not in d or d[key] is None:
        if default is None and key not in d:
            raise ConfigError(f"{path}.{key} is required")
        value = default
    else:
        value = d[key]
    _finite(value, f"{path}.{key}")
    if integer:
        if float(value) != int(value):
            raise ConfigError(f"{path}.{key} must be an integer")
        value = int(value)
    else:
        value = float(value)
    if minimum is not None and (value <= minimum if strict_min else value < minimum):
        op = ">" if strict_min else ">="
        raise ConfigError(f"{path}.{key} must be {op} {minimum:g}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key} must be <= {maximum:g}")
    return value


def _parse_word(text: Any, path: str) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    elif isinstance(text, str):
        items = text.split(",") if "," in text else list(text)
    else:
        # YAML reads unquoted digits as a number, and 010101 as octal 4161.
        raise ConfigError(f"{path} must be a list or a quoted symbol string: quote digit words")
    # int() alone would read 0.9 and true as symbols 0 and 1
    if not all(type(s) is int or isinstance(s, str) and s.strip().isdecimal() for s in items):
        raise ConfigError(f"{path} has a non-integer symbol")
    word = tuple(int(s) for s in items)
    if not word or any(s < 0 for s in word):
        raise ConfigError(f"{path} must be nonempty with symbols >= 0")
    return word


def _word_key(word: tuple[int, ...]) -> str:
    if all(s < 10 for s in word):
        return "".join(str(s) for s in word)
    return ",".join(str(s) for s in word)


def _parse_grid(obj: Any, path: str) -> dict:
    g = _expect_mapping(obj, path)
    if not g:
        raise ConfigError(f"{path} is required")
    _reject_unknown(g, ("start", "stop", "count"), path)
    start = _get_number(g, "start", path)
    stop = _get_number(g, "stop", path)
    count = _get_number(g, "count", path, integer=True, minimum=1)
    if stop < start:
        raise ConfigError(f"{path}.stop must be >= {path}.start")
    if count > 100000:
        raise ConfigError(f"{path}.count must be <= 100000")
    return {"start": start, "stop": stop, "count": count}


def _grid_values(grid: dict) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _parse_map_section(obj: Any) -> dict:
    d = _expect_mapping(obj, "map")
    if "family" not in d:
        raise ConfigError("map.family is required")
    family = d["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(
            f"map.family must be one of {', '.join(sorted(_FAMILIES))}; got {family!r}"
        )
    _reject_unknown(d, ("family",) + _FAMILIES[family], "map")
    out: dict = {"family": family}
    if family == "linear_full_branch":
        slopes = d.get("slopes")
        if not isinstance(slopes, list) or len(slopes) < 2:
            raise ConfigError("map.slopes must be a list of at least two numbers")
        vals = [_finite(s, f"map.slopes[{i}]") for i, s in enumerate(slopes)]
        for i, s in enumerate(vals):
            # A branch of width 1/|s| under 1e-15 can vanish next to its
            # neighbour in [0, 1] at float resolution.
            if not 1.0 < abs(s) <= 1e15:
                raise ConfigError(f"map.slopes[{i}] must have absolute value in (1, 1e15]")
        width = sum(1.0 / abs(s) for s in vals)
        if width > 1.0 + 1e-12:
            raise ConfigError(f"map.slopes: the branch widths 1/|s| sum to {width:.6g} > 1")
        out["slopes"] = vals
    elif family == "linear_markov":
        raw = d.get("branches")
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError("map.branches must be a list of at least two branches")
        parsed_branches = []
        for i, spec in enumerate(raw):
            b = _expect_mapping(spec, f"map.branches[{i}]")
            _reject_unknown(b, ("domain", "image", "orientation"), f"map.branches[{i}]")
            entry: dict = {}
            for key in ("domain", "image"):
                iv = b.get(key)
                if not isinstance(iv, list) or len(iv) != 2:
                    raise ConfigError(
                        f"map.branches[{i}].{key} must be a [lo, hi] number pair"
                    )
                lo, hi = (_finite(v, f"map.branches[{i}].{key}") for v in iv)
                if not lo < hi:
                    raise ConfigError(f"map.branches[{i}].{key} must have lo < hi")
                entry[key] = [lo, hi]
            orientation = b.get("orientation", 1)
            if orientation not in (1, -1):
                raise ConfigError(f"map.branches[{i}].orientation must be 1 or -1")
            entry["orientation"] = int(orientation)
            parsed_branches.append(entry)
        out["branches"] = parsed_branches
        if "transition" in d and d["transition"] is not None:
            rows = d["transition"]
            p = len(parsed_branches)
            if (
                not isinstance(rows, list)
                or len(rows) != p
                or any(not isinstance(r, list) or len(r) != p for r in rows)
                or any(v not in (0, 1) for r in rows for v in r)
            ):
                raise ConfigError(f"map.transition must be a {p}x{p} 0/1 matrix")
            out["transition"] = [[int(v) for v in r] for r in rows]
    elif family == "manneville_pomeau":
        # Past s ~ 1e17 the branch split rounds to 1; up to the cap the map
        # builds for every s.
        out["s"] = _get_number(
            d, "s", "map", default=0.5, minimum=0.0, strict_min=True, maximum=1000.0
        )
    return out


# Bounds potential.table values and potential.coefficient, as map.slopes is
# bounded: the Birkhoff sums over any level the word budget allows stay
# finite (at 1e308 a level-2 sum already overflows to +inf).
_POTENTIAL_MAX = 1e300


def _parse_potential_section(obj: Any) -> dict:
    d = _expect_mapping(obj, "potential")
    if not d:
        raise ConfigError("potential.kind is required")
    _reject_unknown(
        d, ("kind", "depth", "table", "coefficient", "normalize", "envelope"),
        "potential",
    )
    kind = d.get("kind")
    if kind not in ("locally_constant", "geometric"):
        raise ConfigError(
            "potential.kind must be locally_constant or geometric; "
            "pointwise potentials are library-only"
        )
    out: dict = {"kind": kind}
    if kind == "locally_constant":
        table = _expect_mapping(d.get("table"), "potential.table")
        if not table:
            raise ConfigError("potential.table is required for locally_constant")
        parsed: dict[tuple[int, ...], float] = {}
        for key, value in table.items():
            word = _parse_word(key, f"potential.table[{key!r}]")
            parsed[word] = _finite(value, f"potential.table[{key!r}]")
            if abs(parsed[word]) > _POTENTIAL_MAX:
                raise ConfigError(f"potential.table[{key!r}] must have absolute value <= 1e300")
        depths = {len(w) for w in parsed}
        if len(depths) != 1:
            raise ConfigError("potential.table words must share one depth")
        depth = _get_number(
            d, "depth", "potential", default=depths.pop(), integer=True, minimum=1,
            maximum=8,
        )
        if any(len(w) != depth for w in parsed):
            raise ConfigError("potential.table words do not match potential.depth")
        out["depth"] = depth
        out["table"] = {_word_key(w): v for w, v in sorted(parsed.items())}
    else:
        out["coefficient"] = _get_number(
            d, "coefficient", "potential", minimum=-_POTENTIAL_MAX, maximum=_POTENTIAL_MAX
        )
    normalize = d.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ConfigError("potential.normalize must be true or false")
    out["normalize"] = normalize
    if "envelope" in d and d["envelope"] is not None:
        env = _expect_mapping(d["envelope"], "potential.envelope")
        _reject_unknown(env, ("mode", "c", "gamma"), "potential.envelope")
        mode = env.get("mode")
        if mode not in ("exact", "declared"):
            raise ConfigError("potential.envelope.mode must be exact or declared")
        parsed_env: dict = {"mode": mode}
        if mode == "declared":
            parsed_env["c"] = _get_number(env, "c", "potential.envelope", minimum=0.0)
            parsed_env["gamma"] = _get_number(
                env, "gamma", "potential.envelope", minimum=0.0, strict_min=True
            )
        out["envelope"] = parsed_env
    return out


_COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    "pressure": ("tol", "max_level"),
    "bcurve": ("a_grid", "tol", "max_level"),
    "spectrum": ("alpha_grid", "a_bracket", "tol", "max_level", "refine_tol"),
    "endpoints": ("level",),
    "blockopt": ("level", "alpha"),
    "localdim": ("word", "flag_threshold"),
    "induce": ("truncation", "base_symbols", "a_grid", "tol", "tail_tol"),
    "validate": (),
}
COMMANDS = tuple(_COMMAND_KEYS)


def _parse_command_section(obj: Any) -> dict:
    d = _expect_mapping(obj, "command")
    name = d.get("name")
    if name not in COMMANDS:
        raise ConfigError(
            f"command.name must be one of {', '.join(COMMANDS)}; got {name!r}"
        )
    _reject_unknown(d, ("name",) + _COMMAND_KEYS[name], "command")
    out: dict = {"name": name}
    if name in ("pressure", "bcurve", "spectrum", "induce"):
        out["tol"] = _get_number(
            d, "tol", "command", default=1e-8, minimum=0.0, strict_min=True
        )
    if name in ("pressure", "bcurve", "spectrum"):
        default_level = 32 if name == "pressure" else 24
        out["max_level"] = _get_number(
            d, "max_level", "command", default=default_level, integer=True, minimum=2
        )
    if name in ("bcurve", "induce"):
        out["a_grid"] = _parse_grid(d.get("a_grid"), "command.a_grid")
    if name == "spectrum":
        out["alpha_grid"] = _parse_grid(d.get("alpha_grid"), "command.alpha_grid")
        bracket = _expect_mapping(d.get("a_bracket"), "command.a_bracket")
        if bracket:
            _reject_unknown(bracket, ("lo", "hi"), "command.a_bracket")
            lo = _get_number(bracket, "lo", "command.a_bracket")
            hi = _get_number(bracket, "hi", "command.a_bracket")
            if hi <= lo:
                raise ConfigError("command.a_bracket.hi must exceed .lo")
            out["a_bracket"] = {"lo": lo, "hi": hi}
        out["refine_tol"] = _get_number(
            d, "refine_tol", "command", default=1e-7, minimum=0.0, strict_min=True
        )
    if name == "endpoints":
        out["level"] = _get_number(
            d, "level", "command", default=8, integer=True, minimum=2, maximum=16
        )
    if name == "blockopt":
        out["level"] = _get_number(
            d, "level", "command", integer=True, minimum=1, maximum=24
        )
        out["alpha"] = _get_number(d, "alpha", "command", minimum=0.0, strict_min=True)
    if name == "localdim":
        if "word" not in d:
            raise ConfigError("command.word is required")
        word = _parse_word(d["word"], "command.word")
        if len(word) < 4:
            raise ConfigError(f"command.word needs at least 4 symbols, got {len(word)}")
        out["word"] = _word_key(word)
        out["flag_threshold"] = _get_number(
            d, "flag_threshold", "command", default=0.01, minimum=0.0, strict_min=True
        )
    if name == "induce":
        out["truncation"] = _get_number(
            d, "truncation", "command", default=40, integer=True, minimum=1
        )
        if "base_symbols" in d and d["base_symbols"] is not None:
            syms = d["base_symbols"]
            if not isinstance(syms, list) or not syms:
                raise ConfigError("command.base_symbols must be a nonempty list")
            parsed = []
            for i, s in enumerate(syms):
                if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                    raise ConfigError(
                        f"command.base_symbols[{i}] must be a symbol index >= 0"
                    )
                parsed.append(int(s))
            out["base_symbols"] = parsed
        out["tail_tol"] = _get_number(
            d, "tail_tol", "command", default=0.05, minimum=0.0, strict_min=True
        )
    return out


def _parse_output_section(obj: Any, command: str) -> dict:
    d = _expect_mapping(obj, "output")
    _reject_unknown(d, ("csv", "manifest", "precision"), "output")
    out: dict = {}
    csv = d.get("csv")
    if csv is None:
        if command != "validate":
            raise ConfigError("output.csv is required")
    elif not isinstance(csv, str) or not csv:
        raise ConfigError("output.csv must be a nonempty path string")
    else:
        out["csv"] = csv
    manifest = d.get("manifest")
    if manifest is not None:
        if not isinstance(manifest, str) or not manifest:
            raise ConfigError("output.manifest must be a nonempty path string")
        out["manifest"] = manifest
    elif "csv" in out:
        out["manifest"] = str(Path(out["csv"]).with_suffix(".manifest.yaml"))
    out["precision"] = _get_number(
        d, "precision", "output", default=17, integer=True, minimum=2, maximum=17
    )
    return out


def _check_symbols(cfg: RunConfig) -> None:
    """Every word symbol must index a branch of the map."""
    # The linear families list their branches; the others have two.
    p = len(cfg.map.get("slopes", cfg.map.get("branches", (0, 1))))
    words = {f"potential.table[{k!r}]": k for k in cfg.potential.get("table", {})}
    for key in ("word", "base_symbols"):
        if key in cfg.command:
            words[f"command.{key}"] = cfg.command[key]
    for label, raw in words.items():
        top = max(_parse_word(raw, label))
        if top >= p:
            raise ConfigError(f"{label} has symbol {top}, but the map has {p} branches")


def parse_config(data: Any) -> RunConfig:
    """Validate a raw mapping into a RunConfig; reject unknown keys."""
    d = _expect_mapping(data, "config")
    _reject_unknown(d, ("map", "potential", "command", "output"), "config")
    command = _parse_command_section(d.get("command"))
    cfg = RunConfig(
        map=_parse_map_section(d.get("map")),
        potential=_parse_potential_section(d.get("potential")),
        command=command,
        output=_parse_output_section(d.get("output"), command["name"]),
    )
    _check_symbols(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML rendering; parse(serialize(cfg)) == cfg."""
    return yaml.safe_dump(cfg.to_mapping(), sort_keys=True, default_flow_style=False)


def _read_config(path: str | Path) -> dict:
    """The raw mapping of a YAML config file, before overrides and checks."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return _expect_mapping(data, "config")


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_config(path))


# ---------------------------------------------------------------------------
# Model construction


def build_map_from(cfg: RunConfig) -> MarkovMap:
    section = cfg.map
    family = section["family"]
    if family == "doubling":
        return doubling_map()
    if family == "linear_full_branch":
        return linear_full_branch_map(section["slopes"])
    if family == "linear_markov":
        branches = []
        for spec in section["branches"]:
            (dlo, dhi), (ilo, ihi) = spec["domain"], spec["image"]
            slope = spec["orientation"] * (ihi - ilo) / (dhi - dlo)
            offset = (ilo if spec["orientation"] > 0 else ihi) - slope * dlo
            branches.append(
                Branch("linear", (dlo, dhi), (ilo, ihi), slope=slope, offset=offset)
            )
        return build_map(branches, section.get("transition"))
    if family == "golden_mean":
        return golden_mean_map()
    if family == "manneville_pomeau":
        return manneville_pomeau_map(section["s"])
    return farey_map()


def build_potential_from(cfg: RunConfig, m: MarkovMap) -> Potential:
    section = cfg.potential
    if section["kind"] == "locally_constant":
        table = {
            _parse_word(k, "potential.table"): v for k, v in section["table"].items()
        }
        phi = locally_constant(table, section["depth"])
    else:
        phi = geometric(section["coefficient"])
    validate_potential(m, phi)
    if section["normalize"]:
        phi = normalize_potential(m, phi)
    return phi


def _envelope_model(cfg: RunConfig, m: MarkovMap, phi: Potential):
    env = cfg.potential.get("envelope")
    if env is None:
        raise ConfigError("command.localdim needs potential.envelope")
    if env["mode"] == "exact":
        return exact_model(m, phi)
    return declared_model(m, phi, env["c"], env["gamma"])


# ---------------------------------------------------------------------------
# Artifact emission


def _write_text(path: str | Path, text: str) -> None:
    """The one artifact write (UTF-8, LF line ends, parents made); IoError on failure."""
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {target}: {exc}") from exc


def emit_csv(
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    path: str | Path,
    *,
    precision: int = 17,
) -> None:
    """UTF-8 CSV with '.' decimals, fixed float significance, inf literals.

    Raises:
        IoError: the path cannot be created or written.
    """
    def cell(value: Any) -> str:
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), f".{precision}g")  # also inf, -inf, nan
        return str(value)

    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(cell(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(path: str | Path, payload: dict) -> None:
    _write_text(path, yaml.safe_dump(payload, sort_keys=True, default_flow_style=False))


# ---------------------------------------------------------------------------
# Commands


@dataclass
class _Result:
    header: list[str]
    rows: list[list[Any]]
    status: str = "ok"  # ok | enclosure
    checks: dict = field(default_factory=dict)
    widths: list[float] = field(default_factory=list)

    def cells(self, found: Enclosure | NotConverged | None) -> list[float]:
        """value, lower and upper of a solved number, or of the enclosure a
        NotConverged carries (nan without one; status "enclosure" either
        way), keeping its width for the manifest unless that is nan."""
        if isinstance(found, NotConverged):
            self.status, found = "enclosure", found.enclosure
        if found is None:
            return [math.nan] * 3
        if not math.isnan(found.width):
            self.widths.append(found.width)
        return [found.value, found.lower, found.upper]


def _cmd_pressure(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    res = _Result(["value", "lower", "upper", "level", "mode"], [])
    try:
        p = pressure(m, phi, tol=cmd["tol"], max_level=cmd["max_level"])
    except NotConverged as exc:
        res.status, p = "enclosure", exc.enclosure
    res.rows.append([*res.cells(p), p.level, p.mode])
    return res


def _cmd_bcurve(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    res = _Result(["a", "b", "b_low", "b_high", "on_ray"], [])
    a_values = [float(a) for a in _grid_values(cmd["a_grid"])]
    points = b_curve(m, phi, a_values, tol=cmd["tol"], max_level=cmd["max_level"])
    for a, point in zip(a_values, points):
        on_ray = not isinstance(point, NotConverged) and point.on_ray
        res.rows.append([a, *res.cells(point), on_ray])
    return res


def _cmd_spectrum(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    bracket = cmd.get("a_bracket", {"lo": -4.0, "hi": 4.0})
    curve = legendre_spectrum(
        m, phi, _grid_values(cmd["alpha_grid"]),
        a_lo=bracket["lo"], a_hi=bracket["hi"],
        tol=cmd["tol"], max_level=cmd["max_level"], refine_tol=cmd["refine_tol"],
    )
    res = _Result(
        ["a", "b", "b_low", "b_high", "alpha", "f", "f_low", "f_high"], []
    )
    for pt, alpha, f, f_low, f_high in zip(
        curve.points, curve.alphas, curve.f_values, curve.f_lowers, curve.f_uppers
    ):
        res.rows.append([pt.a, *res.cells(pt), alpha, f, f_low, f_high])
    second = np.diff(np.asarray(curve.f_values), 2)
    res.checks["concavity_margin"] = float(second.max()) if second.size else 0.0
    res.checks["alpha_min"] = float(curve.alpha_min)
    res.checks["alpha_max"] = float(curve.alpha_max)
    return res


def _cmd_endpoints(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    res = _Result(
        [
            "alpha_min", "alpha_min_low", "alpha_min_high",
            "alpha_max", "alpha_max_low", "alpha_max_high",
        ],
        [],
    )
    alpha_min, alpha_max = spectrum_endpoints(m, phi, level=cfg.command["level"])
    res.rows.append([*res.cells(alpha_min), *res.cells(alpha_max)])
    return res


def _cmd_blockopt(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    bm = optimize_block_weights(m, phi, cmd["level"], cmd["alpha"])
    res = _Result(
        [
            "n", "connector_k", "alpha", "objective", "entropy",
            "spread_entropy", "alpha_low", "alpha_high",
            "dim_low", "dim_high", "rho", "lemma_bar",
        ],
        [[
            bm.level, bm.connector_k, cmd["alpha"], block_objective(bm),
            bm.entropy, bm.spread_entropy,
            bm.spread_alpha_bracket[0], bm.spread_alpha_bracket[1],
            bm.spread_dim_bracket[0], bm.spread_dim_bracket[1],
            bm.rho, bm.lemma_bar,
        ]],
    )
    res.widths.append(bm.spread_dim_bracket[1] - bm.spread_dim_bracket[0])
    return res


def _cmd_localdim(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    model = _envelope_model(cfg, m, phi)
    word = _parse_word(cmd["word"], "command.word")
    if not m.admissible(word):
        raise ConfigError(f"command.word {cmd['word']} is not admissible for this map")
    ld = local_dimension(model, m, word, flag_threshold=cmd["flag_threshold"])
    res = _Result(
        [
            "level", "ratio_low", "ratio_high", "cesaro",
            "mass_dim_low", "mass_dim_high", "boundary_min", "flagged",
        ],
        [],
    )
    for i, level in enumerate(ld.levels):
        res.rows.append([
            level, ld.ratio_lo[i], ld.ratio_hi[i], ld.cesaro,
            ld.mass_dim_bracket[0], ld.mass_dim_bracket[1],
            ld.boundary_min, ld.flagged,
        ])
        res.widths.append(float(ld.ratio_hi[i] - ld.ratio_lo[i]))
    res.checks["flagged"] = bool(ld.flagged)
    return res


def _cmd_induce(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    cmd = cfg.command
    base = cmd.get("base_symbols")
    isys = build_induced(
        m, phi, base_symbols=base, truncation=cmd["truncation"]
    )
    res = _Result(["a", "b", "b_low", "b_high", "tail_ratio", "on_ray"], [])
    grid = _grid_values(cmd["a_grid"])
    points = induced_b_curve(isys, grid, tol=cmd["tol"], tail_tol=cmd["tail_tol"])
    for a, point in zip(grid, points):
        if isinstance(point, NotConverged):
            tail = [math.nan, False]
        else:
            tail = [point.tail_ratio, point.on_ray]
        res.rows.append([float(a), *res.cells(point), *tail])
    res.checks["coverage"] = float(isys.coverage)
    res.checks["branches"] = len(isys.branches)
    return res


def _cmd_validate(cfg: RunConfig, m: MarkovMap, phi: Potential) -> _Result:
    res = _Result(
        ["item", "detail"],
        [
            ["family", cfg.map["family"]],
            ["branches", m.p],
            ["full_shift", m.is_full_shift],
            ["parabolic_orbits", len(m.parabolic_orbits)],
            ["potential_kind", phi.kind],
            ["potential_sup", phi.bounds(m)[1]],
        ],
    )
    if cfg.potential.get("envelope"):
        model = _envelope_model(cfg, m, phi)
        res.rows.append(["envelope_mode", model.mode])
    return res


_DISPATCH: dict[str, Callable[[RunConfig, MarkovMap, Potential], _Result]] = {
    "pressure": _cmd_pressure,
    "bcurve": _cmd_bcurve,
    "spectrum": _cmd_spectrum,
    "endpoints": _cmd_endpoints,
    "blockopt": _cmd_blockopt,
    "localdim": _cmd_localdim,
    "induce": _cmd_induce,
    "validate": _cmd_validate,
}


def run(cfg: RunConfig, *, echo: Callable[[str], None] | None = None) -> int:
    """Execute the configured command; write artifacts; return exit status."""
    say = echo if echo is not None else (lambda line: print(line))
    m = build_map_from(cfg)
    phi = build_potential_from(cfg, m)
    name = cfg.command["name"]
    result = _DISPATCH[name](cfg, m, phi)

    artifacts = []
    csv_path = cfg.output.get("csv")
    if csv_path is not None:
        emit_csv(
            result.header, result.rows, csv_path,
            precision=cfg.output["precision"],
        )
        entry: dict[str, Any] = {"path": csv_path, "rows": len(result.rows)}
        if result.widths:
            entry["max_bracket_width"] = float(max(result.widths))
        artifacts.append(entry)
        say(f"{name}: wrote {len(result.rows)} rows to {csv_path}")
    else:
        for item, detail in result.rows:
            say(f"{item}: {detail}")
    manifest_path = cfg.output.get("manifest")
    if manifest_path is not None:
        _write_manifest(
            manifest_path,
            {
                "command": name,
                "config_sha256": hashlib.sha256(
                    serialize_config(cfg).encode("utf-8")
                ).hexdigest(),
                "versions": {
                    "dimspectra": __version__,
                    "python": "%d.%d" % sys.version_info[:2],
                    "numpy": np.__version__,
                    "pyyaml": yaml.__version__,
                },
                "status": result.status,
                "artifacts": artifacts,
                "checks": result.checks,
            },
        )
    if result.status == "enclosure":
        say(f"{name}: converged to enclosures wider than requested (exit 2)")
        return 2
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors: keep exit code 1, reserve 2
    # for valid runs that only reached an enclosure
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _override_value(raw: str):
    """An override's value as YAML reads it, except that an unquoted one
    float() reads is a float: YAML 1.1 reads 1e-10 (no dot) as a string."""
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        return raw
    if isinstance(value, str) and raw.strip()[:1] not in ("'", '"'):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _apply_override(data: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} is not KEY=VALUE")
    key, _, raw_value = spec.partition("=")
    parts = [p for p in key.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"override {spec!r} has an empty key")
    value = _override_value(raw_value)
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        elif not isinstance(nxt, dict):
            raise ConfigError(f"override {spec!r} descends through a scalar")
        node = nxt
    node[parts[-1]] = value


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="dimspectra",
        description="Pressure, dimension-spectrum, and induced-system "
        "computations driven by a YAML config.",
    )
    parser.add_argument("config", help="path to the YAML run configuration")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path config override, e.g. command.tol=1e-10",
    )
    parser.add_argument(
        "--version", action="version", version=f"dimspectra {__version__}"
    )
    args = parser.parse_args(argv)
    try:
        data = _read_config(args.config)
        for spec in args.overrides:
            _apply_override(data, spec)
        cfg = parse_config(data)
        return run(cfg)
    except NotConverged as exc:
        print(f"dimspectra: error: NotConverged: {exc}", file=sys.stderr)
        return 2
    except DimspectraError as exc:
        print(
            f"dimspectra: error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
