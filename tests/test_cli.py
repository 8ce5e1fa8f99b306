from __future__ import annotations

import copy
import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from dimspectra.cli import (
    COMMANDS,
    _DISPATCH,
    _apply_override,
    build_map_from,
    build_potential_from,
    emit_csv,
    load_config,
    main,
    parse_config,
    serialize_config,
    sha256,
)
from dimspectra.errors import ConfigError, DimspectraError, IoError

LOG2 = math.log(2.0)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OUT_DIR = CONFIG_DIR.parent / "out"


def base_config(tmp_path: Path, **command) -> dict:
    cmd = {
        "name": "bcurve",
        "a_grid": {"start": -1.0, "stop": 1.0, "count": 3},
        "tol": 1e-10,
        "max_level": 12,
    }
    cmd.update(command)
    return {
        "map": {"family": "doubling"},
        "potential": {
            "kind": "locally_constant",
            "table": {"0": -LOG2, "1": -LOG2},
        },
        "command": cmd,
        "output": {"csv": str(tmp_path / "out.csv")},
    }


def write_config(tmp_path: Path, data: dict, name: str = "cfg.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_bcurve_run_writes_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main([str(path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "a,b,b_low,b_high,on_ray"
    assert lines[1:] == ["-1,0,0,0,0", "0,1,1,1,0", "1,2,2,2,0"]
    manifest = yaml.safe_load((tmp_path / "out.manifest.yaml").read_text())
    assert manifest["command"] == "bcurve"
    assert manifest["status"] == "ok"
    assert manifest["artifacts"][0]["rows"] == 3
    assert len(manifest["config_sha256"]) == 64


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main([str(path)]) == 0
    first_csv = (tmp_path / "out.csv").read_bytes()
    first_manifest = (tmp_path / "out.manifest.yaml").read_bytes()
    assert main([str(path)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first_csv
    assert (tmp_path / "out.manifest.yaml").read_bytes() == first_manifest


def test_set_overrides(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    other = tmp_path / "other.csv"
    assert (
        main([str(path), "--set", f"output.csv={other}", "--set", "command.a_grid.count=2"])
        == 0
    )
    assert len(other.read_text().splitlines()) == 3


@pytest.mark.parametrize("tol", ["1e-10", "1e-6"])  # the --help example and README's
def test_set_reads_exponent_floats(tmp_path, tol):
    # YAML 1.1 reads 1e-10 (no dot) as a string; an override reads it as
    # the float that 1.0e-10 gives.
    config = CONFIG_DIR / "golden_mean_pressure.yaml"
    bodies = []
    for value in (tol, f"{float(tol):.1e}"):
        out = tmp_path / f"{value}.csv"
        args = [str(config), "--set", f"output.csv={out}", "--set", f"command.tol={value}"]
        assert main(args) == 0
        bodies.append(out.read_text())
    assert bodies[0] == bodies[1]


def test_set_keeps_ints_booleans_and_strings():
    data: dict = {}
    for spec in ("a=8", "b=true", 'c="1e-10"', "d=doubling", "e=inf", "f=1e-6"):
        _apply_override(data, spec)
    assert data == {"a": 8, "b": True, "c": "1e-10", "d": "doubling", "e": math.inf, "f": 1e-6}
    assert [type(data[k]) for k in "abcf"] == [int, bool, str, float]


def test_unknown_keys_rejected(tmp_path, capsys):
    for mutate, key in (
        (lambda d: d.update(extra=1), "config.extra"),
        (lambda d: d["map"].update(slope=2), "map.slope"),
        (lambda d: d["command"].update(depth=3), "command.depth"),
        (lambda d: d["output"].update(json=True), "output.json"),
        (lambda d: d["command"]["a_grid"].update(step=0.1), "command.a_grid.step"),
    ):
        data = base_config(tmp_path)
        mutate(data)
        path = write_config(tmp_path, data)
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert key in err


@pytest.mark.parametrize("config, overrides, key", [
    ("doubling_uniform_bcurve", ["potential.coefficient=-5.0"], "potential.coefficient"),
    ("doubling_uniform_bcurve", ["potential.kind=geometric", "potential.coefficient=-1",
                                 "potential.depth=null"], "potential.table"),
    ("doubling_uniform_bcurve", ["potential.kind=geometric", "potential.coefficient=-1",
                                 "potential.table=null"], "potential.depth"),
])
def test_potential_keys_of_the_other_kind_rejected(tmp_path, capsys, config, overrides, key):
    # The keys a potential allows depend on its kind, as map keys depend
    # on the family: a key of the other kind is an error, not dropped.
    args = [str(CONFIG_DIR / f"{config}.yaml"), "--set", f"output.csv={tmp_path / 'x.csv'}"]
    for spec in overrides:
        args += ["--set", spec]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and f"unknown key {key}" in err
    assert not (tmp_path / "x.csv").exists()


def test_null_potential_key_switches_kind(tmp_path):
    # A null value counts as absent: nulling the table (and depth) switches
    # a shipped table config to a geometric potential, and the run is the
    # one a config written with that potential gives.
    config = CONFIG_DIR / "doubling_uniform_bcurve.yaml"
    switched, written = tmp_path / "switched.csv", tmp_path / "written.csv"
    args = [str(config), "--set", f"output.csv={switched}", "--set", "potential.kind=geometric",
            "--set", "potential.coefficient=-1", "--set", "potential.table=null",
            "--set", "potential.depth=null"]
    assert main(args) == 0
    data = yaml.safe_load(config.read_text(encoding="utf-8"))
    data["potential"] = {"kind": "geometric", "coefficient": -1.0}
    data["output"] = {"csv": str(written)}
    assert main([str(write_config(tmp_path, data))]) == 0
    assert switched.read_bytes() == written.read_bytes()


def test_range_validation(tmp_path, capsys):
    cases = (
        ({"tol": -1.0}, "command.tol"),
        ({"max_level": 0}, "command.max_level"),
        ({"a_grid": {"start": 0.0, "stop": 1.0, "count": 0}}, "count"),
    )
    for patch, needle in cases:
        data = base_config(tmp_path, **patch)
        path = write_config(tmp_path, data)
        assert main([str(path)]) == 1
        assert needle in capsys.readouterr().err


def test_missing_potential_table_word(tmp_path, capsys):
    data = base_config(tmp_path)
    del data["potential"]["table"]["1"]
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 1
    assert "InadmissibleSupport" in capsys.readouterr().err


def test_overlapping_linear_markov_validates_to_error(tmp_path, capsys):
    data = {
        "map": {
            "family": "linear_markov",
            "branches": [
                {"domain": [0.0, 0.6], "image": [0.0, 1.0], "orientation": 1},
                {"domain": [0.5, 1.0], "image": [0.0, 1.0], "orientation": 1},
            ],
        },
        "potential": {"kind": "geometric", "coefficient": -1.0},
        "command": {"name": "validate"},
        "output": {},
    }
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 1
    assert "MarkovViolation" in capsys.readouterr().err


def test_validate_prints_summary(tmp_path, capsys):
    data = {
        "map": {"family": "golden_mean"},
        "potential": {"kind": "geometric", "coefficient": -1.0},
        "command": {"name": "validate"},
        "output": {},
    }
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "family: golden_mean" in out
    assert "full_shift: False" in out


@pytest.mark.parametrize("s", [5.0, 1000.0])
def test_validate_builds_mp_for_large_s(tmp_path, s):
    # |T'| = 1 only at the neutral fixed point 0, however flat T is there.
    data = {
        "map": {"family": "manneville_pomeau", "s": s},
        "potential": {"kind": "geometric", "coefficient": -1.0},
        "command": {"name": "validate"},
        "output": {"csv": str(tmp_path / "v.csv")},
    }
    assert main([str(write_config(tmp_path, data))]) == 0
    assert "parabolic_orbits,1\n" in (tmp_path / "v.csv").read_text()


def test_starved_run_exits_two_with_enclosure(tmp_path, capsys):
    data = {
        "map": {"family": "golden_mean"},
        "potential": {
            "kind": "locally_constant",
            "table": {"0": 0.0, "1": 0.0},
        },
        "command": {"name": "pressure", "tol": 1e-13, "max_level": 4},
        "output": {"csv": str(tmp_path / "p.csv")},
    }
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 2
    rows = (tmp_path / "p.csv").read_text().splitlines()
    assert rows[1].endswith("enclosure")
    manifest = yaml.safe_load((tmp_path / "p.manifest.yaml").read_text())
    assert manifest["status"] == "enclosure"
    truth = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    _, lower, upper, _, _ = rows[1].split(",")
    assert float(lower) <= truth <= float(upper)


def test_starved_spectrum_exits_two_naming_the_first_a(tmp_path, capsys):
    # No b(a) on the golden mean with a Bernoulli weight converges by level
    # 8.  Every search asks first for the same a, the first golden point of
    # [-4, 4], so that is the solve whose NotConverged ends the command.
    data = {
        "map": {"family": "golden_mean"},
        "potential": {
            "kind": "locally_constant",
            "table": {"0": math.log(0.25), "1": math.log(0.75)},
        },
        "command": {
            "name": "spectrum",
            "alpha_grid": {"start": 0.5, "stop": 1.5, "count": 3},
            "tol": 1e-8,
            "max_level": 8,
        },
        "output": {"csv": str(tmp_path / "s.csv")},
    }
    assert main([str(write_config(tmp_path, data))]) == 2
    first = 4.0 - (math.sqrt(5.0) - 1.0) / 2.0 * 8.0
    err = capsys.readouterr().err
    assert err.startswith(f"dimspectra: error: NotConverged: b({round(first, 12):g}) not within")


def test_bcurve_failed_bracket_expansion_writes_nan_row(tmp_path, capsys):
    # b(1e20) = 1 + 1e20 lies past the bracket expansion's reach: its row is
    # nan, the other row is solved, and the run exits 2.
    data = base_config(tmp_path, a_grid={"start": 0.0, "stop": 1.0e20, "count": 2})
    assert main([str(write_config(tmp_path, data))]) == 2
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[1:] == ["0,1,1,1,0", "1e+20,nan,nan,nan,0"]
    manifest = yaml.safe_load((tmp_path / "out.manifest.yaml").read_text())
    assert manifest["status"] == "enclosure"
    assert manifest["artifacts"][0]["max_bracket_width"] == 0.0
    assert "Traceback" not in capsys.readouterr().err


def test_bcurve_failed_ray_start_writes_nan_rows(tmp_path, capsys):
    # configs/mp_ray_bcurve.yaml starved: the ray start a = -dim Lambda
    # (a Bowen root) does not converge by level 2.  No b(a) has a bracket
    # then, so every row is nan rather than the Bowen root's bracket, and
    # the run exits 2.
    data = yaml.safe_load((CONFIG_DIR / "mp_ray_bcurve.yaml").read_text())
    data["command"].update(tol=1e-15, max_level=2)
    data["output"] = {"csv": str(tmp_path / "ray.csv")}
    assert main([str(write_config(tmp_path, data))]) == 2
    lines = (tmp_path / "ray.csv").read_text().splitlines()
    a_values = ["-2", "-1.5", "-1", "-0.5", "0", "0.5", "1"]
    assert lines[1:] == [f"{a},nan,nan,nan,0" for a in a_values]
    manifest = yaml.safe_load((tmp_path / "ray.manifest.yaml").read_text())
    assert manifest["status"] == "enclosure"
    assert "max_bracket_width" not in manifest["artifacts"][0]


def test_induce_positive_potential_is_typed_error(tmp_path, capsys):
    data = {
        "map": {"family": "farey"},
        "potential": {
            "kind": "locally_constant",
            "depth": 1,
            "normalize": False,
            "table": {"0": 0.1, "1": -0.5},
        },
        "command": {
            "name": "induce",
            "truncation": 40,
            "a_grid": {"start": 0.0, "stop": 1.0, "count": 3},
        },
        "output": {"csv": str(tmp_path / "i.csv")},
    }
    assert main([str(write_config(tmp_path, data))]) == 1
    err = capsys.readouterr().err
    assert "NotStrictlyNegative" in err and "Traceback" not in err


def test_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.yaml")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("map: [unclosed", encoding="utf-8")
    assert main([str(path)]) == 1
    assert "not valid YAML" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("dimspectra ")


def _shipped_fields(manifest: Path) -> dict:
    """A manifest without the key that depends on the host (`versions`)."""
    data = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    del data["versions"]
    return data


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.stem
)
def test_spectrum_config_reproduces_shipped_csv(tmp_path, monkeypatch, config):
    # Every shipped config converges (exit 0) and writes its out/ CSV bytes
    # and manifest, so a change that moves a shipped number fails here, not
    # only in the benchmark's sweep.  The run writes to the config's own
    # relative paths, under tmp_path, so its manifest names the same paths
    # and carries the same config_sha256 as the shipped one.
    monkeypatch.chdir(tmp_path)
    assert main([str(config)]) == 0
    out = tmp_path / "out" / f"{config.stem}.csv"
    regenerate = (
        f"if the change is intended, regenerate it from the repository root "
        f"with `dimspectra {config.relative_to(CONFIG_DIR.parent)}`"
    )
    assert out.read_bytes() == (OUT_DIR / f"{config.stem}.csv").read_bytes(), (
        f"{config.name} no longer reproduces out/{config.stem}.csv; {regenerate}"
    )
    shipped = OUT_DIR / f"{config.stem}.manifest.yaml"
    written = _shipped_fields(out.with_suffix(".manifest.yaml"))
    assert written == _shipped_fields(shipped), (
        f"{config.name} no longer reproduces {shipped.name}; {regenerate}"
    )
    canonical = serialize_config(load_config(config)).encode("utf-8")
    assert written["config_sha256"] == hashlib.sha256(canonical).hexdigest()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=10_000))
def test_config_digest_is_sha256(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_a_run_loads_no_openssl(tmp_path):
    # Importing hashlib loads OpenSSL's libcrypto (about 3.6 MB resident)
    # into every process; the manifest digest needs none of it.
    config = CONFIG_DIR / "golden_mean_pressure.yaml"
    argv = [str(config), "--set", f"output.csv={tmp_path / 'x.csv'}"]
    script = (
        f"import sys; from dimspectra.cli import main; code = main({argv!r}); "
        "print(code, sorted({'hashlib', '_hashlib', '_ssl'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(CONFIG_DIR.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "x.csv").read_bytes() == (OUT_DIR / "golden_mean_pressure.csv").read_bytes()


def _bernoulli_b(a: float, log_p: float, log_q: float) -> float:
    """Closed-form b(a) for the doubling map with a Bernoulli potential: the
    root of a log 2 + log(p^b + q^b) = 0, which is convex and decreasing in
    b, by Newton to rounding."""
    b = 1.0 + a
    for _ in range(100):
        wp, wq = math.exp(b * log_p), math.exp(b * log_q)
        step = (a * LOG2 + math.log(wp + wq)) * (wp + wq) / (wp * log_p + wq * log_q)
        b -= step
        if abs(step) <= 1e-16 * abs(b):
            break
    return b


def test_spectrum_rows_solve_b_at_the_printed_a(tmp_path):
    # Each row's b bracket belongs to the a printed beside it: the closed-form
    # b at that a lies inside it to the bisection's xtol.
    config = CONFIG_DIR / "doubling_bernoulli_spectrum.yaml"
    table = yaml.safe_load(config.read_text(encoding="utf-8"))["potential"]["table"]
    out = tmp_path / "s.csv"
    assert main([str(config), "--set", f"output.csv={out}"]) == 0
    with out.open(encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 50
    for row in rows:
        b = _bernoulli_b(float(row["a"]), table["0"], table["1"])
        assert float(row["b_low"]) - 1e-13 <= b <= float(row["b_high"]) + 1e-13, row
        alpha, a = float(row["alpha"]), float(row["a"])
        assert float(row["f"]) == alpha * float(row["b"]) - a
        assert float(row["f_low"]) == alpha * float(row["b_low"]) - a


def test_shipped_configs_round_trip():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 8
    for path in paths:
        cfg = load_config(path)
        text = serialize_config(cfg)
        again = parse_config(yaml.safe_load(text))
        assert serialize_config(again) == text


def test_emit_csv_formatting(tmp_path):
    out = tmp_path / "t.csv"
    emit_csv(
        ["x", "flag", "n", "y"],
        [[0.1, True, 3, math.inf], [-1.5, False, -2, math.nan]],
        out,
        precision=17,
    )
    text = out.read_text()
    assert text.endswith("\n")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[1] == "0.10000000000000001,1,3,inf"
    assert lines[2] == "-1.5,0,-2,nan"


EDGE_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.0 / 3.0]


@pytest.mark.parametrize(
    "precision, want",
    [
        (17, "inf,-inf,nan,-0,4.9406564584124654e-324,0.33333333333333331"),
        (5, "inf,-inf,nan,-0,4.9407e-324,0.33333"),
    ],
    ids=["17", "5"],
)
def test_emit_csv_float_cells(tmp_path, precision, want):
    # Cells pinned as the renderer with its own inf/nan branch printed
    # them; at 17 digits every finite cell reads back to its float.
    out = tmp_path / "edge.csv"
    emit_csv([f"c{i}" for i in range(len(EDGE_FLOATS))], [EDGE_FLOATS], out, precision=precision)
    cells = out.read_text(encoding="utf-8").splitlines()[1]
    assert cells == want
    if precision == 17:
        for x, cell in zip(EDGE_FLOATS, cells.split(",")):
            if math.isfinite(x):
                assert float(cell).hex() == x.hex()


def test_emit_csv_row_width_check(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(["a", "b"], [[1.0]], tmp_path / "bad.csv")


def test_emit_csv_unwritable_path(tmp_path):
    blocker = tmp_path / "plainfile"
    blocker.write_text("x", encoding="utf-8")
    with pytest.raises(IoError):
        emit_csv(["a"], [[1.0]], blocker / "sub.csv")


def test_spectrum_command_artifact(tmp_path):
    data = {
        "map": {"family": "doubling"},
        "potential": {
            "kind": "locally_constant",
            "table": {"0": math.log(0.25), "1": math.log(0.75)},
        },
        "command": {
            "name": "spectrum",
            "alpha_grid": {"start": 0.6, "stop": 1.2, "count": 4},
            "tol": 1e-9,
            "max_level": 14,
        },
        "output": {"csv": str(tmp_path / "s.csv")},
    }
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "a,b,b_low,b_high,alpha,f,f_low,f_high"
    assert len(lines) == 5
    manifest = yaml.safe_load((tmp_path / "s.manifest.yaml").read_text())
    assert manifest["checks"]["concavity_margin"] <= 1e-6


def test_endpoints_inf_literal(tmp_path):
    data = {
        "map": {"family": "farey"},
        "potential": {
            "kind": "locally_constant",
            "table": {"0": -LOG2, "1": -LOG2},
        },
        "command": {"name": "endpoints", "level": 6},
        "output": {"csv": str(tmp_path / "e.csv")},
    }
    path = write_config(tmp_path, data)
    assert main([str(path)]) == 0
    body = (tmp_path / "e.csv").read_text()
    assert "inf" in body.splitlines()[1]


LINEAR_MARKOV = (
    "map.branches=[{domain: [0.0, 0.5], image: [0.0, 1.0]},"
    " {domain: [0.5, 1.0], image: [0.0, 1.0]}]"
)
DECLARED = ("potential.envelope.mode=declared", "potential.envelope.c=1.0",
            "potential.envelope.gamma=1.0")


@pytest.mark.parametrize("config, overrides, needle", [
    # non-finite integers
    ("doubling_bernoulli_spectrum", ["potential.depth=.inf"], "potential.depth"),
    ("doubling_bernoulli_spectrum", ["potential.depth=.nan"], "potential.depth"),
    ("farey_endpoints", ["command.level=.inf"], "command.level"),
    ("farey_endpoints", ["command.level=.nan"], "command.level"),
    ("farey_endpoints", ["output.precision=.inf"], "output.precision"),
    ("farey_endpoints", ["output.precision=.nan"], "output.precision"),
    # unhashable family
    ("farey_endpoints", ["map.family=[farey]"], "map.family"),
    ("farey_endpoints", ["map.family={farey: 1}"], "map.family"),
    # non-finite map parameters
    ("mp_ray_bcurve", ["map.s=.inf"], "map.s"),
    ("mp_ray_bcurve", ["map.s=.nan"], "map.s"),
    ("two_slopes_blockopt", ["map.slopes=[2.0, .inf]"], "map.slopes[1]"),
    ("two_slopes_blockopt", ["map.slopes=[.nan, 4.0]"], "map.slopes[0]"),
    ("farey_endpoints", ["map.family=linear_markov",
                         LINEAR_MARKOV.replace("[0.5, 1.0], image", "[0.5, .inf], image")],
     "map.branches[1].domain"),
    ("farey_endpoints", ["map.family=linear_markov",
                         LINEAR_MARKOV.replace("image: [0.0, 1.0]}]", "image: [0.0, .inf]}]")],
     "map.branches[1].image"),
    # branch widths 1/2 + 2/3 exceed [0, 1]
    ("two_slopes_blockopt", ["map.slopes=[2.0, 1.5]"], "map.slopes"),
    # symbols past the branch count, and a word too short for localdim
    ("bernoulli_localdim", ['command.word="0120"'], "command.word has symbol 2"),
    ("farey_induced", ["command.base_symbols=[0, 2]"], "command.base_symbols"),
    ("bernoulli_localdim", ['command.word="010"'], "at least 4 symbols"),
    # unquoted digits are an octal int to YAML: 010101 -> 4161
    ("bernoulli_localdim", ["command.word=010101"], "quote digit words"),
    # a NaN grid end, non-finite table values
    ("doubling_bernoulli_spectrum", ["command.alpha_grid.start=.nan"], "alpha_grid.start"),
    ("doubling_bernoulli_spectrum", ["potential.table.0=.inf"], "potential.table['0']"),
    ("doubling_bernoulli_spectrum", ["potential.table.1=.nan"], "potential.table['1']"),
    # NaN or infinite tolerances and envelope constants
    ("doubling_bernoulli_spectrum", ["command.tol=.nan"], "command.tol"),
    ("doubling_bernoulli_spectrum", ["command.refine_tol=.nan"], "command.refine_tol"),
    ("farey_induced", ["command.tail_tol=.nan"], "command.tail_tol"),
    ("bernoulli_localdim", ["command.flag_threshold=.nan"], "command.flag_threshold"),
    ("bernoulli_localdim", [*DECLARED, "potential.envelope.c=.nan"], "potential.envelope.c"),
    ("bernoulli_localdim", [*DECLARED, "potential.envelope.c=.inf"], "potential.envelope.c"),
    ("bernoulli_localdim", [*DECLARED, "potential.envelope.gamma=.nan"],
     "potential.envelope.gamma"),
    # int() would read 0.9 and true as symbols: the word 01011
    ("bernoulli_localdim", ["command.word=[0.9, true, 0, 1, 1.5]"],
     "command.word has a non-integer symbol"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, config, overrides, needle):
    args = [str(CONFIG_DIR / f"{config}.yaml"), "--set", f"output.csv={tmp_path / 'x.csv'}"]
    for spec in overrides:
        args += ["--set", spec]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert needle in err


MP_GEOMETRIC_PRESSURE = {
    "map": {"family": "manneville_pomeau", "s": 0.5},
    "potential": {"kind": "geometric", "coefficient": 1.0},
    "command": {"name": "pressure"},
}


@pytest.mark.parametrize("doc, key", [
    ("golden_mean_pressure", "potential.table.0"),
    (MP_GEOMETRIC_PRESSURE, "potential.coefficient"),
], ids=["table", "coefficient"])
def test_overflowing_potential_is_a_config_error(tmp_path, capsys, doc, key):
    # At 1e308 the level-2 Birkhoff sums overflow to +inf; the parser's
    # 1e300 bound names the key instead of letting log_sum_exp refuse them.
    if isinstance(doc, str):
        path = CONFIG_DIR / f"{doc}.yaml"
    else:
        path = write_config(tmp_path, doc)
    args = [str(path), "--set", f"output.csv={tmp_path / 'x.csv'}"]
    for value, code in (("1.0e308", 1), ("-1.0e308", 1), ("1.0e300", 0)):
        assert main(args + ["--set", f"{key}={value}"]) == code
        err = capsys.readouterr().err
        if code:
            label = "potential.table['0']" if "table" in key else key
            assert err.startswith(f"dimspectra: error: ConfigError: {label} ")
            assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", ["-1.0e300", "-1.0e200"])
def test_overflowing_blockopt_trial_is_a_stalled_newton(tmp_path, capsys, value):
    # Inside the 1e300 bound a line-search trial's a*psi + b*phi can
    # overflow; the trial counts as no decrease, and the stalled solve is
    # one typed error line.
    args = [
        str(CONFIG_DIR / "two_slopes_blockopt.yaml"),
        "--set", f"output.csv={tmp_path / 'x.csv'}",
        "--set", f"potential.table.0={value}",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "dimspectra: error: NotConverged: block weights at alpha = 1, level 6: "
        "Newton stalled at residual "
    )
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value, residual", [("-1.0e100", "5.51e+93"), ("-1.0e50", "5.51e+43")])
def test_blockopt_at_a_large_finite_potential_fails_typed(tmp_path, capsys, value, residual):
    # No trial overflows here: the Newton's step falls below its size test
    # while the constraint is still 1e43 and more off, far above the
    # logits' rounding floor, and a row whose alpha bracket misses alpha = 1
    # was written.  That exit now meets the floor or is one typed line.
    args = [
        str(CONFIG_DIR / "two_slopes_blockopt.yaml"),
        "--set", f"output.csv={tmp_path / 'x.csv'}",
        "--set", f"potential.table.0={value}",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == (
        "dimspectra: error: NotConverged: block weights at alpha = 1, level 6: "
        f"Newton stalled at residual {residual}\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_every_command_is_dispatched():
    assert sorted(_DISPATCH) == sorted(COMMANDS)


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


_DELETE = object()
FUZZ_VALUES = (_DELETE, math.inf, math.nan, -1, 0, 1e300, 2**70, "", [], {}, None, True)


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIG_DIR.glob("*.yaml")))
def test_mutated_shipped_configs_fail_typed(config):
    raw = yaml.safe_load((CONFIG_DIR / f"{config}.yaml").read_text(encoding="utf-8"))
    maps = {}
    for path in _leaves(raw):
        for value in FUZZ_VALUES:
            data = copy.deepcopy(raw)
            node = data
            for key in path[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            try:
                cfg = parse_config(data)
                key = serialize_config(cfg)
                if key not in maps:
                    maps[key] = build_map_from(cfg)
                build_potential_from(cfg, maps[key])
            except DimspectraError:
                pass
