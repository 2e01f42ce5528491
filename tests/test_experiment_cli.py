"""Experiment runner, emitters, config files, and CLI exit codes."""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import contamclt.cli as cli
from contamclt import analytic
from contamclt.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, SETTINGS, main
from contamclt.experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_json,
    emit_svg,
    load_tabular_scheme,
    run_experiment,
)
from contamclt.model import ContaminationScheme, SchemeKind

# light grids keep runner tests fast while satisfying grid preconditions
FAST_N_GRID = tuple(500 * 2 ** j for j in range(6))
FAST_EPS_GRID = tuple(float(x) for x in np.geomspace(1e-3, 10.0, 16))


def fast_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0),
        n=200,
        reps=200,
        n_grid=FAST_N_GRID,
        eps_grid=FAST_EPS_GRID,
        formats=(),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_report() -> ExperimentReport:
    return run_experiment(fast_config())


def test_report_contents(small_report):
    rep = small_report
    assert rep.classification is not None
    assert rep.classification.lindeberg_index == pytest.approx(2 / 7, abs=1e-12)
    assert 0.0 <= rep.lindeberg_index_estimate <= 1.0
    assert 0.0 <= rep.lindeberg_upper_bound <= 1.0
    assert set(rep.conditions) == {"A", "B", "C"}
    assert len(rep.qq) == 199
    assert rep.s_n > 0 and 0.0 <= rep.ks_statistic <= 1.0
    assert rep.duration_seconds is not None and rep.duration_seconds > 0
    assert rep.assumptions


def test_json_roundtrip_equal(small_report):
    # every float is written at full precision and reads back bit for bit
    data = small_report.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_run_experiment_walks_the_grid_once(monkeypatch):
    # conditions, bound and index estimate share one chunk-aligned walk, so
    # the grid's weights are fetched exactly once per chunk; the replicate
    # loop's own calls (row n = 100) are left out of the count
    n_grid = tuple(9000 * 2 ** j for j in range(6))  # top 288000: five chunks
    calls = []
    weights = ContaminationScheme.weights

    def counted(self, n, start=1):
        calls.append((start, n))
        return weights(self, n, start)

    monkeypatch.setattr(ContaminationScheme, "weights", counted)
    config = fast_config(n=100, reps=20, n_grid=n_grid, dist="uniform")
    run_experiment(config)
    chunk, top = analytic._CHUNK, n_grid[-1]
    walk = [call for call in calls if call[1] != config.n]
    assert len(walk) == -(-top // chunk) == 5
    assert walk == [(lo + 1, min(lo + chunk, top)) for lo in range(0, top, chunk)]


def test_uncontaminated_report_has_no_classification(tmp_path):
    rep = run_experiment(fast_config(scheme=ContaminationScheme.uncontaminated()))
    assert rep.classification is None
    assert rep.lindeberg_index_estimate <= 1e-6
    for est in rep.conditions.values():
        assert est.trend.value == "converging-to-zero"


def test_emit_csv_exact_shape(small_report, tmp_path):
    path = tmp_path / "qq.csv"
    emit_csv(small_report, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 200
    assert lines[0] == "t,theoretical,empirical"
    t, theo, emp = (float(tok) for tok in lines[1].split(","))
    assert (t, theo, emp) == (small_report.qq[0].t, small_report.qq[0].theoretical,
                              small_report.qq[0].empirical)


def test_emit_svg_contains_scatter_line_and_annotation(small_report, tmp_path):
    path = tmp_path / "qq.svg"
    emit_svg(small_report, str(path))
    body = path.read_text()
    root = ET.fromstring(body)  # well-formed XML
    assert root.tag.endswith("svg")
    assert body.count("<circle") == 199
    assert body.count("<line") == 1
    assert "Lindeberg index: 0.2857" in body


def test_emitters_refuse_overwrite(small_report, tmp_path):
    path = tmp_path / "out.json"
    emit_json(small_report, str(path))
    with pytest.raises(FileExistsError):
        emit_json(small_report, str(path))
    emit_json(small_report, str(path), force=True)


def test_run_experiment_writes_all_formats(tmp_path):
    cfg = fast_config(reps=60, formats=("csv", "svg", "json"),
                      out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    for name in ("qq.csv", "qq.svg", "report.json"):
        assert (tmp_path / "out" / name).exists()


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg1 = fast_config(reps=60, formats=("csv", "json"), out_dir=str(out1))
    cfg2 = fast_config(reps=60, formats=("csv", "json"), out_dir=str(out2))
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert (out1 / "qq.csv").read_bytes() == (out2 / "qq.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_run_experiment_fails_fast_on_collision(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("{}")
    cfg = fast_config(reps=60, formats=("json",), out_dir=str(out))
    with pytest.raises(FileExistsError):
        run_experiment(cfg)
    # the stale file is untouched
    assert (out / "report.json").read_text() == "{}"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        fast_config(n=0).validated()
    with pytest.raises(ConfigError):
        fast_config(reps=0).validated()
    with pytest.raises(ConfigError):
        fast_config(dist="cauchy").validated()
    for mu in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            fast_config(mu=mu).validated()
    with pytest.raises(ConfigError):
        fast_config(formats=("pdf",)).validated()
    with pytest.raises(ConfigError):
        fast_config(n_grid=(10, 20)).validated()
    short = ContaminationScheme.tabular([0.1] * 10, [2.0] * 10)
    with pytest.raises(ConfigError):
        fast_config(scheme=short).validated()


# ---------------------------------------------------------------------------
# tabular scheme files
# ---------------------------------------------------------------------------

def test_load_tabular_scheme(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n0.5,2.0\n0.25,3.0\n")
    scheme = load_tabular_scheme(str(path))
    assert scheme.kind is SchemeKind.TABULAR
    p, s2 = scheme.weights(2)
    assert (p.tolist(), s2.tolist()) == ([0.5, 0.25], [2.0, 3.0])


def test_load_tabular_scheme_bad_header(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("a,b\n0.5,2.0\n")
    with pytest.raises(ConfigError):
        load_tabular_scheme(str(path))


def test_load_tabular_scheme_bad_row(tmp_path):
    path = tmp_path / "scheme.csv"
    path.write_text("p_k,sigma2_k\n0.5\n")
    with pytest.raises(ConfigError):
        load_tabular_scheme(str(path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _grid_args():
    return [
        "--n-grid", ",".join(str(n) for n in FAST_N_GRID),
        "--eps-grid", ",".join(repr(e) for e in FAST_EPS_GRID),
    ]


def test_cli_happy_path(tmp_path, capsys):
    code = main([
        "--scheme", "powerlaw", "--p", "0.1", "--a", "1", "--s2", "4", "--b", "1",
        "--n", "100", "--reps", "50", "--out", str(tmp_path / "out"),
        "--workers", "1", *_grid_args(),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "case3-bounded" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "qq.svg").exists()
    assert (tmp_path / "out" / "qq.csv").exists()


def test_cli_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "scheme = powerlaw\n"
        "p = 0.1\na = 1\ns2 = 4\nb = 1\n"
        "n = 100\nreps = 40\n"
        f"out = {tmp_path / 'file-out'}\n"
        "formats = json\n"
    )
    # flag overrides the file's reps and out dir
    code = main(["--config", str(cfg), "--reps", "30",
                 "--out", str(tmp_path / "flag-out"), "--workers", "1", *_grid_args()])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "flag-out" / "report.json").read_text())
    assert report["config"]["reps"] == 30
    assert report["config"]["n"] == 100  # from file


def test_cli_validation_exit_code(capsys):
    code = main(["--scheme", "powerlaw", "--p", "1.5", "--a", "1",
                 "--s2", "4", "--b", "1"])
    assert code == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_cli_missing_parameters_exit_code(capsys):
    code = main(["--scheme", "powerlaw", "--p", "0.1"])
    assert code == EXIT_VALIDATION


def test_cli_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_IO


def test_cli_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION


def test_cli_refuses_overwrite_then_force(tmp_path, capsys):
    args = ["--scheme", "none", "--n", "50", "--reps", "20",
            "--out", str(tmp_path / "out"), "--workers", "1", *_grid_args()]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_IO
    assert main(args + ["--force"]) == EXIT_OK


def test_cli_numeric_failure_exit_code(monkeypatch, capsys):
    import contamclt.cli as cli_mod

    def boom(config):
        raise ArithmeticError("synthetic overflow")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    code = main(["--scheme", "none", "--n", "10", "--reps", "5", "--workers", "1",
                 *_grid_args()])
    assert code == EXIT_NUMERIC


def test_cli_tabular_roundtrip(tmp_path, capsys):
    rows = "\n".join(f"0.01,{1.0 + 0.001 * k}" for k in range(1, 16001))
    table = tmp_path / "scheme.csv"
    table.write_text("p_k,sigma2_k\n" + rows + "\n")
    code = main(["--scheme", "tabular", "--tabular", str(table),
                 "--n", "60", "--reps", "25", "--out", str(tmp_path / "out"),
                 "--workers", "1", *_grid_args()])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"] is None
    assert report["config"]["scheme"]["kind"] == "tabular"
    assert report["config"]["scheme"]["source"] == str(table)


def test_cli_non_utf8_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"scheme = none\nn = 5\xff\n")
    assert main(["--config", str(cfg)]) == EXIT_VALIDATION
    assert f"error: {cfg}" in capsys.readouterr().err


def test_cli_non_utf8_tabular_file(tmp_path, capsys):
    table = tmp_path / "scheme.csv"
    table.write_bytes(b"p_k,sigma2_k\n0.5,2.0\xff\n")
    assert main(["--scheme", "tabular", "--tabular", str(table)]) == EXIT_VALIDATION
    assert f"error: {table}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the settings table is the single schema for flags, files and the docs
# ---------------------------------------------------------------------------

# one value per setting, each different from what BASE_LINES resolves to
SAMPLE_VALUES = {
    "scheme": "none", "p": "0.2", "a": "1.5", "s2": "9", "b": "0.5",
    "tabular": "weights.csv", "dist": "laplace", "mu": "-2.5", "n": "77",
    "reps": "33", "seed": "12345", "workers": "3", "out": "elsewhere",
    "formats": "csv, json", "n_grid": "100,200,400,800,1600,3200",
    "eps_grid": "0.01,0.1,1", "force": "true",
}
BASE_LINES = "scheme = powerlaw\np = 0.1\na = 1\ns2 = 4\nb = 1\nworkers = 1\n"
# the ExperimentConfig field each setting lands in, where the names differ
FIELD_OF = {"p": "scheme", "a": "scheme", "s2": "scheme", "b": "scheme",
            "out": "out_dir", "tabular": "tabular_path"}


class _Captured(Exception):
    pass


def _config_from_main(monkeypatch, argv):
    """The config ``main`` hands to ``run_experiment`` for ``argv``."""
    seen = []

    def capture(config):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured):
        main(argv)
    return seen[0]


@pytest.mark.parametrize("key", list(SETTINGS))
def test_config_file_line_and_flag_give_the_same_config(key, tmp_path, monkeypatch):
    value = SAMPLE_VALUES[key]
    base_cfg = tmp_path / "base.cfg"
    base_cfg.write_text(BASE_LINES)
    keyed_cfg = tmp_path / "keyed.cfg"
    keyed_cfg.write_text(BASE_LINES + f"{key} = {value}\n")
    flag = ["--force"] if key == "force" else ["--" + key.replace("_", "-"), value]

    base = _config_from_main(monkeypatch, ["--config", str(base_cfg)])
    via_file = _config_from_main(monkeypatch, ["--config", str(keyed_cfg)])
    via_flag = _config_from_main(monkeypatch, ["--config", str(base_cfg), *flag])
    # == skips the execution fields, so compare every field
    assert vars(via_file) == vars(via_flag)
    changed = {name for name, v in vars(via_file).items() if v != vars(base)[name]}
    assert changed == {FIELD_OF.get(key, key)}


def test_readme_lists_the_settings_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"keys mirror the flags\s*\(`([^`]*)`\)", section).group(1)
    assert listed.split() == list(SETTINGS)
