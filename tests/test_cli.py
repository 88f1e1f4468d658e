import inspect
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab import cli
from pelab.cli import _build_parser, _read_embeddings_csv, main
from pelab.config import SCHEMA, ExperimentConfig, parse_config_text, schema_help
from pelab.errors import ConfigurationError, ContractViolation
from pelab.metrics import MetricInputs, certify
from pelab.numerics import Rng, make_encoder
from pelab.worlds import WORLD_BUILDERS, make_bernoulli_uv_world, sample_batch

from conftest import run_fresh_python

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import fixtures  # noqa: E402


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_defaults_and_overrides():
    cfg = parse_config_text("seed = 5\nworld.kind = bernoulli_uv\n")
    assert cfg["seed"] == 5
    assert cfg["world.kind"] == "bernoulli_uv"
    assert cfg["train.batch_size"] == SCHEMA["train.batch_size"][1]


def test_config_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigurationError, match=r":3: unknown key"):
        parse_config_text("# comment\nseed = 1\nnope.nope = 2\n")


def test_config_rejects_bad_value_with_line_number():
    with pytest.raises(ConfigurationError, match=r":1: bad int"):
        parse_config_text("seed = banana\n")


def test_config_hash_stable_under_formatting():
    a = parse_config_text("seed = 5\nworld.kind = rotation\n")
    b = parse_config_text("world.kind = rotation   # same\n\nseed = 5\n")
    assert a.config_hash() == b.config_hash()
    c = parse_config_text("seed = 6\nworld.kind = rotation\n")
    assert a.config_hash() != c.config_hash()


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"-?[0-9]{0,4}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["", "0", "-1", "true", "nan", "1,2", ",", "1e999"]))
_CONFIG_LINES = st.one_of(
    st.text(max_size=40),
    st.builds("{} = {}".format, st.sampled_from(sorted(SCHEMA)),
              _CONFIG_VALUES))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONFIG_LINES, max_size=8))
def test_parse_config_text_returns_or_raises_configuration_error(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigurationError:
        return
    assert cfg["seed"] >= 0 and cfg["encoder.d_z"] >= 1
    assert cfg["metrics.curve_points"] >= 1 and cfg["metrics.probe_budgets"]


def test_schema_help_covers_every_key():
    text = schema_help()
    for key in SCHEMA:
        assert key in text


def test_bundled_configs_parse():
    for name in ("bernoulli_counterexample", "rotation_pel",
                 "orthogonality_rotation", "over_invariance_bernoulli",
                 "merged_orbits"):
        from pelab.cli import _resolve_config
        cfg = _resolve_config(name)
        assert cfg.config_hash()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_list_worlds_and_schema_exit_zero(capsys):
    assert run_cli("list-worlds") == 0
    out = capsys.readouterr().out
    assert "rotation" in out and "bernoulli_uv" in out and "six_nine" in out
    assert run_cli("print-config-schema") == 0
    assert "world.kind" in capsys.readouterr().out


def test_main_builds_its_parser_once(tmp_path, capsys):
    parser = _build_parser()
    assert run_cli("list-worlds") == 0
    # a failed parse leaves the parser as it was for the next call
    with pytest.raises(SystemExit):
        main(["verify-theory"])
    assert run_cli("verify-theory", "--config", "merged_orbits", "--out",
                   str(tmp_path / "v"), "--quiet") == 0
    assert _build_parser() is parser
    assert "--config" in capsys.readouterr().err


def test_run_bernoulli_counterexample(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--config", "bernoulli_counterexample",
                   "--out", str(out), "--quiet") == 0
    doc = json.loads((out / "report.json").read_text())
    zo = doc["theory"]["risk_table"]["zero_one"]
    assert (zo["full"], zo["good"], zo["bad"]) == (0.0, 0.0, 0.5)
    assert doc["theory"]["risk_table_exact"]["passed"]
    assert (out / "config_echo.cfg").exists()


def test_run_bernoulli_prices_its_risk_table_once(tmp_path, risk_evals):
    # the table and its exact verdict share one pricing: 3 representations
    # under 2 losses
    assert run_cli("run", "--config", "bernoulli_counterexample",
                   "--out", str(tmp_path / "run"), "--quiet") == 0
    assert len(risk_evals) == 6


def test_run_degenerate_two_stage_sample_fails_its_verdict(tmp_path):
    # two labelled rows of one class leave no head to train: the verdict
    # fails with the reason, and the run still writes its report
    cfg = tmp_path / "two_stage.cfg"
    cfg.write_text("world.kind = bernoulli_uv\nencoder.arch = linear\n"
                   "encoder.d_z = 2\nmetrics.enabled = false\n"
                   "theory.two_stage = true\ntheory.n = 2\n")
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--seed", "1",
                   "--out", str(out), "--quiet") == 1
    doc = json.loads((out / "report.json").read_text())
    verdict = doc["theory"]["two_stage"]
    assert not verdict["passed"]
    assert verdict["measured"]["head_risk"] is None
    assert verdict["measured"]["gap"] is None
    assert verdict["measured"]["bayes_risk_full"] == 0.0
    assert verdict["diagnostics"]["reason"] == \
        "probe targets must have at least two classes"


def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", "bernoulli_counterexample",
                   "--out", str(out1), "--quiet") == 0
    assert run_cli("run", "--config", "bernoulli_counterexample",
                   "--out", str(out2), "--quiet") == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_run_seed_override_changes_hash(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--config", "bernoulli_counterexample",
            "--out", str(out1), "--quiet")
    run_cli("run", "--config", "bernoulli_counterexample", "--seed", "99",
            "--out", str(out2), "--quiet")
    d1 = json.loads((out1 / "report.json").read_text())
    d2 = json.loads((out2 / "report.json").read_text())
    assert d1["seed"] == 3 and d2["seed"] == 99
    assert d1["config_hash"] != d2["config_hash"]


def test_seed_flag_builds_the_config_once(tmp_path, monkeypatch):
    # --seed is set while the config is read, not by a second full build
    built = []
    init = ExperimentConfig.__init__

    def counting_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ExperimentConfig, "__init__", counting_init)
    assert run_cli("verify-theory", "--config", "merged_orbits", "--seed", "5",
                   "--out", str(tmp_path / "out"), "--quiet") == 0
    assert len(built) == 1
    assert built[0]["seed"] == 5 and built[0].where["seed"] == "--seed"


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nnot.a.key = 2\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert ":2: unknown key" in capsys.readouterr().err


def test_run_probe_budget_above_pool_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text("world.kind = bernoulli_uv\nencoder.arch = linear\n"
                   "encoder.d_z = 2\ntrain.steps = 0\nmetrics.n = 500\n"
                   "metrics.probe_budgets = 64,256\nmetrics.probe_pool = 100\n")
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    assert (f"{cfg}:7: metrics.probe_pool must be >= metrics.probe_budgets "
            "= (64, 256), got 100") in capsys.readouterr().err
    assert not out.exists()


def test_run_training_snapshots_byte_identical(tmp_path):
    cfg = tmp_path / "snap.cfg"
    cfg.write_text("seed = 2\nworld.kind = rotation\nencoder.arch = mlp1\n"
                   "encoder.d_hidden = 8\ntrain.steps = 20\n"
                   "train.batch_size = 64\ntrain.eval_every = 10\n"
                   "metrics.enabled = false\nmetrics.n = 256\n"
                   "metrics.curve_points = 5\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--quiet") == 0
    names = sorted(p.name for p in (outs[0] / "snapshots").iterdir())
    assert names == ["step_10.json", "step_20.json"]
    for name in names:
        first = (outs[0] / "snapshots" / name).read_bytes()
        assert first == (outs[1] / "snapshots" / name).read_bytes()
    m = json.loads(first)["metrics"]
    assert sorted(m) == ["cov_offdiag", "invariance_auc", "per_dim_variance",
                         "var_floor_violation"]
    assert all(e["status"] == "ok" for e in m.values())
    assert m["invariance_auc"]["detail"]["n"] == 256


def test_report_bytes_do_not_depend_on_the_blas_thread_default(tmp_path):
    # fresh processes: one with pelab's one-thread BLAS, one with a pool of
    # two; every product is blocked onto the calling thread either way
    csv = fixtures.write_fixtures(tmp_path / "fix", 0)["rotation"]
    reports = []
    for blas_env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"threads{len(reports)}"
        for command in (["run", "--config", "bernoulli_counterexample"],
                        ["certify", str(csv)]):
            run_fresh_python(["-m", "pelab.cli", *command, "--quiet",
                              "--out", str(out / command[0])], **blas_env)
        reports.append([(out / c / "report.json").read_bytes()
                        for c in ("run", "certify")])
    assert reports[0] == reports[1]


def test_run_missing_config_exits_2(tmp_path):
    assert run_cli("run", "--config", "no_such_config",
                   "--out", str(tmp_path)) == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _write_embeddings(path, include_t=True, shuffle_v=False):
    world = make_bernoulli_uv_world()
    batch = sample_batch(world, 2000, Rng(5))
    v = batch.x[:, 1].copy()
    if shuffle_v:
        v = Rng(6).permutation(v)
    noise = Rng(7).normal(size=2000)
    header = ["z_0", "z_1", "x_0", "x_1", "v"] + (["t"] if include_t else []) + ["y"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(2000):
            row = [batch.x[i, 1], noise[i], batch.x[i, 0], batch.x[i, 1], v[i]]
            if include_t:
                row.append(batch.t[i])
            row.append(float(batch.y[i]))
            fh.write(",".join(repr(float(c)) for c in row) + "\n")


def test_certify_code_containing_nuisance(tmp_path):
    csv = tmp_path / "emb.csv"
    _write_embeddings(csv)
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    assert m["normalized_mi"]["value"] >= 0.95
    assert m["leakage_probe_auc"]["value"] >= 0.99
    assert m["sufficiency_cmi_bits"]["status"] == "ok"


def test_certify_shuffled_nuisance(tmp_path):
    csv = tmp_path / "emb.csv"
    _write_embeddings(csv, shuffle_v=True)
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    assert m["normalized_mi"]["value"] <= 0.05


def test_certify_missing_t_marks_not_applicable(tmp_path):
    csv = tmp_path / "emb.csv"
    _write_embeddings(csv, include_t=False)
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    assert m["sufficiency_cmi_bits"]["status"] == "not_applicable"
    assert m["mmd2"]["status"] == "not_applicable"


def test_certify_small_csv_reports_degenerate_probes(tmp_path):
    csv = tmp_path / "emb.csv"
    _write_embeddings(csv)
    lines = csv.read_text().splitlines()[:51]
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    for name in ("var_floor_violation", "cov_offdiag", "per_dim_variance"):
        assert m[name]["status"] == "ok"
    for name in ("leakage_probe_auc", "normalized_mi"):
        assert m[name]["status"] == "degenerate"
        assert m[name]["value"] is None
        assert "n >= 100" in m[name]["detail"]["reason"]

    csv.write_text("\n".join(lines[:2]) + "\n")
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    assert m["per_dim_variance"]["status"] == "degenerate"
    assert "n >= 2" in m["per_dim_variance"]["detail"]["reason"]


def test_certify_non_finite_cell_exits_2(tmp_path, capsys):
    csv = tmp_path / "emb.csv"
    _write_embeddings(csv)
    lines = csv.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out)) == 2
    assert "row 5, column z_0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_certify_overflowing_codes_report_degenerate(tmp_path):
    csv = tmp_path / "huge.csv"
    rows = [f"{1e200 * (-1) ** i * (i % 7)!r},{i % 5!r},{i % 2}"
            for i in range(200)]
    csv.write_text("z_0,z_1,v\n" + "\n".join(rows) + "\n")
    out = tmp_path / "cert"
    with np.errstate(all="ignore"):
        assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text(),
                   parse_constant=lambda c: pytest.fail(f"JSON constant {c}"))
    assert m["metrics"]["per_dim_variance"]["status"] == "degenerate"
    assert m["metrics"]["per_dim_variance"]["value"] is None


def test_certify_codes_too_large_to_standardize_degenerate_probes(tmp_path):
    # finite N(0, 1) * 1e200 codes: the probes' standardization overflows
    rng = np.random.default_rng(0)
    z = rng.normal(size=(300, 2)) * 1e200
    v, y = rng.integers(0, 2, size=300), rng.integers(0, 2, size=300)
    csv = tmp_path / "huge.csv"
    csv.write_text("z_0,z_1,v,y\n" + "".join(
        f"{float(a)!r},{float(b)!r},{c},{d}\n"
        for (a, b), c, d in zip(z, v, y)))
    out = tmp_path / "cert"
    with np.errstate(all="ignore"):   # the geometry metrics overflow too
        assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    m = json.loads((out / "report.json").read_text())["metrics"]
    for name in ("label_probe_accuracy", "leakage_probe_auc"):
        assert m[name]["status"] == "degenerate", name
        assert m[name]["value"] is None
        assert "too large to standardize" in m[name]["detail"]["reason"]


def test_certify_overflowing_second_moments_name_the_overflow(tmp_path,
                                                             capsys):
    # finite N(0, 1) * 1e200 codes: their squares overflow float64.  The
    # suite runs with RuntimeWarnings as errors, so any overflow warning
    # would fail the command
    rng = np.random.default_rng(0)
    z = rng.normal(size=(300, 3)) * 1e200
    v, y, t = (rng.integers(0, 2, size=300) for _ in range(3))
    csv = tmp_path / "huge.csv"
    csv.write_text("z_0,z_1,z_2,v,t,y\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r},{d},{e},{f}\n"
        for (a, b, c), d, e, f in zip(z, v, t, y)))
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    assert capsys.readouterr().err == ""
    m = json.loads((out / "report.json").read_text())["metrics"]
    for name in ("var_floor_violation", "cov_offdiag", "per_dim_variance"):
        assert m[name]["status"] == "degenerate", name
        assert "second moments overflow" in m[name]["detail"]["reason"]
    # three code dimensions are binned on principal directions, whose
    # covariance overflows too
    assert m["normalized_mi"]["status"] == "degenerate"
    assert "covariance is not finite" in m["normalized_mi"]["detail"]["reason"]
    # so do the squared distances between the two orbit groups' codes
    for name in ("fisher_ratio", "mmd2", "radial_fisher"):
        assert m[name]["status"] == "degenerate", name
        assert m[name]["detail"]["reason"] == \
            "the codes' squared distances overflow float64"


def test_certify_csv_matches_registry_on_world_arrays(tmp_path):
    world = make_bernoulli_uv_world()
    batch = sample_batch(world, 3000, Rng(8))
    z = make_encoder("mlp1", world.d_x, 3, 8, Rng(9),
                     init_scale=4.0).forward(batch.x)
    csv = tmp_path / "emb.csv"
    cols = [z[:, 0], z[:, 1], z[:, 2], batch.x[:, 0], batch.x[:, 1],
            batch.v, batch.t]
    with open(csv, "w") as fh:
        fh.write("z_0,z_1,z_2,x_0,x_1,v,t\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(c)) for c in row) + "\n")
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    from_csv = json.loads((out / "report.json").read_text())["metrics"]

    direct = certify(MetricInputs(z=z, x=batch.x, t=batch.t, v=batch.v),
                     parse_config_text("").metrics, {}, names=("geometry", "normalized_mi",
                                      "sufficiency_cmi_bits",
                                      "separability")).metrics
    for name in ("var_floor_violation", "cov_offdiag", "per_dim_variance",
                 "mmd2", "fisher_ratio", "radial_fisher", "normalized_mi",
                 "sufficiency_cmi_bits"):
        assert from_csv[name]["status"] == "ok", name
        assert from_csv[name]["value"] == direct[name].value, name


def test_certify_malformed_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("z_0,v\n1.0,0.0\n2.0\n")
    assert run_cli("certify", str(csv), "--out", str(tmp_path)) == 2
    assert "row 3" in capsys.readouterr().err


_CSV_NAMES = st.one_of(
    st.sampled_from(["z_0", "z_1", "z_10", "z_\u00b2", "z_\u0663", "z_", "x_0",
                     "v", "t", "t_0", "y", "alpha", ""]),
    st.text(max_size=4))
_CSV_CELLS = st.one_of(
    st.sampled_from(["1.0", "-2.5e3", "0", "nan", "-inf", "1e999", "", " ",
                     "0x10", "1_0", "\u0663"]),
    st.text(max_size=5))


@st.composite
def _csv_bytes(draw):
    header = draw(st.lists(_CSV_NAMES, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(_CSV_CELLS, min_size=len(header),
                                  max_size=len(header) + 1), max_size=5))
    text = "\n".join(",".join(r) for r in [header] + rows)
    return draw(st.one_of(st.just(text.encode("utf-8")),
                          st.binary(max_size=64).map(
                              lambda b: text.encode("utf-8") + b),
                          st.binary(max_size=64)))


@settings(max_examples=300, deadline=None)
@given(_csv_bytes())
def test_read_embeddings_csv_returns_finite_arrays_or_rejects(
        tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    try:
        cols = _read_embeddings_csv(path)
    except ContractViolation:
        return
    assert cols["z"].ndim == 2 and cols["z"].shape[0] >= 1
    for arr in cols.values():
        assert arr is None or np.all(np.isfinite(arr))


def _read_outcome(path):
    """The columns as bytes, or the ContractViolation's message."""
    try:
        cols = _read_embeddings_csv(path)
    except ContractViolation as exc:
        return str(exc)
    return {k: None if v is None else (v.shape, v.tobytes())
            for k, v in cols.items()}


@settings(max_examples=300, deadline=None)
@given(_csv_bytes())
def test_read_embeddings_csv_does_not_depend_on_the_chunk_size(
        tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "chunks.csv"
    path.write_bytes(data)
    whole = _read_outcome(path)
    default = cli.BLOCK_ENTRIES
    try:
        for chars in (1, 4, 9):
            cli.BLOCK_ENTRIES = chars
            assert _read_outcome(path) == whole, chars
    finally:
        cli.BLOCK_ENTRIES = default


# three 8-character rows ("1.0,2.0\n") make one chunk; the header is line
# 1, so the first chunk holds lines 2-4 and the second starts at line 5
@pytest.mark.parametrize("rows, message", [
    (["1.0,2.0"] * 3 + ["abc,2.0", "nan,2.0"],
     "row 5: could not convert string to float: 'abc'"),
    (["1.0,2.0", "1.0,nan", "1.0,2.0", "1.0,2.0,3.0"],
     "row 3, column v: non-finite value"),
    (["1.0,2.0", "abc,2.0", "1.0,2.0", "nan,2.0", "1.0,inf"],
     "row 3: could not convert string to float: 'abc'"),
    (["1.0,2.0"] * 3 + ["1.0,2.0,3.0", "nan,2.0"],
     "row 5: expected 2 columns, got 3"),
], ids=["unparsable_first_row_of_chunk_2", "non_finite_before_column_count",
        "non_finite_below_unparsable", "non_finite_below_column_count"])
def test_read_embeddings_csv_messages_at_chunk_boundaries(tmp_path,
                                                          monkeypatch, rows,
                                                          message):
    monkeypatch.setattr(cli, "BLOCK_ENTRIES", 3 * len("1.0,2.0\n"))
    path = tmp_path / "emb.csv"
    path.write_text("z_0,v\n" + "\n".join(rows) + "\n")
    with pytest.raises(ContractViolation) as exc:
        _read_embeddings_csv(path)
    assert str(exc.value) == f"{path}: {message}"


def test_read_embeddings_csv_peak_memory_is_one_chunk(tmp_path):
    # 20 000 rows of 9 columns: every cell kept as text took 16.9 MB; the
    # chunked reader holds one chunk of text beside the float64 rows
    # (1.4 MB) and their concatenation
    path = tmp_path / "emb.csv"
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.normal(size=(20000, 4)),
                            rng.integers(0, 2, size=(20000, 5))])
    path.write_text("z_0,z_1,z_2,z_3,x_0,x_1,v,t,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in data.tolist()))
    tracemalloc.start()
    try:
        cols = _read_embeddings_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cols["z"], data[:, :4])
    assert peak < 4e6, peak


@pytest.mark.parametrize("column, metric", [("y", "label_probe_accuracy"),
                                            ("v", "leakage_probe_auc")])
def test_certify_single_class_probe_split_reports_degenerate(tmp_path, column,
                                                             metric):
    # one positive row in 300: the probe's training or held-out split
    # holds a single class
    z = Rng(3).normal(size=300)
    csv = tmp_path / "emb.csv"
    csv.write_text(f"z_0,{column}\n" + "".join(
        f"{float(c)!r},{1.0 if i == 17 else 0.0!r}\n" for i, c in enumerate(z)))
    out = tmp_path / "cert"
    assert run_cli("certify", str(csv), "--out", str(out), "--quiet") == 0
    entry = json.loads((out / "report.json").read_text())["metrics"][metric]
    assert entry["status"] == "degenerate" and entry["value"] is None
    assert re.search("single-class|two classes", entry["detail"]["reason"])


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "bernoulli_counterexample", "--seed", "-1"],
     "--seed: seed must be >= 0, got -1"),
    (["certify", "{tmp}/codes.csv", "--seed", "-1"],
     "--seed: seed must be >= 0, got -1"),
    (["verify-theory", "--config", "merged_orbits", "--seed", "-1"],
     "--seed: seed must be >= 0, got -1"),
    (["certify", "{tmp}/latin1.csv"], "latin1.csv: cannot read embeddings"),
    (["run", "--config", "{tmp}/latin1.cfg"], "latin1.cfg: cannot read config"),
    (["run", "--config", "{tmp}"], "is neither a file nor a bundled name"),
    (["run", "--config", "{tmp}/d_z.cfg"], "d_z.cfg:2: encoder.d_z must be >= 1"),
    (["run", "--config", "{tmp}/curve.cfg"],
     "curve.cfg:2: metrics.curve_points must be >= 1"),
    (["run", "--config", "{tmp}/budgets.cfg"],
     "budgets.cfg:2: bad ints value for metrics.probe_budgets: expected at "
     "least one value"),
], ids=["run_seed", "certify_seed", "verify_seed", "csv_not_utf8",
        "config_not_utf8", "config_directory", "d_z_zero", "curve_points_zero",
        "probe_budgets_empty"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv,
                                               message):
    (tmp_path / "codes.csv").write_text("z_0\n1.0\n")
    (tmp_path / "latin1.csv").write_bytes("z_0,v\n1.0,caf\xe9\n".encode("latin-1"))
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nseed = 1\n".encode("latin-1"))
    for name, line in (("d_z", "encoder.d_z = 0"),
                       ("curve", "metrics.curve_points = 0"),
                       ("budgets", "metrics.probe_budgets =")):
        (tmp_path / f"{name}.cfg").write_text(f"seed = 1\n{line}\n")
    out = tmp_path / "out"
    assert run_cli(*[a.format(tmp=tmp_path) for a in argv],
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("metrics.mi_bins = 0", "metrics.mi_bins must be >= 2, got 0"),
    ("metrics.mi_bins = 1", "metrics.mi_bins must be >= 2, got 1"),
    ("theory.resolution = 1", "theory.resolution must be >= 2, got 1"),
    ("metrics.curve_alpha_max = 0.0",
     "metrics.curve_alpha_max must be > 0, got 0.0"),
    ("metrics.curve_alpha_max = -1.0",
     "metrics.curve_alpha_max must be > 0, got -1.0"),
], ids=["mi_bins_zero", "mi_bins_one", "resolution_one", "alpha_max_zero",
        "alpha_max_negative"])
def test_binning_key_below_its_bound_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "bins.cfg"
    cfg.write_text("seed = 3\nworld.kind = bernoulli_uv\n"
                   f"encoder.arch = linear\nencoder.d_z = 2\n{line}\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"bins.cfg:5: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("world, d_z, message", [
    ("rotation", 4, "objective.w_eq > 0 needs encoder.d_z = 2, the size of "
                    "rho, got 4"),
    ("bernoulli_uv", 2, "objective.w_eq > 0 needs a transform family with "
                        "rho; world.kind = bernoulli_uv has none"),
], ids=["d_z_not_rho_size", "no_rho"])
def test_equivariance_weight_unfit_for_world_exits_2(tmp_path, capsys, world,
                                                     d_z, message):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(f"world.kind = {world}\nencoder.d_z = {d_z}\n"
                   "train.steps = 5\nobjective.w_eq = 1.0\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"eq.cfg:4: {message}" in err
    assert not out.exists()


def test_equivariance_weight_fit_for_world_parses():
    cfg = parse_config_text("world.kind = six_nine\nencoder.d_z = 2\n"
                            "objective.w_eq = 0.5\n")
    assert cfg.objective.w_eq == 0.5


@pytest.mark.parametrize("line, message", [
    ("train.sigma_aug = -0.5", "sigma_aug must be finite and >= 0, got -0.5"),
    ("train.sigma_aug = inf", "sigma_aug must be finite and >= 0, got inf"),
    ("train.adam_beta1 = 1.0", "adam_beta1 must be in [0, 1), got 1.0"),
    ("train.adam_beta1 = -0.1", "adam_beta1 must be in [0, 1), got -0.1"),
    ("train.adam_beta2 = 1.0", "adam_beta2 must be in [0, 1), got 1.0"),
    ("train.adam_eps = 0.0", "adam_eps must be > 0, got 0.0"),
], ids=["sigma_aug_negative", "sigma_aug_infinite", "beta1_one",
        "beta1_negative", "beta2_one", "eps_zero"])
def test_train_setting_out_of_range_exits_2(tmp_path, capsys, line, message):
    # the rotation world draws its views with sigma_aug, and one Adam step
    # with a beta of 1 leaves a NaN encoder that certification cannot use
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"seed = 3\ntrain.steps = 1\n{line}\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"train.cfg:3: train.{message}" in err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    (["world.r_min = 3.0"], "world.r_min must be <= world.r_max = 1.5, got 3.0"),
    (["world.r_min = -1.0"], "world.r_min must be >= 0, got -1.0"),
    (["world.r_min = nan"], "world.r_min must be >= 0, got nan"),
    (["world.r_max = 0.25"],
     "world.r_min must be <= world.r_max = 0.25, got 0.5"),
    (["encoder.init_scale = -1"],
     "encoder.init_scale must be >= 0, got -1.0"),
    (["world.kind = six_nine", "world.sigma = 0"],
     "world.sigma must be > 0, got 0.0"),
    (["world.kind = six_nine", "world.sigma = -1"],
     "world.sigma must be > 0, got -1.0"),
    (["train.eval_every = -3"], "train.eval_every must be >= 0, got -3"),
    (["metrics.probe_pool = 10"],
     "metrics.probe_pool must be >= metrics.probe_budgets = "
     "(64, 256, 1024), got 10"),
    (["metrics.probe_budgets = 1"],
     "metrics.probe_budgets must be >= 2, got (1,)"),
    (["theory.two_stage = true", "theory.n = 1"],
     "theory.n must be >= 2, got 1"),
    (["train.batch_size = 0"], "train.batch_size must be >= 1, got 0"),
    (["objective.use_nce = true", "train.batch_size = 1"],
     "train.batch_size must be >= 2, got 1"),
    (["objective.tau = 0"], "objective.tau must be > 0, got 0.0"),
    (["objective.w_var = -1"],
     "objective.w_var must be finite and >= 0, got -1.0"),
    (["objective.sim = euclid"],
     "objective.sim must be dot or cosine, got 'euclid'"),
    (["world.r_max = inf", "world.r_min = inf"],
     "world.r_min must be finite, got inf"),
    (["world.r_max = inf"], "world.r_max must be finite, got inf"),
    (["world.radius_values = 0.5, nan"],
     "world.radius_values must be finite, got (0.5, nan)"),
    (["world.radius_values = -1, 2"],
     "world.radius_values must be >= 0, got (-1.0, 2.0)"),
    (["world.kind = six_nine", "world.center_x = nan"],
     "world.center_x must be finite, got nan"),
    (["world.kind = six_nine", "world.center_y = -inf"],
     "world.center_y must be finite, got -inf"),
    (["world.kind = six_nine", "world.sigma = inf"],
     "world.sigma must be finite, got inf"),
    (["world.kind = foo"], "world.kind must be one of "
     "('rotation', 'bernoulli_uv', 'six_nine'), got 'foo'"),
    (["encoder.arch = conv"],
     "encoder.arch must be one of ('linear', 'mlp1'), got 'conv'"),
    (["theory.scenario = bogus"], "theory.scenario must be one of ('', "
     "'orthogonality_rotation', 'over_invariance_bernoulli', "
     "'merged_orbits'), got 'bogus'"),
    (["world.radius_values = 1.0"],
     "world.radius_values must hold at least two distinct values, "
     "got (1.0,)"),
    (["world.radius_values = 0.7, 0.7"],
     "world.radius_values must hold at least two distinct values, "
     "got (0.7, 0.7)"),
    (["world.r_max = 1.0", "world.r_min = 1.0"],
     "world.r_min must be < r_max = 1.0 when radius_values is empty, "
     "got 1.0"),
    (["encoder.d_hidden = 0"], "encoder.d_hidden must be >= 1, got 0"),
    (["metrics.n = 0"], "metrics.n must be >= 1, got 0"),
    (["encoder.init_scale = inf"], "encoder.init_scale must be finite, got inf"),
    (["metrics.curve_alpha_max = inf"],
     "metrics.curve_alpha_max must be finite, got inf"),
    (["theory.risk_table = true"],
     "theory.risk_table needs world.kind = bernoulli_uv, got 'rotation'"),
    (["assert.risk_table_exact = true"],
     "assert.risk_table_exact needs world.kind = bernoulli_uv, "
     "got 'rotation'"),
], ids=["r_min_above_r_max", "r_min_negative", "r_min_nan",
        "r_max_below_r_min", "init_scale_negative", "sigma_zero",
        "sigma_negative", "eval_every_negative", "pool_below_budgets",
        "budget_one", "theory_n_one", "batch_size_zero", "batch_size_one_nce",
        "tau_zero", "w_var_negative", "sim_unknown", "r_min_infinite",
        "r_max_infinite", "radius_values_nan", "radius_values_negative",
        "center_x_nan",
        "center_y_infinite", "sigma_infinite", "world_kind_unknown",
        "encoder_arch_unknown", "theory_scenario_unknown",
        "radius_values_one", "radius_values_repeated", "r_min_equals_r_max",
        "d_hidden_zero",
        "metrics_n_zero",
        "init_scale_inf", "alpha_max_inf", "risk_table_off_two_bit_world",
        "risk_table_exact_off_two_bit_world"])
def test_setting_rejected_before_any_work(tmp_path, capsys, lines, message):
    # each config would train for 50 steps and snapshot every 10; a
    # rejected one exits 2 naming the line of its last key, and leaves no
    # trace of training or certification behind.  Every rule runs when the
    # config is read, so verify-theory rejects it the same way
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 3\ntrain.steps = 50\ntrain.eval_every = 10\n"
                   + "".join(f"{line}\n" for line in lines))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"bad.cfg:{3 + len(lines)}: {message}" in err, err
    assert not out.exists()
    assert run_cli("verify-theory", "--config", str(cfg),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_builder_parameters_are_config_keys():
    # a section passes each key to the parameter of the same name, so a
    # parameter named unlike its key would silently keep its default
    for kind, build in WORLD_BUILDERS.items():
        for name in inspect.signature(build).parameters:
            assert f"world.{name}" in SCHEMA, (kind, name)
    for name in inspect.signature(make_encoder).parameters:
        if name not in ("d_x", "rng"):
            assert f"encoder.{name}" in SCHEMA, name
    cfg = parse_config_text("world.kind = six_nine\nworld.center_x = 1\n"
                            "world.center_y = -2\n")
    # class 0 sits at +c, class 1 at -c, with c = (1, -2)
    post = cfg.world.posterior(np.array([[1.0, -2.0], [-1.0, 2.0]]))
    assert np.array_equal(post.argmax(axis=1), [0, 1])
    assert post[0, 0] == post[1, 1] > 1.0 - 1e-12


def test_certify_duplicate_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    csv.write_text("z_0,z_0,v\n1.0,2.0,0.0\n3.0,4.0,1.0\n")
    out = tmp_path / "out"
    assert run_cli("certify", str(csv), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "duplicate column 'z_0'" in err
    assert not out.exists()


def test_certify_requires_code_columns(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("a,b\n1.0,2.0\n")
    assert run_cli("certify", str(csv), "--out", str(tmp_path)) == 2


# ---------------------------------------------------------------------------
# verify-theory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["over_invariance_bernoulli",
                                      "merged_orbits"])
def test_verify_theory_violations_exit_zero(tmp_path, scenario):
    out = tmp_path / scenario
    assert run_cli("verify-theory", "--config", scenario,
                   "--out", str(out), "--quiet") == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["theory"][scenario]["expected"] == "fail"
    assert doc["theory"][scenario]["observed"] == "fail"
    assert doc["theory"][scenario]["matches_expectation"]


def test_verify_theory_witness_without_far_pairs(tmp_path):
    # at this seed the two sampled radii lie within the witness's 1e-3 gap,
    # so the witness has no far pair to check; the report writer refuses a
    # non-finite float, so the gap must be null
    cfg = tmp_path / "two_rows.cfg"
    cfg.write_text("seed = 159\ntheory.scenario = orthogonality_rotation\n"
                   "theory.n = 2\ntheory.resolution = 2\n")
    assert run_cli("verify-theory", "--config", str(cfg),
                   "--out", str(tmp_path), "--quiet") == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    verdict = doc["theory"]["orthogonality_rotation"]["verdict"]
    assert verdict["diagnostics"]["witness_at_start"] == {
        "ok": True, "violations": 0, "min_code_gap": None}
    assert verdict["diagnostics"]["injectivity_ok"]


def test_verify_theory_requires_scenario(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("seed = 1\n")
    assert run_cli("verify-theory", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2


# ---------------------------------------------------------------------------
# --out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["run", "certify", "verify-theory"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, command,
                                                   below):
    # rotation_pel would train for seconds before its first write; the
    # embeddings path is missing, so a certify that read it would fail
    # differently
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "sub" / "out" if below else blocker
    args = {"run": ["run", "--config", "rotation_pel"],
            "certify": ["certify", str(tmp_path / "missing.csv")],
            "verify-theory": ["verify-theory", "--config", "merged_orbits"]}
    assert run_cli(*args[command], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1
    assert f"{blocker} exists and is not a directory" in err
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
