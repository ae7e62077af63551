"""CLI contract: subcommands, exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilcurv import Metric, build, cli, save_algebra
from nilcurv.cli import main
from nilcurv.sign_sets import K_NEGATIVE_MAX, RIC_POSITIVE_MIN


@pytest.fixture()
def h3_path(tmp_path):
    p = tmp_path / "h3.json"
    save_algebra(build("heisenberg", m=1), p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_and_emits(tmp_path, capsys):
    outdir = tmp_path / "algs"
    code, out, _ = run(capsys, "catalog", "--json",
                       "--emit-json", str(outdir))
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) >= 14
    assert (outdir / "heisenberg_m1.json").exists()


def test_catalog_filter(capsys):
    code, out, _ = run(capsys, "catalog", "--filter", "two-step", "--json")
    assert code == 0
    keys = {e["key"] for e in json.loads(out)["entries"]}
    assert "heisenberg" in keys and "filiform4" not in keys


def test_check(h3_path, capsys):
    code, out, _ = run(capsys, "check", h3_path, "--json")
    assert code == 0 and json.loads(out)["valid"]


def test_ric_h3_identity(h3_path, capsys):
    code, out, _ = run(capsys, "ric", h3_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert np.abs(np.array(data["eigenvalues"])
                  - [-0.5, -0.5, 0.5]).max() < 1e-10
    assert "tolerances" in data and "config" in data


def test_ric_custom_metric(h3_path, tmp_path, capsys):
    mp = tmp_path / "metric.json"
    mp.write_text(json.dumps({"gram": np.diag([1.0, 1.0, 4.0]).tolist()}))
    code, out, _ = run(capsys, "ric", h3_path, "--metric", str(mp), "--json")
    assert code == 0
    vals = json.loads(out)["eigenvalues"]
    # top eigenvalue is |[X,Y]|_g^2 / 2 = 2 when <Z,Z> = 4
    assert abs(max(vals) - 2.0) < 1e-10


def test_ric_malformed_names_key(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(
        {"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": "1"}]}))
    code, _, err = run(capsys, "ric", str(p))
    assert code == 2
    assert "i < j" in err or "i" in err


@pytest.mark.parametrize("data", [
    {"dim": 3, "brackets": [1]},
    {"dim": 3, "brackets": 5},
    [{"dim": 3}],
    3,
], ids=["bracket-not-object", "brackets-not-list", "top-level-list",
        "top-level-number"])
def test_malformed_algebra_exits_2(tmp_path, capsys, data):
    """An algebra file whose brackets are not a list of objects, or that
    is not a JSON object, is an input error: exit 2 with one `error:`
    line, never an exception."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_ric_missing_file(capsys):
    code, _, err = run(capsys, "ric", "/nonexistent.json")
    assert code == 2 and "no such file" in err


def test_sect(h3_path, capsys):
    code, out, _ = run(capsys, "sect", h3_path,
                       "--plane", "1,0,0;0,1,0", "--json")
    assert code == 0
    assert abs(json.loads(out)["K"] + 0.75) < 1e-12


def test_sect_bad_plane(h3_path, capsys):
    code, _, err = run(capsys, "sect", h3_path, "--plane", "1,0;0,1")
    assert code == 2


@pytest.mark.parametrize("command", ["sect", "signsets"])
@pytest.mark.parametrize("plane", ["1e400,0,0;0,1,0", "1e200,0,0;0,1e200,0"])
def test_oversized_plane_entries_exit_2(h3_path, capsys, command, plane):
    """An entry that overflows a float, or that would overflow K or the
    frame's Gram matrix, is an input error, not a traceback or NaN."""
    code, out, err = run(capsys, command, h3_path, "--plane", plane,
                         "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: --plane: ")


@pytest.mark.parametrize("vector", ["1e400,0,0", "1e13,0,0"])
def test_oversized_vector_entries_exit_2(h3_path, capsys, vector):
    code, out, err = run(capsys, "signsets", h3_path, "--vector", vector)
    assert code == 2 and out == ""
    assert err.startswith("error: --vector: ")


def test_plane_entries_at_the_bound_work(h3_path, capsys):
    code, out, _ = run(capsys, "sect", h3_path,
                       "--plane", "1e12,0,0;0,1e12,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["K"] == pytest.approx(-7.5e47, rel=1e-12)
    assert data["kappa"] == pytest.approx(-0.75, rel=1e-12)
    code, out, _ = run(capsys, "signsets", h3_path,
                       "--plane", "1e12,0,0;0,1e12,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == []
    assert data["witnesses"][0]["kind"] == "K_negative"


def test_deform(tmp_path, capsys):
    alg = tmp_path / "h3p.json"
    alg.write_text(json.dumps(
        {"name": "h3p", "dim": 3,
         "brackets": [{"i": 2, "j": 3, "k": 1, "c": "1"}]}))
    def_path = tmp_path / "def.json"
    def_path.write_text(json.dumps({"lambdas": [1, -1, -1]}))
    code, out, _ = run(capsys, "deform", str(alg), str(def_path),
                       "--t", "2.0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["block_structure"] and data["p"] == 1 and data["q"] == 2
    # CSV trace
    code, out, _ = run(capsys, "deform", str(alg), str(def_path), "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lambda_max_t,proj_distance"
    assert len(lines) > 3


@pytest.mark.parametrize("command, spec", [
    ("deform", {"metric": {}, "lambdas": [1, -1, -1]}),
    ("deform", {"metric": {"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]},
                "lambdas": [1, -1, -1]}),
    ("--metric", {"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]}),
    ("deform", {"metric": {"gram": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
                "lambdas": [1, -1, -1]}),
    ("deform", {"lambdas": [float("nan"), -1, -1]}),
    ("deform", {"lambdas": ["x", -1, -1]}),
    ("deform", {"metric": {"gram": [[float("inf"), 0, 0], [0, 1, 0],
                                    [0, 0, 1]]}, "lambdas": [1, -1, -1]}),
], ids=["empty-metric", "ragged-gram", "ragged-metric-flag",
        "not-positive-definite", "nan-lambda", "string-lambda",
        "infinite-gram"])
def test_malformed_metric_or_spec_exits_2(h3_path, tmp_path, capsys,
                                          command, spec):
    """A malformed metric or deformation file is an input error: exit 2
    with one `error:` line, never an exception."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    argv = (["deform", h3_path, str(p)] if command == "deform"
            else ["ric", h3_path, "--metric", str(p)])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("t", ["1e6", "nan"])
def test_deform_t_out_of_range_exits_2(tmp_path, capsys, t):
    """A --t at which lambda t overflows, or that is not finite, is an
    input error: exit 2 with one `error:` line."""
    alg = tmp_path / "h3.json"
    save_algebra(build("heisenberg", m=1), alg)
    spec = tmp_path / "def.json"
    spec.write_text(json.dumps({"lambdas": [1, -1, -1]}))
    code, out, err = run(capsys, "deform", str(alg), str(spec), "--t", t)
    assert code == 2 and out == ""
    assert err.startswith("error: --t: ") and err.count("\n") == 1, err


def test_deform_one_dimensional_algebra_exits_2(tmp_path, capsys):
    """A one-dimensional algebra has no pair i > j, so no scaled limit:
    exit 2 with one `error:` line, never a traceback."""
    alg = tmp_path / "line.json"
    alg.write_text(json.dumps({"dim": 1, "brackets": []}))
    spec = tmp_path / "def.json"
    spec.write_text(json.dumps({"lambdas": [1.0]}))
    code, out, err = run(capsys, "deform", str(alg), str(spec), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "dimension >= 2" in err


def test_deform_phi0_eigenvalues(tmp_path, capsys):
    """phi0 is not symmetric: the report gives its eigenvalues, not those
    of its symmetric part."""
    alg = tmp_path / "filiform5.json"
    save_algebra(build("filiform_standard", n=5), alg)
    gram = Metric.random(5, np.random.default_rng(1)).gram
    def_path = tmp_path / "def.json"
    def_path.write_text(json.dumps({"lambdas": [1, 0, 0, -1, -1],
                                    "metric": {"gram": gram.tolist()}}))
    code, out, _ = run(capsys, "deform", str(alg), str(def_path), "--json")
    assert code == 0
    got = np.array(json.loads(out)["phi0_eigenvalues"])
    np.testing.assert_allclose(got, [-618.4, -618.4, 0.0, 0.0, 618.4],
                               atol=0.05)


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens that json.dumps
    writes by default and that JSON does not have."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_json_output_is_strict(h3_path, tmp_path, capsys):
    """--json output of every subcommand parses as strict JSON. A limit
    whose every pair i > j is in Lambda has an infinite gap, and the Ricci
    spectrum at a large t overflows: --json writes both as null, the
    table as inf."""
    spec = tmp_path / "def.json"
    spec.write_text(json.dumps({"lambdas": [1, -1, -1]}))
    for argv in (["catalog"], ["check", h3_path], ["ric", h3_path],
                 ["sect", h3_path, "--plane", "1,0,0;0,1,0"],
                 ["deform", h3_path, str(spec), "--t", "2"],
                 ["signsets", h3_path, "--vector", "0,0,1"],
                 ["signsets", h3_path, "--plane", "1,0,0;0,1,0"],
                 ["classify", h3_path], ["maxmin", h3_path],
                 ["verify-paper", "--only", "spectra"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        strict_json(out)
    spec.write_text(json.dumps({"lambdas": [0, 0, 0]}))
    code, out, _ = run(capsys, "deform", h3_path, str(spec), "--json")
    assert code == 0 and strict_json(out)["gap"] is None
    spec.write_text(json.dumps({"lambdas": [-1, -1, 1]}))
    code, out, _ = run(capsys, "deform", h3_path, str(spec), "--t", "600",
                       "--json")
    assert code == 0
    assert strict_json(out)["ricci_t"]["eigenvalues"] == [None] * 3
    code, out, _ = run(capsys, "deform", h3_path, str(spec), "--t", "600")
    assert code == 0 and "-inf  -inf  inf" in out


def test_signsets_vector(h3_path, capsys):
    code, out, _ = run(capsys, "signsets", h3_path,
                       "--vector", "0,0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["g_pos"]
    assert data["tolerances"]["ric_positive"] == RIC_POSITIVE_MIN
    assert data["witnesses"][0]["value"] > RIC_POSITIVE_MIN


@pytest.mark.parametrize("vector", ["1e8,1,0", "1e12,1,0"])
def test_signsets_vector_nearly_parallel_to_a_basis_vector(h3_path, capsys,
                                                           vector):
    """x within 1e-8 rad of e_0, the basis vector that brackets it: the
    witness basis pairs x with the part of e_0 orthogonal to x."""
    code, out, _ = run(capsys, "signsets", h3_path, "--vector", vector,
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["outside"]
    assert data["witnesses"][0]["value"] < -1e-9


@pytest.mark.parametrize("key, params, flag, value, kind", [
    ("filiform4", {}, "--vector", "1e-10,0,0,0", "ric_negative"),
    ("filiform4", {}, "--vector", "1e-12,0,0,0", "ric_negative"),
    ("L58", {}, "--vector", "1e-10,0,0,0,0", "ric_negative"),
    ("heisenberg", {"m": 1}, "--vector", "1e-11,1e-11,0", "ric_negative"),
    ("filiform4", {}, "--plane", "1e-10,0,0,0;0,1e-10,0,0", "K_negative"),
])
def test_signsets_short_vectors(tmp_path, capsys, key, params, flag, value,
                                kind):
    """Targets far below unit length get their witness: the searches
    scale them by a power of two first."""
    path = tmp_path / "alg.json"
    save_algebra(build(key, **params), path)
    code, out, err = run(capsys, "signsets", str(path), f"{flag}={value}",
                         "--json")
    assert (code, err) == (0, "")
    witness = json.loads(out)["witnesses"][0]
    assert witness["kind"] == kind
    assert witness["value"] < -1e-9


def test_signsets_plane_negative_witness(h3_path, capsys):
    code, out, _ = run(capsys, "signsets", h3_path,
                       "--plane", "1,0,0;0,1,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == []
    assert data["witnesses"][0]["kind"] == "K_negative"
    assert data["tolerances"]["K_negative"] == K_NEGATIVE_MAX
    assert data["witnesses"][0]["value"] < K_NEGATIVE_MAX


def test_signsets_plane_G2_meeting_center(tmp_path, capsys):
    path = tmp_path / "h3xA1.json"
    save_algebra(build("heisenberg_x_abelian", l=1, pad=1), path)
    code, out, _ = run(capsys, "signsets", str(path),
                       "--plane", "1,0,0,0;0,0,1,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["G1", "G2", "G_geq", "G_pos"]
    assert data["witnesses"] == []


def test_signsets_witness_does_not_depend_on_seed(h3_path, capsys):
    witnesses = []
    for seed in ("0", "7"):
        code, out, _ = run(capsys, "signsets", h3_path, "--plane",
                           "1,0,0;0,1,0", "--json", "--seed", seed)
        assert code == 0
        witnesses.append(json.loads(out)["witnesses"])
    assert witnesses[0] == witnesses[1]
    assert witnesses[0] and "seed" not in witnesses[0][0]


def test_signsets_requires_exactly_one(h3_path, capsys):
    code, _, _ = run(capsys, "signsets", h3_path)
    assert code == 2
    code, _, _ = run(capsys, "signsets", h3_path, "--vector", "1,0,0",
                     "--plane", "1,0,0;0,1,0")
    assert code == 2


def test_classify(tmp_path, capsys):
    p = tmp_path / "l5.json"
    save_algebra(build("L5_lemma7a"), p)
    code, out, _ = run(capsys, "classify", str(p), "--json")
    assert code == 0
    v = json.loads(out)["verdict"]
    assert v["lemma7_classes"] == ["derivation"]
    assert v["N"] == 5 and v["L_shape"] == "lemma7a"
    assert "budget_note" not in v


def test_maxmin_abelian_convention(tmp_path, capsys):
    p = tmp_path / "ab.json"
    save_algebra(build("abelian", n=3), p)
    code, out, _ = run(capsys, "maxmin", str(p), "--json")
    assert code == 0
    data = json.loads(out)
    assert "identically zero" in data["note"]
    assert data["expected_M"]["dim"] == 3


def test_maxmin_two_step(h3_path, capsys):
    code, out, _ = run(capsys, "maxmin", h3_path, "--samples", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["candidates"]
    assert all(c["converged"] for c in data["candidates"])
    assert data["candidates_in_expected_subspace"] == len(data["candidates"])


@pytest.mark.parametrize("command", ["classify", "maxmin"])
@pytest.mark.parametrize("samples", ["0", "-3", "1.5"])
def test_samples_must_be_positive(h3_path, capsys, command, samples):
    """maxmin refuses a sample count that is not a positive integer;
    classify draws nothing, so it refuses --samples of any value."""
    with pytest.raises(SystemExit) as exc:
        main([command, h3_path, "--samples", samples, "--json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if command == "classify":
        assert "unrecognized arguments: --samples" in err
    else:
        assert "positive integer" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "x"])
def test_maxmin_tol_must_be_positive_and_finite(h3_path, capsys, tol):
    """A --tol that is not a positive finite number is refused before any
    candidate is drawn: NaN would print as the non-JSON token NaN, and a
    tolerance <= 0 would mark every candidate unconverged."""
    with pytest.raises(SystemExit) as exc:
        main(["maxmin", h3_path, f"--tol={tol}", "--json"])
    assert exc.value.code == 2
    assert "positive finite number" in capsys.readouterr().err


def test_classify_takes_no_samples(h3_path, capsys):
    """classify draws nothing, so its config has no samples; it keeps
    --seed, which every subcommand takes and echoes."""
    code, out, _ = run(capsys, "classify", h3_path, "--seed", "105", "--json")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["seed"] == 105 and "samples" not in config


# (catalog key, parameters, seed): one random metric of each run has
# cond(G) of about 3e6, and an absolute 1e-10 unit-norm test dropped it
ILL_CONDITIONED_MAXMIN = [("heisenberg", {"m": 1}, 105),
                          ("heisenberg", {"m": 1}, 109),
                          ("heisenberg", {"m": 2}, 4),
                          ("L54", {}, 4),
                          ("heisenberg_x_abelian", {"l": 2, "pad": 2}, 100)]


def test_maxmin_two_step_keeps_ill_conditioned_samples(tmp_path, capsys):
    """The orthonormality bound scales with cond(G), so every sample of
    these runs gives a converged two-step candidate."""
    for key, params, seed in ILL_CONDITIONED_MAXMIN:
        path = tmp_path / f"{key}.json"
        save_algebra(build(key, **params), path)
        code, out, _ = run(capsys, "maxmin", str(path), "--seed", str(seed),
                           "--json")
        data = json.loads(out)
        assert code == 0 and data["notes"] == [], (key, seed)
        assert len(data["candidates"]) == 10
        assert all(c["converged"] for c in data["candidates"])


@pytest.mark.parametrize("seed", ["1", "105"])
def test_maxmin_converges_on_the_catalog(tmp_path, capsys, seed):
    """Every candidate of every catalog algebra converges to the maximal
    direction of its own deformation."""
    run(capsys, "catalog", "--emit-json", str(tmp_path))
    for path in sorted(tmp_path.glob("*.json")):
        code, out, _ = run(capsys, "maxmin", str(path), "--seed", seed,
                           "--json")
        assert code == 0, path.name


def test_verify_paper_only_and_determinism(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify-paper", "--only", "spectra",
                           "--json", "--seed", "0")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, _, err = run(capsys, "verify-paper", "--only", "nope")
    assert code == 2


def test_out_flag_writes_file(h3_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ric", h3_path, "--json",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["eigenvalues"]


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version and argparse errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_requests_in_one_process_match_fresh_processes(h3_path, capsys):
    """The parser is built once per process, and back-to-back requests of
    different subcommands, --version and an argparse error (exit 2) print
    what each prints in a fresh process."""
    requests = [["signsets", h3_path, "--vector", "1,0,0", "--json"],
                ["check", h3_path],
                ["--version"],
                ["ric", h3_path, "--seed", "x"],
                ["sect", h3_path, "--plane", "1,0,0;0,0,1", "--json"]]
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    fresh = []
    for argv in requests:
        p = subprocess.run([sys.executable, "-m", "nilcurv.cli", *argv],
                           env=env, capture_output=True, text=True,
                           timeout=60)
        fresh.append((p.returncode, p.stdout, p.stderr))
    for i in [*range(len(requests)), *reversed(range(len(requests)))]:
        assert _in_process(capsys, requests[i]) == fresh[i], requests[i]
    assert cli._parser() is cli._parser()


def test_signsets_plane_of_many_decades_reports_witness_error(tmp_path,
                                                              capsys):
    """A plane whose adapted basis complete_basis cannot complete is a
    witness_error with exit 1, not a traceback."""
    path = tmp_path / "L52.json"
    save_algebra(build("L52"), path)
    code, out, err = run(capsys, "signsets", str(path), "--plane",
                         "0,-1e-08,10,0,-1;-1000,0,0,0,1000", "--json")
    assert code == 1 and err == ""
    assert json.loads(out)["witness_error"].startswith("adapted basis")


def test_signsets_plane_of_many_decades_on_an_abelian_algebra(tmp_path,
                                                             capsys):
    """With every structure constant 0 the exact plane labels still
    choose Python ints for vectors too large for int64."""
    path = tmp_path / "abelian_n3.json"
    save_algebra(build("abelian", n=3), path)
    code, out, err = run(capsys, "signsets", str(path), "--plane",
                         "1e-08,10.0,0.0;1e-09,9.313225746154785e-10,1000.0",
                         "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["labels"] == ["G1", "G_geq", "G_zero"]
