"""CLI determinism, golden files, exit codes."""

import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout
from decimal import Decimal

import pytest

from conftest import HangGuard
from gaugeworks.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
JOBS = sorted((FIXTURES / "jobs").glob("*.json"))
# golden files were produced with paths relative to the fixtures directory
REL_JOBS = [f"jobs/{j.name}" for j in JOBS]


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_compute_corpus_matches_golden_bytes(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    code, out = run_cli(["compute"] + REL_JOBS)
    assert code == 0
    golden = (FIXTURES / "golden" / "compute_all.txt").read_text(encoding="utf-8")
    assert out == golden


def test_compute_is_byte_deterministic_across_runs():
    args = ["compute"] + [str(j) for j in JOBS]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second and first[0] == 0


def test_reports_match_golden_bytes(tmp_path):
    for job in JOBS:
        report = tmp_path / (job.stem + ".report.json")
        code, _ = run_cli(["compute", str(job), "--report", str(report)])
        assert code == 0
        golden = FIXTURES / "golden" / (job.stem + ".report.json")
        assert report.read_bytes() == golden.read_bytes()


def test_parallel_execution_gives_identical_bytes():
    paths = [str(j) for j in JOBS]
    seq = subprocess.run(
        [sys.executable, "-m", "gaugeworks", "compute"] + paths,
        capture_output=True, cwd=str(FIXTURES.parent.parent))
    par = subprocess.run(
        [sys.executable, "-m", "gaugeworks", "compute", "--jobs", "4"] + paths,
        capture_output=True, cwd=str(FIXTURES.parent.parent))
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def test_tables_match_golden_bytes():
    chunks = []
    for args in (["table", "tate", "--prime", "3", "--min", "-5", "--max", "5"],
                 ["table", "bk", "--prime", "3"],
                 ["table", "bk", "--prime", "5"],
                 ["table", "weights", "--prime", "3", "--min", "-5", "--max", "5"]):
        code, out = run_cli(args)
        assert code == 0
        chunks.append(out)
    golden = (FIXTURES / "golden" / "tables.txt").read_text(encoding="utf-8")
    assert "".join(chunks) == golden


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_malformed_matrix_row_exits_1(capsys):
    code, _ = run_cli(["compute", str(FIXTURES / "malformed" / "bad_row.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "payload.frobenius[1]" in err  # the message names the field


def test_gauge_law_violation_exits_2(capsys):
    code, _ = run_cli(["compute", str(FIXTURES / "malformed" / "bad_ut.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ut = tu = p failed at index 1" in err  # the message quotes the law


def test_composite_prime_exits_1(capsys):
    code, _ = run_cli(["compute", str(FIXTURES / "malformed" / "bad_prime.json")])
    assert code == 1
    assert "prime" in capsys.readouterr().err


def test_prime_past_the_exact_primality_range_exits_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    doc = json.loads((FIXTURES / "jobs" / "gauge_torsion.json").read_text(encoding="utf-8"))
    doc["prime"] = 2 ** 89 - 1  # prime, but beyond 3.3 * 10^24
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["compute", str(path)])[0] == 1
    assert "must be below" in capsys.readouterr().err


@pytest.mark.parametrize("job", JOBS, ids=lambda j: j.stem)
def test_fixture_jobs_finish_at_a_61_bit_prime(tmp_path, job):
    doc = json.loads(job.read_text(encoding="utf-8"))
    doc["prime"] = 2 ** 61 - 1
    path = tmp_path / job.name
    path.write_text(json.dumps(doc), encoding="utf-8")
    with HangGuard(60):
        code, out = run_cli(["compute", str(path)])
    assert code == 0 and f"prime: {2 ** 61 - 1}" in out


@pytest.mark.parametrize("name, field", [
    ("bad_window.json", "payload.window"),
    ("bad_fields.json", "payload.fields"),
    ("bad_transitions.json", "payload.filtration.transitions"),
    ("bad_payload.json", "payload"),
    ("bad_outputs.json", "outputs"),
    ("bad_fcrystal.json", "payload.fcrystal"),
    ("bad_filtration.json", "payload.filtration"),
    ("bad_module.json", "payload.modules[0]"),
    ("bad_htc.json", "payload.htc"),
    ("bad_htc_dims.json", "payload.htc.dims"),
    ("bad_htc_x.json", "payload.htc.x"),
    ("bad_htc_x_count.json", "payload.htc"),
    ("bad_flag.json", "payload.drp.flags[0]"),
    ("bad_alpha_hod.json", "payload.alpha_hod"),
    ("bad_alpha_hod_entry.json", "payload.alpha_hod[-2]"),
    ("bad_weights.json", "payload.weights"),
    # the right JSON type but out of range
    ("bad_drp_window.json", "payload.drp.window"),
    ("bad_piece_dim.json", "payload"),
])
def test_wrong_json_type_exits_1_without_traceback(name, field):
    path = str(FIXTURES / "malformed" / name)
    proc = subprocess.run([sys.executable, "-m", "gaugeworks", "compute", path],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    # the one schema-error line and nothing else: no traceback, no warning
    assert proc.stderr.startswith(f"{path}: schema error: {field}:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


NONCOMMUTING_HIGGS = {
    "format": 1, "prime": 3, "kind": "higgs",
    "payload": {"directions": 2, "pieces": {"0": 2, "-1": 2, "-2": 2},
                "fields": {"1": {"0": [[0, 1], [0, 0]], "-1": [[0, 1], [0, 0]]},
                           "2": {"0": [[0, 0], [1, 0]], "-1": [[0, 0], [1, 0]]}}}}


@pytest.mark.parametrize("outputs", [["check"], ["cohomology"], []])
def test_noncommuting_higgs_exits_2_whatever_the_outputs(tmp_path, capsys, outputs):
    # construction checks the commutator laws, so no output escapes them
    path = tmp_path / "higgs.json"
    path.write_text(json.dumps(dict(NONCOMMUTING_HIGGS, outputs=outputs)),
                    encoding="utf-8")
    code, out = run_cli(["compute", str(path)])
    assert code == 2
    assert out == ""
    assert "phi_1 phi_2 != phi_2 phi_1" in capsys.readouterr().err


def lawless_gauge(t, u, tau, free_top):
    return {"format": 1, "prime": 3, "kind": "fgauge", "outputs": ["realization"],
            "payload": {"window": [0, 1], "modules": [{"free": 1}, {"free": free_top}],
                        "t": [t], "u": [u], "tau": tau}}


@pytest.mark.parametrize("doc", [
    # t = 0: the t-composite is singular
    lawless_gauge([["0"]], [["3"]], [["1"]], 1),
    # free ranks 1 and 2 at the two ends: the t-composite is not square
    lawless_gauge([["1", "0"]], [["3"], ["0"]], [["1", "0"]], 2),
])
@pytest.mark.parametrize("verb", ["compute", "check"])
def test_realization_of_lawless_gauge_exits_2(tmp_path, capsys, doc, verb):
    # the realization alone is asked for; the constructor meets the law first
    path = tmp_path / "gauge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli([verb, str(path)])
    assert code == 2
    assert out == ""
    assert "law violated: ut = tu = p failed" in capsys.readouterr().err


LAWLESS_GAUGES = [
    (json.loads((FIXTURES / "malformed" / "bad_ut.json").read_text(encoding="utf-8")),
     "ut = tu = p failed at index 1 (ut != p)"),
    (lawless_gauge([["0"]], [["3"]], [["1"]], 1), "ut = tu = p failed at index 1 (ut != p)"),
    (lawless_gauge([["1", "0"]], [["3"], ["0"]], [["1", "0"]], 2),
     "ut = tu = p failed at index 1 (ut != p)"),
    ({"format": 1, "prime": 3, "kind": "fgauge",
      "payload": {"window": [0, 0], "modules": [{"free": 1}], "t": [], "u": [],
                  "tau": [["3"]]}},
     "tau must be an isomorphism M^b -> M^a"),
]
GAUGE_OUTPUTS = ("validate", "cohomology", "weights", "realization")


@pytest.mark.parametrize("outputs", [
    [o for k, o in enumerate(GAUGE_OUTPUTS) if mask >> k & 1] for mask in range(16)])
@pytest.mark.parametrize("verb", ["compute", "check"])
def test_lawless_gauge_exits_2_whatever_the_outputs(tmp_path, capsys, outputs, verb):
    # construction checks the gauge laws, so no output escapes them
    for k, (doc, law) in enumerate(LAWLESS_GAUGES):
        path = tmp_path / f"gauge{k}.json"
        path.write_text(json.dumps(dict(doc, outputs=outputs)), encoding="utf-8")
        code, out = run_cli([verb, str(path)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"{path}: law violated: {law}\n"


def test_check_verb_reports_per_file(capsys):
    good = str(FIXTURES / "jobs" / "tate1.json")
    bad = str(FIXTURES / "malformed" / "bad_ut.json")
    code, out = run_cli(["check", good, bad])
    assert code == 2
    assert out == f"ok: {good}\n"


def test_prime_flag_conflict_is_schema_error():
    code, _ = run_cli(["compute", str(FIXTURES / "jobs" / "tate1.json"),
                       "--prime", "5"])
    assert code == 1


def test_prime_flag_supplies_missing_prime(tmp_path):
    doc = {"format": 1, "kind": "filphi", "payload": {"tate": 2}}
    path = tmp_path / "noprime.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["compute", str(path), "--prime", "5"])
    assert code == 0
    assert "prime: 5" in out


def test_report_roundtrips_rationals(tmp_path):
    job = FIXTURES / "jobs" / "fcrystal.json"
    report = tmp_path / "r.json"
    code, _ = run_cli(["compute", str(job), "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["format"] == 1
    # the realization is written in the normal-form basis: exponents sorted
    assert data["results"]["realization_frobenius"] == [["1/3", "0"], ["0", "1"]]


def test_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(["compute", str(path)])
    assert code == 1


def test_integer_past_the_digit_limit_is_schema_error(tmp_path):
    # json.loads refuses integer literals over 4300 digits; the limit stays,
    # since an exponent that long would hang in p ** n
    path = tmp_path / "huge.json"
    path.write_text('{"format": 1, "prime": 3, "kind": "filphi", '
                    '"payload": {"tate": ' + "7" * 5000 + "}}", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "gaugeworks", "compute", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{path}: schema error: $: invalid JSON:")
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


def test_realization_past_the_digit_limit_is_exact(tmp_path):
    # at the window [10000, 10000] the Frobenius is 3^10000, 4772 digits
    doc = {"format": 1, "prime": 3, "kind": "fgauge", "outputs": ["realization"],
           "payload": {"window": [10000, 10000], "modules": [{"free": 1}],
                       "t": [], "u": [], "tau": [["1"]]}}
    path, report = tmp_path / "big.json", tmp_path / "big.report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with HangGuard(60):
        code, out = run_cli(["compute", str(path), "--report", str(report)])
    assert code == 0 and "rational realization dim: 1" in out
    entry = json.loads(report.read_text(encoding="utf-8"))["results"][
        "realization_frobenius"][0][0]
    # read back through Decimal, which int parsing's digit limit does not cover
    assert len(entry) == 4772 and int(Decimal(entry)) == 3 ** 10000


def test_seed_env_var_never_affects_computation():
    # GAUGEWORKS_SEED drives the random test corpora only
    job = str(FIXTURES / "jobs" / "fcrystal.json")
    import os
    env = dict(os.environ)
    out = {}
    for seed in (None, "1", "987654321"):
        env.pop("GAUGEWORKS_SEED", None)
        if seed is not None:
            env["GAUGEWORKS_SEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "gaugeworks", "compute", job],
            capture_output=True, env=env)
        out[seed] = (proc.returncode, proc.stdout)
    assert out[None] == out["1"] == out["987654321"]


# ---------------------------------------------------------------------------
# computed integers past the 4300-digit limit of str(int)
# ---------------------------------------------------------------------------

HUGE = 6 * 10 ** 4299  # 4300 digits: still a legal JSON integer in a job

HUGE_JOBS = {
    # Hodge number 2 * HUGE + 1, 4301 digits
    "hodge": ({"format": 1, "prime": 3, "kind": "filphi", "outputs": ["hodge"],
               "payload": {"dim": 2, "frobenius": [["1", "0"], ["0", "1"]],
                           "filtration": {"window": [HUGE, HUGE + 1], "dims": [2, 1],
                                          "transitions": [[["1"], ["0"]]]}}},
              "hodge: ", 2 * HUGE + 1),
    # the default weights run up to the top piece plus one direction: 10^4300
    "higgs": ({"format": 1, "prime": 3, "kind": "higgs",
               "payload": {"directions": 1, "pieces": {str(10 ** 4300 - 1): 1}}},
              "weight ", 10 ** 4300),
}


@pytest.mark.parametrize("name", sorted(HUGE_JOBS))
def test_computed_integers_past_the_digit_limit_print_in_full(tmp_path, name):
    doc, prefix, value = HUGE_JOBS[name]
    digits = str(Decimal(value))
    assert len(digits) == 4301
    path, report = tmp_path / "huge.json", tmp_path / "huge.report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    with HangGuard(60):
        code, out = run_cli(["compute", str(path), "--report", str(report)])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert f"\n{prefix}{digits}" in out
    results = json.loads(report.read_text(encoding="utf-8"), parse_int=Decimal)["results"]
    if name == "hodge":
        assert results["hodge"] == Decimal(value)  # a JSON number, not a string
    else:
        assert digits in results["cohomology"]


def test_count_past_the_digit_limit_is_schema_error(tmp_path, capsys):
    # the window holds 10^4300 + 1 indices, a count str() cannot print
    doc = {"format": 1, "prime": 3, "kind": "filphi",
           "payload": {"dim": 1, "frobenius": [["1"]],
                       "filtration": {"window": [-5 * 10 ** 4299, 5 * 10 ** 4299],
                                      "dims": [1]}}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["compute", str(path)]) == (1, "")
    assert capsys.readouterr().err == (f"{path}: schema error: payload.filtration.dims: "
                                       f"expected {Decimal(10 ** 4300 + 1)} entries\n")


# ---------------------------------------------------------------------------
# one status loop for check and compute
# ---------------------------------------------------------------------------

MALFORMED = sorted((FIXTURES / "malformed").glob("*.json"))


@pytest.mark.parametrize("job", MALFORMED, ids=lambda j: j.stem)
def test_check_reports_a_malformed_job_as_compute_does(capsys, job):
    law = job.stem == "bad_ut"  # every other malformed fixture breaks the schema
    code, out = run_cli(["compute", str(job)])
    err = capsys.readouterr().err
    assert (code, out) == (2 if law else 1, "")
    assert err.startswith(f"{job}: {'law violated' if law else 'schema error'}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert run_cli(["check", str(job)]) == (code, "")
    assert capsys.readouterr().err == err


def test_parallel_compute_keeps_a_bad_file_out_of_stdout():
    good = str(FIXTURES / "jobs" / "tate1.json")
    bad = str(FIXTURES / "malformed" / "bad_row.json")
    par, seq = (subprocess.run([sys.executable, "-m", "gaugeworks", "compute", *flags,
                                good, bad], capture_output=True, text=True)
                for flags in (["--jobs", "2"], []))
    code, out = run_cli(["compute", good])
    assert code == 0
    assert par.returncode == 1 and par.stdout == out
    assert par.stderr.startswith(f"{bad}: schema error: payload.frobenius[1]:")
    assert par.stderr.count("\n") == 1
    assert (seq.returncode, seq.stdout, seq.stderr) == (par.returncode, par.stdout,
                                                        par.stderr)
