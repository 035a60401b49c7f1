"""End-to-end checks of the command-line surface."""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from onerelator import Word, cli, free_alphabet, parse_word, spheres, strata
from onerelator.cli import MAX_HORIZON_PERIODS, main
from onerelator.words import MAX_LETTERS
from conftest import bigon_pencil, subprocess_env
import surjectivity_reference as reference

GOLDEN = "tests/data/random_seed0_size3.json"
#: ``save_complex(mirrored_pair())``: its two faces are a type-1 pair
MIRRORED = "tests/data/mirrored_pair.json"
#: stands for the golden complex without its last face, which loads but is no
#: sphere; ``no_sphere`` writes it
NO_SPHERE = "<golden complex without its last face>"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def no_sphere(tmp_path) -> str:
    """Write the golden complex without its last face; return its path."""
    doc = json.loads(Path(GOLDEN).read_text())
    doc["faces"].pop()
    path = tmp_path / "no_sphere.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- happy paths --------------------------------------------------------------


def test_analyze_gt(capsys):
    code, out, err = run_cli(capsys, "analyze", "--word", "at")
    assert code == 0
    assert out["command"] == "analyze"
    assert out["report"]["status"] == "Surjective"
    assert out["report"]["reason"] == "GtCollapse"
    assert "analyze: done" in err


def test_analyze_main_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--word", "bTatct", "--rank", "3"
    )
    assert code == 0
    rep = out["report"]
    assert (rep["status"], rep["reason"]) == ("NotSurjective", "MainTheorem")
    assert rep["evidence"]["t_shape"] == [-1, 1, 1]


def test_decompose(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--word", "bTatct", "--rank", "3"
    )
    assert code == 0
    rep = out["report"]
    assert rep["m"] == 1
    assert rep["pairs"] == [["(b)@0", "(a)@0"]]
    assert rep["two_variable_word"] == "bSascs"


def test_shape(capsys):
    code, out, _ = run_cli(capsys, "shape", "--word", "aT^2bt^3")
    assert code == 0
    rep = out["report"]
    assert rep["t_shape"] == [-2, 3]
    assert rep["exponent_sum"] == 1
    assert rep["coefficients"] == ["a", "b", ""]
    assert rep["amenable_known"] is False


def test_shape_amenable(capsys):
    _, out, _ = run_cli(capsys, "shape", "--word", "at")
    assert out["report"]["amenable"] is True


def test_validate(capsys):
    code, out, _ = run_cli(capsys, "validate", "--complex", GOLDEN)
    assert code == 0
    rep = out["report"]
    assert rep["passed"] is True
    assert "type1_witness" in rep and "type2_witness" in rep
    assert "csl" not in rep


def test_validate_long_bigon_pencil(tmp_path, capsys):
    """1,100 2-gons between two vertices: a chain deeper than Python's
    recursion limit, and no trivial chain."""
    path = tmp_path / "pencil.json"
    spheres.save_complex(bigon_pencil(["a"] * 1100), str(path))
    code, out, err = run_cli(capsys, "validate", "--complex", str(path))
    assert code == 0, err
    assert out["report"]["passed"] is True
    assert out["report"]["type2_witness"] is None


def test_validate_with_word(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--complex", GOLDEN, "--word", "at"
    )
    assert code == 0
    csl = out["report"]["csl"]
    assert set(csl) == set("abcdefg")
    for item in csl.values():
        assert set(item) == {"detail", "passed"}


def test_validate_runs_each_step_once(capsys, monkeypatch):
    """``validate --word`` validates and runs each detector once: the CSL
    report is judged from the results the command already holds."""
    calls = dict.fromkeys(("validate_sphere", "detect_type1", "detect_type2"), 0)
    for name in calls:
        original = getattr(spheres, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cli, name, counted)
        monkeypatch.setattr(spheres, name, counted)
    code, out, _ = run_cli(capsys, "validate", "--complex", GOLDEN, "--word", "at")
    assert code == 0 and set(out["report"]["csl"]) == set("abcdefg")
    assert calls == dict.fromkeys(calls, 1)


def test_simulate_default_horizon(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--complex", GOLDEN)
    assert code == 0
    rep = out["report"]
    assert rep["at_least_two_complete_crashes"] in (True, False)
    assert rep["seed"] == 0
    assert all("/" in e["time"] for e in rep["events"])


def test_simulate_explicit_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--complex", GOLDEN, "--horizon", "3/2", "--seed", "4"
    )
    assert code == 0
    rep = out["report"]
    assert rep["at_least_two_complete_crashes"] is None
    assert rep["horizon"] == "3/2"


def test_certify(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--word", "aTatt", "--rank", "1", "--max-degree", "4"
    )
    assert code == 0
    cert = out["report"]["certificate"]
    assert cert["degree"] == 3
    assert sorted(cert["images"]) == ["a", "t"]


def test_certify_none(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--word", "at", "--rank", "1", "--max-degree", "3"
    )
    assert code == 0
    assert out["report"]["certificate"] is None


def test_certify_unused_generator_at_identity(capsys):
    """bTbtt leaves a out of the search: a is reported at the identity."""
    code, out, _ = run_cli(capsys, "certify", "--word", "bTbtt", "--max-degree", "4")
    assert code == 0
    cert = out["report"]["certificate"]
    assert cert["degree"] == 3
    assert cert["images"] == {"a": [0, 1, 2], "b": [1, 0, 2], "t": [1, 2, 0]}


def test_certify_none_up_to_degree_6(capsys):
    """b is unused in atattaTT, so degree 6 at rank 2 costs no 6! factor."""
    code, out, _ = run_cli(
        capsys, "certify", "--word", "atattaTT", "--rank", "2", "--max-degree", "6"
    )
    assert code == 0
    assert out["report"]["certificate"] is None


def test_search_kernel(capsys):
    code, out, _ = run_cli(
        capsys,
        "search-kernel",
        "--word",
        "at",
        "--target-shape",
        "1",
        "--conj-len",
        "2",
        "--products",
        "2",
    )
    assert code == 0
    found = out["report"]["found"]
    assert found is not None and found["element"] == "at"


def test_search_kernel_miss(capsys):
    code, out, _ = run_cli(
        capsys,
        "search-kernel",
        "--word",
        "atataT",
        "--target-shape",
        "1",
        "--conj-len",
        "2",
        "--products",
        "2",
    )
    assert code == 0
    assert out["report"]["found"] is None


@pytest.mark.parametrize(
    "word,shape,products,element",
    [("ATA", "2", "2", "aattaa"), ("AT", "1,-1,1", "3", "AtaTat")],
)
def test_search_kernel_finds_hits_past_a_cancelling_letter(
    capsys, word, shape, products, element
):
    """Last factors that cancel no t are tried, whatever letter they start with."""
    code, out, _ = run_cli(
        capsys,
        "search-kernel", "--word", word, "--rank", "1", "--target-shape", shape,
        "--conj-len", "1", "--products", products,
    )
    assert code == 0
    assert out["report"]["found"]["element"] == element


def test_search_kernel_negative_shape_forms_agree(capsys):
    """A shape starting with a minus sign may follow its flag as its own argument."""
    common = ("search-kernel", "--word", "bTat", "--conj-len", "2", "--products", "2")
    outputs = []
    for shape in (
        ("--target-shape", "-1,1"),
        ("--target-shape=-1,1",),
        ("--target", "-1,1"),
    ):
        assert main([*common, *shape]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["report"]["target_shape"] == [-1, 1]


# -- determinism --------------------------------------------------------------


GOLDEN_REPORTS = Path("tests/data/golden")

#: report name -> CLI arguments; ``<name>.out`` holds the expected stdout bytes
GOLDEN_CASES = {
    "analyze_gt": ("analyze", "--word", "abtAB"),
    "analyze_main_theorem": ("analyze", "--word", "bTatct", "--rank", "3"),
    "analyze_exponent_sum": ("analyze", "--word", "atat"),
    "decompose_pairs": ("decompose", "--word", "bTatct", "--rank", "3"),
    "decompose_gt": ("decompose", "--word", "ct", "--rank", "3"),
    "shape": ("shape", "--word", "aT^2bt^3"),
    "validate": ("validate", "--complex", GOLDEN),
    "validate_word": ("validate", "--complex", GOLDEN, "--word", "at"),
    "validate_word_type1": (
        "validate", "--complex", MIRRORED, "--word", "taTbTc", "--rank", "3",
    ),
    "simulate_default": ("simulate", "--complex", GOLDEN, "--seed", "7"),
    "simulate_horizon": ("simulate", "--complex", GOLDEN, "--horizon", "9/2"),
    "certify_found": ("certify", "--word", "attbT", "--max-degree", "5"),
    "certify_none": ("certify", "--word", "abt", "--max-degree", "4"),
    "search_kernel_hit": (
        "search-kernel", "--word", "bTat", "--target-shape=1,-1",
        "--conj-len", "2", "--products", "2",
    ),
    "search_kernel_hit_two": (
        "search-kernel", "--word", "at", "--target-shape", "1,1",
        "--conj-len", "1", "--products", "2",
    ),
    "search_kernel_miss": (
        "search-kernel", "--word", "atataT", "--target-shape", "1",
        "--conj-len", "2", "--products", "2",
    ),
}


def test_reports_byte_identical():
    """Every command's stdout matches its committed golden report byte for byte."""
    for name, argv in GOLDEN_CASES.items():
        proc = subprocess.run(
            [sys.executable, "-m", "onerelator.cli", *argv],
            capture_output=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN_REPORTS / f"{name}.out").read_bytes(), name
    assert sorted(p.stem for p in GOLDEN_REPORTS.glob("*.out")) == sorted(GOLDEN_CASES)


def test_golden_kernel_hit_is_the_reference_first_hit():
    """The recorded two-factor hit is the brute force's first one."""
    report = json.loads((GOLDEN_REPORTS / "search_kernel_hit_two.out").read_text())
    found = report["report"]["found"]
    at = parse_word("at", free_alphabet(1))
    hit = reference.normal_closure_search(at, (1, 1), 1, 2)
    assert found == {
        "element": str(hit.element),
        "factors": [[str(u), sign] for u, sign in hit.factors],
    }
    assert found == {"element": "atat", "factors": [["", 1], ["", 1]]}


def test_certificate_recheck_survives_optimize():
    """A certificate that fails its re-check exits 3, even under ``python -O``."""
    code = (
        "import sys, onerelator.cli as cli\n"
        "cli.verify_certificate = lambda pres, cert: False\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ("certify", "--word", "aTatt", "--rank", "1", "--max-degree", "4")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *argv],
        capture_output=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == b""


# -- failure modes ------------------------------------------------------------


def test_bad_word_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "analyze", "--word", "ax")
    assert code == 2 and out is None and "error" in err
    # the word is read before the complex, whether or not that is a sphere
    for path in (GOLDEN, no_sphere(tmp_path)):
        for word in ("%%", "z"):
            code, out, err = run_cli(
                capsys, "validate", "--complex", path, "--word", word
            )
            assert code == 2 and out is None and "error" in err
    # 1,400 characters whose powers expand to 2,000,000 letters
    code, out, err = run_cli(capsys, "analyze", "--word", "a^10000b^10000" * 100)
    assert code == 2 and out is None and f"longer than {MAX_LETTERS} letters" in err


def test_bad_rank_word_exits_2(capsys):
    code, _, _ = run_cli(capsys, "decompose", "--word", "c", "--rank", "2")
    assert code == 2


def test_rank_below_one_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--word", "t", "--rank", "0")
    assert code == 2 and out is None and "rank must be at least 1" in err


def test_decompose_nonunit_exponent_exits_2(capsys):
    code, _, _ = run_cli(capsys, "decompose", "--word", "att")
    assert code == 2


def test_missing_complex_exits_2(capsys):
    code, _, _ = run_cli(capsys, "validate", "--complex", "no/such/file.json")
    assert code == 2


def test_invalid_complex_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": []}))
    code, _, _ = run_cli(capsys, "validate", "--complex", str(path))
    assert code == 2
    # loads, but without a face it is no sphere, so there is nothing to simulate
    code, out, err = run_cli(capsys, "simulate", "--complex", no_sphere(tmp_path))
    assert code == 2 and out is None
    assert "complex is not a valid sphere subdivision" in err


def test_unreadable_complex_exits_2(tmp_path, capsys):
    doc = json.loads(Path(GOLDEN).read_text())
    doc["distinguished"]["v0"] = ["v0"]
    path = tmp_path / "bad.json"
    for content in (
        json.dumps(doc).encode(),  # an unhashable distinguished id
        b'{"vertices": ["\xff"]}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    ):
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "validate", "--complex", str(path))
        assert code == 2 and out is None and err.startswith("error: ")


def test_complex_label_with_t_exits_2(tmp_path, capsys):
    doc = json.loads(Path(GOLDEN).read_text())
    corner = next(
        c for f in doc["faces"] for c in f["corners"] if c["label"] is not None
    )
    corner["label"] = "aT"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--complex", str(path))
    assert code == 2 and out is None and "not a base-group word" in err


def test_bad_horizon_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--complex", GOLDEN, "--horizon", "x"
    )
    assert code == 2


def test_horizon_cap(capsys):
    """Uniform cars on the golden complex have common period 6, so the
    horizon is capped at 6 * MAX_HORIZON_PERIODS; a huge one is refused
    before any simulation."""
    cap = 6 * MAX_HORIZON_PERIODS
    code, out, _ = run_cli(
        capsys, "simulate", "--complex", GOLDEN, "--horizon", str(cap)
    )
    assert code == 0 and out["report"]["horizon"] == f"{cap}/1"
    code, out, _ = run_cli(
        capsys, "simulate", "--complex", GOLDEN, "--horizon", f"{cap}.001"
    )
    assert code == 2 and out is None
    started = time.monotonic()
    code, out, err = run_cli(
        capsys, "simulate", "--complex", GOLDEN, "--horizon", "1e9"
    )
    assert time.monotonic() - started < 1
    assert code == 2 and out is None
    assert f"--horizon is capped at {MAX_HORIZON_PERIODS} common periods" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--word", "aA"),
        ("analyze", "--word", ""),
        ("certify", "--word", "aA"),
        ("certify", "--word", ""),
        ("search-kernel", "--word", "aA", "--target-shape", "1"),
        ("search-kernel", "--word", "", "--target-shape", "1"),
        ("simulate", "--complex", GOLDEN, "--horizon", "0"),
        ("simulate", "--complex", GOLDEN, "--horizon", "-5"),
        ("search-kernel", "--word", "at", "--target-shape", "0"),
        ("search-kernel", "--word", "at", "--target-shape", "1,0"),
        ("search-kernel", "--word", "at", "--target-shape", "1", "--conj-len", "0"),
        ("search-kernel", "--word", "at", "--target-shape", "1", "--products", "0"),
        ("validate", "--complex", GOLDEN, "--word", "aA"),
        ("validate", "--complex", GOLDEN, "--word", ""),
        ("validate", "--complex", NO_SPHERE, "--word", "aA"),
    ],
)
def test_vacuous_input_exits_2(tmp_path, capsys, argv):
    """The identity relator, a horizon that simulates nothing, a t-shape
    with a zero entry and an empty search are refused as invalid input."""
    argv = [no_sphere(tmp_path) if arg == NO_SPHERE else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None and err.startswith("error: ")


def test_decomposition_fault_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(strata, "_pair_word", lambda d, sym: Word())
    code, out, err = run_cli(capsys, "decompose", "--word", "bTatct", "--rank", "3")
    assert code == 3 and out is None and err.startswith("internal error: ")


def test_bad_target_shape_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "search-kernel", "--word", "at", "--target-shape", "1,z"
    )
    assert code == 2


def test_degree_cap_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "certify", "--word", "at", "--max-degree", "9"
    )
    assert code == 2


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_degree_below_one_exits_2(capsys, degree):
    code, out, err = run_cli(
        capsys, "certify", "--word", "at", f"--max-degree={degree}"
    )
    assert code == 2 and out is None
    assert f"--max-degree must be at least 1, got {degree}" in err


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
