import json

import pytest

import maxsat34.cli as cli
import maxsat34.oracle
from maxsat34 import LemmaViolation, parse_dimacs, write_dimacs

UNIT = "p wcnf 1 1\n1 1 0\n"
PAIR = "p wcnf 2 2\n1 1 2 0\n1 -1 0\n"


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.wcnf"
    path.write_text(UNIT)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.wcnf"
    path.write_text(PAIR)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_text(capsys, unit_file):
    code, out, _ = run(capsys, "solve", "--alg", "rand34", "--seed", "7", unit_file)
    assert code == 0
    assert "weight: 1" in out
    assert "assignment: 1" in out


def test_solve_structured_deterministic(capsys, pair_file):
    code, out1, _ = run(
        capsys, "solve", "--alg", "rand34", "--seed", "3", "--trace",
        "--format", "structured", pair_file,
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "solve", "--alg", "rand34", "--seed", "3", "--trace",
        "--format", "structured", pair_file,
    )
    assert out1 == out2
    report = json.loads(out1)
    assert report["weight"] == 2
    assert report["trace"][0]["var"] == 1


def test_solve_lp_round_prints_bound(capsys, pair_file):
    code, out, _ = run(capsys, "solve", "--alg", "lp-round", pair_file)
    assert code == 0
    assert "opt_lp:" in out
    assert "guarantee:" in out


def test_solve_brute(capsys, pair_file):
    code, out, _ = run(
        capsys, "solve", "--alg", "brute", "--format", "structured", pair_file
    )
    assert code == 0
    report = json.loads(out)
    assert report["weight"] == 2
    assert report["assignment"] == "01"


def test_solve_all_algorithms(capsys, pair_file):
    for alg in cli.ALGORITHMS:
        code, _, _ = run(capsys, "solve", "--alg", alg, pair_file)
        assert code == 0


def test_solve_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("p wcnf 1 1\n1 2 0\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "out of range" in err


def test_expectation_exact(capsys, unit_file):
    code, out, _ = run(capsys, "expectation", unit_file)
    assert code == 0
    assert "expectation: 1" in out


def test_expectation_with_trials(capsys, pair_file):
    code, out, _ = run(
        capsys, "expectation", "--trials", "2000", "--format", "structured",
        pair_file,
    )
    assert code == 0
    report = json.loads(out)
    assert report["expectation"] == "2"
    assert report["trials"] == 2000
    assert float(report["abs_deviation"]) < 0.1


def test_expectation_trials_zero_is_exact_only(capsys, unit_file):
    code, out, _ = run(capsys, "expectation", "--trials", "0", unit_file)
    assert code == 0
    assert "trials" not in out


def test_expectation_rejects_negative_trials(capsys, unit_file):
    code, out, err = run(capsys, "expectation", "--trials", "-5", unit_file)
    assert code == 2
    assert out == ""
    assert "--trials must be >= 0, got -5" in err


def test_verify_single_instance(capsys, unit_file):
    code, out, _ = run(capsys, "verify", unit_file)
    assert code == 0
    assert "all_pass: True" in out
    assert "min_ratio: 1" in out


def test_verify_corpus_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--corpus", "n=5,m=8,count=20,seed=1",
        "--format", "structured",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["count"] == 20
    assert report["corpus"]["n"] == 5  # parameters embedded for replay
    assert "skipped" not in report  # only present when nonzero


def test_verify_structured_reports_identical(capsys):
    args = ("verify", "--corpus", "n=4,m=6,count=5,seed=2", "--format", "structured")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_corrupted_bookkeeping_names_lemma1(capsys, unit_file, monkeypatch):
    real = maxsat34.oracle.step_quantities

    def corrupted(state):
        real(state)
        raise LemmaViolation("Lemma 1 violated at x1: t2 + f2 = -2 < 0")

    monkeypatch.setattr(maxsat34.oracle, "step_quantities", corrupted)
    code, out, _ = run(capsys, "verify", unit_file)
    assert code == 1
    assert "Lemma 1" in out


def test_verify_skips_oversized_instance(capsys, tmp_path, unit_file):
    big = tmp_path / "n16.wcnf"
    big.write_text("p wcnf 16 1\n1 16 0\n")
    code, out, _ = run(
        capsys, "verify", "--verbose", "--format", "structured",
        str(big), unit_file,
    )
    assert code == 0
    report = json.loads(out)
    assert (report["count"], report["skipped"], report["all_pass"]) == (2, 1, True)
    skipped, checked = report["instances"]
    assert "pass" not in skipped
    assert "exceeds expectation limit" in skipped["skipped"]
    assert checked["pass"] is True
    assert "failing" not in report


def test_verify_that_checked_nothing_fails(capsys, tmp_path):
    big = tmp_path / "n16.wcnf"
    big.write_text("p wcnf 16 1\n1 16 0\n")
    code, out, _ = run(capsys, "verify", "--format", "structured", str(big))
    assert code == 1
    report = json.loads(out)
    assert (report["count"], report["skipped"], report["all_pass"]) == (1, 1, False)
    code, out, _ = run(
        capsys, "verify", "--corpus", "count=0", "--format", "structured"
    )
    assert code == 1
    report = json.loads(out)
    assert (report["count"], report["all_pass"]) == (0, False)


def test_verify_needs_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "need input" in err


def test_corpus_writes_parseable_files(capsys, tmp_path):
    out_dir = tmp_path / "corp"
    code, out, _ = run(
        capsys, "corpus", "--n", "4", "--m", "6", "--count", "3",
        "--seed", "9", "--out-dir", str(out_dir),
    )
    assert code == 0
    files = sorted(out_dir.glob("*.wcnf"))
    assert len(files) == 3
    for path in files:
        f = parse_dimacs(path.read_text())
        assert write_dimacs(f) == path.read_text()


def test_out_path(capsys, tmp_path, unit_file):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "solve", "--format", "structured", "--out", str(target), unit_file
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["weight"] == 1


def test_order_shuffled_still_correct(capsys, pair_file):
    code, out, _ = run(
        capsys, "solve", "--order", "shuffled", "--order-seed", "4",
        "--format", "structured", pair_file,
    )
    assert code == 0
    assert json.loads(out)["weight"] >= 1
