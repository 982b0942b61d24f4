import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

import maxsat34.cli as cli
import maxsat34.oracle
from maxsat34 import LemmaViolation, parse_dimacs, random_instance, write_dimacs
from maxsat34.oracle import CheckRecord, LemmaReport

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


def test_solve_reads_stdin(capsys, monkeypatch):
    # the first clause spans two lines; the second shares a line with its end
    monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 2 2\n1\n2 0 -1 0\n"))
    code, out, _ = run(capsys, "solve", "-", "--alg", "brute", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert (report["m"], report["weight"], report["assignment"]) == (2, 2, "01")


# SHA-256 of `solve --trace --format structured` on write_dimacs of
# random_instance(12, 30, 3, 10, seed=5), shuffled order, as first recorded;
# rand34 and vanzuylen draw at 6 of the 12 steps
TRACE_DIGESTS = {
    "rand34": "27ab73028056e1355d047e46491da6f91d77c5314ee66deae3b87fe19ca3426c",
    "vanzuylen": "ffe8f5a9016480176f4f07072593b4568c11eac2da8e484bfa5febab2faa18d0",
    "greedy-sat": "aaeff4691b814cbd92c3b0fbfa09ca77e9b1e3726ccba5f82f04d2eca2f6f701",
    "lp-round": "d9831bc448bd89039be4c0a98fae74913ed26fa8f9aef8f4357bd3a0f555cb27",
}


@pytest.mark.parametrize("alg", list(TRACE_DIGESTS))
def test_solve_trace_bytes_are_pinned(capsys, tmp_path, alg):
    path = tmp_path / "traced.wcnf"
    path.write_text(write_dimacs(random_instance(12, 30, 3, 10, seed=5)))
    code, out, _ = run(
        capsys, "solve", str(path), "--alg", alg, "--seed", "9", "--order",
        "shuffled", "--order-seed", "4", "--trace", "--format", "structured",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DIGESTS[alg]


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


@pytest.mark.parametrize("command", ["solve", "expectation"])
def test_negative_order_seed_is_rejected(capsys, unit_file, command):
    code, out, err = run(
        capsys, command, unit_file, "--order", "shuffled", "--order-seed", "-7"
    )
    assert (code, out) == (2, "")
    assert err == "error: --order-seed must be >= 0, got -7\n"


TWO64 = 1 << 64


@pytest.mark.parametrize(
    "argv, bad, top",
    [
        # SplitMix64 reads -1 as 2^64 - 1, and 2^64 as 0
        (["solve", "--alg", "rand34"], -1, TWO64 - 1),
        (["solve", "--alg", "vanzuylen"], TWO64, TWO64 - 1),
        (["solve", "--alg", "greedy-sat"], -1, TWO64 - 1),
        (["expectation", "--trials", "5"], -1, TWO64 - 5),
        # the trials use seeds S .. S + 4, and S + 4 would alias to 0
        (["expectation", "--trials", "5"], TWO64 - 4, TWO64 - 5),
    ],
)
def test_splitmix_seed_out_of_range_is_rejected(capsys, pair_file, argv, bad, top):
    code, out, err = run(capsys, *argv, pair_file, f"--seed={bad}")
    assert (code, out) == (2, "")
    assert err == f"error: --seed must be in 0..{top}, got {bad}\n"
    code, out, _ = run(capsys, *argv, pair_file, f"--seed={top}")
    assert code == 0 and out


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


def test_verify_failure_names_the_inequality(capsys, unit_file, monkeypatch):
    real = maxsat34.oracle.check_lp_lemmas
    planted = CheckRecord(2, 1, "planted bound", Fraction(5, 2), Fraction(-1, 3), False)

    def failing(f, **kwargs):
        report = real(f, **kwargs)
        return LemmaReport(report.records + (planted,), False)

    monkeypatch.setattr(maxsat34.oracle, "check_lp_lemmas", failing)
    code, out, _ = run(capsys, "verify", "--format", "structured", unit_file)
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["failing"] == [
        {
            "instance": unit_file,
            "failures": [
                {"name": "planted bound", "step": 2, "var": 1,
                 "lhs": "5/2", "rhs": "-1/3"},
            ],
        }
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--corpus", "n=0"], "n must be >= 1, got 0"),
        (["verify", "--corpus", "m=0"], "m must be >= 1, got 0"),
        (["verify", "--corpus", "max_len=0"], "max_len must be >= 1, got 0"),
        (["verify", "--corpus", "max_w=0"], "max_w must be >= 1, got 0"),
        (["verify", "--corpus", "count=-3"], "count must be >= 0, got -3"),
        (["verify", "--corpus", "n=abc"], "n must be an integer, got 'abc'"),
        (["verify", "--corpus", "count=5,n"], "n must be an integer, got ''"),
        (["corpus", "--n", "0"], "n must be >= 1, got 0"),
        (["corpus", "--count", "-1"], "count must be >= 0, got -1"),
        (["verify", "--corpus", "n=2,m=3,n=4"], "n is given twice"),
        (["verify", "unit.wcnf", "--corpus", "n=2"],
         "verify takes files or --corpus, not both"),
        # random.Random would read seed -1 as seed 1
        (["verify", "--corpus", "seed=-1"], "seed must be >= 0, got -1"),
        (["corpus", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_corpus_spec_out_of_range_is_rejected(capsys, tmp_path, argv, message):
    out_dir = tmp_path / "corp"
    if argv[0] == "corpus":
        argv = argv + ["--out-dir", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    # a corpus parameter case gives the text after "corpus parameter "
    if not message.startswith("verify "):
        message = "corpus parameter " + message
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


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


def test_verify_scans_optimum_once_per_instance(
    capsys, tmp_path, unit_file, monkeypatch
):
    scanned = []
    real = maxsat34.oracle.brute_force_opt

    def counting(f, *args, **kwargs):
        scanned.append(f.num_vars)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(maxsat34.oracle, "brute_force_opt", counting)
    code, _, _ = run(capsys, "verify", "--corpus", "n=5,m=8,count=6,seed=1")
    assert code == 0
    assert len(scanned) == 6
    # an instance over the expectation limit is skipped before any scan
    big = tmp_path / "n16.wcnf"
    big.write_text("p wcnf 16 1\n1 16 0\n")
    scanned.clear()
    code, _, _ = run(capsys, "verify", str(big), unit_file)
    assert code == 0
    assert scanned == [1]


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


def test_verify_reports_each_unreadable_file(capsys, tmp_path, unit_file):
    bad = tmp_path / "bad.wcnf"
    bad.write_text("p wcnf 2 1\n1 3 0\n")
    missing = str(tmp_path / "missing.wcnf")
    code, out, _ = run(
        capsys, "verify", "--verbose", "--format", "structured",
        unit_file, str(bad), missing,
    )
    assert code == 1
    report = json.loads(out)
    assert (report["count"], report["all_pass"]) == (3, False)
    assert "skipped" not in report
    checked, parse_failed, open_failed = report["instances"]
    assert checked["pass"] is True
    assert parse_failed == {
        "instance": str(bad), "error": "line 2: literal 3 out of range",
        "pass": False,
    }
    assert open_failed["pass"] is False
    assert "No such file or directory" in open_failed["error"]
    assert report["failing"] == [
        {"instance": str(bad), "error": "line 2: literal 3 out of range"},
        {"instance": missing, "error": open_failed["error"]},
    ]


@pytest.mark.parametrize("command", ["solve", "expectation"])
def test_missing_file_is_an_error(capsys, tmp_path, command):
    missing = str(tmp_path / "no" / "such.cnf")
    code, out, err = run(capsys, command, missing)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


@pytest.mark.parametrize(
    "data, result",
    [
        # a comment line holds everything up to its \n; CRLF reads as LF
        (b"c note\x1c1 0\r\np wcnf 2 2\r\n3 1 -2 0\r\n4 2 0\r\n", 7),
        # a file's bytes reach the parser untranslated: a lone \r ends no line
        (b"p cnf 2 1\r1 -2 0\n", "error: line 1: malformed cnf header\n"),
    ],
)
def test_solve_reads_the_file_bytes(capsys, tmp_path, data, result):
    path = tmp_path / "crlf.wcnf"
    path.write_bytes(data)
    code, out, err = run(capsys, "solve", "--alg", "brute", str(path), "--format", "structured")
    if isinstance(result, int):
        assert code == 0 and json.loads(out)["weight"] == result
    else:
        assert (code, out, err) == (2, "", result)


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


# SHA-256 of the files `corpus` writes, recorded when random_instance still
# drew through random.Random.randint and sample: the corpus bytes must not
# move.  CI compares the large corpus with the same digests by sha256sum.
LARGE_CORPUS_DIGESTS = {
    "instance_0000.wcnf": "1f58af4012344bb686015646973614308c82373bdcdc76f265aeebda84d6e184",
    "instance_0001.wcnf": "4ea503781c779bdae03b496c44da7a1a438a127e1dced4b06f36e252ff04fd08",
}
# the 100 files of the default corpus, concatenated in name order
DEFAULT_CORPUS_DIGEST = "f8b5d592ee21b2577cfcd1be11ec7314609b1e62f376e72c28c156d88ef1322a"


def corpus_files(capsys, out_dir, *argv):
    code, _, _ = run(capsys, "corpus", *argv, "--out-dir", str(out_dir))
    assert code == 0
    return sorted(out_dir.glob("*.wcnf"))


def test_large_corpus_bytes_are_pinned(capsys, tmp_path):
    files = corpus_files(
        capsys, tmp_path, "--n", "2000", "--m", "4000", "--count", "2", "--seed", "1"
    )
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert found == LARGE_CORPUS_DIGESTS


def test_default_corpus_bytes_are_pinned(capsys, tmp_path):
    files = corpus_files(capsys, tmp_path)
    assert len(files) == 100
    joined = b"".join(path.read_bytes() for path in files)
    assert hashlib.sha256(joined).hexdigest() == DEFAULT_CORPUS_DIGEST


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
