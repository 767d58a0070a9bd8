"""End-to-end tests of the command-line interface: exit codes, output
formats, and byte-level determinism of seeded runs."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import linetrp
from linetrp import cli, core
from linetrp.cli import main
from linetrp.core import parse_instance
from linetrp.online import STRATEGY_NAMES

GOOD = """\
LINE -1 2
REQ -1 -1 0
REQ 2 2 0
"""

# one far target plus a stream of near-origin requests timed to drag the
# replanner back on every departure: its worst ratio provably exceeds the
# committed schedules' certified bound
DRAG = "LINE 0 10\nREQ 4 4 0\n" + "".join(
    f"REQ {i}/1000 {i}/1000 {2 * i - 1}\n" for i in range(1, 9)
)

# predicted locations within 1/100 of the actual ones
PREDICTED = """\
LINE -3 7
REQ 13/2 649/100 1/2
REQ -2 -201/100 3
REQ 1/4 0.26 3
REQ 5 5 11/3
REQ 3 299/100 20
"""

ORIGINAL = """\
LINE -5 5
MODEL original
REQ - 4 1
REQ - -3/2 0
REQ - -5 7/2
REQ - 2/3 12
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_generate_is_seed_deterministic(tmp_path, capsys):
    args = ["generate", "--line", "0", "10", "--n", "6", "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(["generate", "--line", "0", "10", "--n", "6", "--seed", "43"]) == 0
    assert capsys.readouterr().out != first

    inst = parse_instance(first)
    assert len(inst.requests) == 6
    assert all(r.predicted == r.actual for r in inst.requests)


def test_generate_with_error_bound(tmp_path):
    out = str(tmp_path / "inst.txt")
    assert main(
        ["generate", "--line", "0", "1", "--n", "20", "--delta", "1/20", "--seed", "1", "--out", out]
    ) == 0
    inst = parse_instance(open(out).read())
    assert any(r.predicted != r.actual for r in inst.requests)
    assert all(abs(r.predicted - r.actual) <= F(1, 20) for r in inst.requests)


def test_generate_rejects_delta_for_original_model(capsys):
    assert main(["generate", "--delta", "1/20", "--model", "original"]) == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--delta", "1/100"]])
@pytest.mark.parametrize("denom", ["0", "-5"])
def test_generate_rejects_nonpositive_denom(denom, extra, capsys):
    assert main(["generate", "--denom", denom] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "denom" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, name",
    [
        (["generate", "--n", "-2"], "n"),
        (["generate", "--max-arrival", "-2"], "max_arrival"),
        (["generate", "--max-arrival", "-2", "--delta", "1/100"], "max_arrival"),
        (["sweep", "--trials", "1", "--delta=-1/100"], "delta"),
        (["adversary", "--delta=-1/100"], "delta"),
        (["adversary", "--max-steps", "-3"], "max_steps"),
        (["sweep", "--trials", "-3"], "trials"),
    ],
)
def test_negative_parameters_exit_2_naming_the_parameter(args, name, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be nonnegative")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [["--delta", "abc"], ["--line", "5", "10"], ["--line", "x", "1"], ["--alpha=-1"],
     ["--n=-3"], ["--max-arrival=-1"], ["--delta=-1"]],
)
def test_sweep_refuses_a_bad_argument_with_no_trials(flags, capsys):
    errors = []
    for trials in ("0", "1"):
        assert main(["sweep", "--trials", trials] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] and errors[0].startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(jobs, capsys):
    assert main(["sweep", "--trials", "4", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: jobs must be at least 1, got {jobs}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_oracle_with_cross_check(tmp_path, capsys):
    path = _write(tmp_path, "inst.txt", GOOD)
    assert main(["oracle", path, "--brute"]) == 0
    out = capsys.readouterr().out
    assert "optimal latency sum: 5 (5.000000)" in out
    assert "origin -> -1 -> 2" in out
    assert "cross-check ok" in out


def test_oracle_cross_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "inst.txt", GOOD)
    monkeypatch.setattr(cli, "brute_force_latency", lambda points: (F(6), (F(2), F(-1))))
    assert main(["oracle", path, "--brute"]) == 3
    captured = capsys.readouterr()
    assert "optimal latency sum: 5 (5.000000)" in captured.out
    assert captured.err == "cross-check FAILED: exhaustive search got 6 via 2, -1\n"


def test_oracle_stays_at_the_origin_when_every_request_is_there(tmp_path, capsys):
    path = _write(tmp_path, "origin.txt", "LINE -1 2\nREQ 0 0 0\nREQ 0 0 3\n")
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "optimal latency sum: 0 (0.000000)" in out
    assert "optimal walk: stay at origin\n" in out


def test_oracle_brute_past_its_cap_prints_nothing(tmp_path, capsys):
    # 12 requests exceed the exhaustive search's cap of 9: the run fails
    # before the DP's optimum or walk reaches stdout
    out = str(tmp_path / "inst.txt")
    assert main(["generate", "--line", "-5", "5", "--n", "12", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["oracle", out, "--brute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: brute force capped at 9 non-origin points, got 12\n"
    assert main(["oracle", out]) == 0
    assert "optimal walk:" in capsys.readouterr().out


def test_oracle_missing_file_exits_2(capsys):
    assert main(["oracle", "/nonexistent/inst.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "LINE -1 2\nREQ oops\n")
    assert main(["oracle", path]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, lineno, byte",
    [
        (b"LINE 0 10\nREQ 1 1 \xff\n", 2, "ff"),
        (b"LINE 0 10\n\xffREQ 1 1 0\n", 2, "ff"),  # first on its line
        (b"\xc3", 1, "c3"),  # a sequence cut short
        (b"LINE 0 10\x0cREQ 1 1 0\r\nREQ 2 2 0\n\xe2\x82\n", 4, "e2"),  # \x0c ends a line too
        ("LINE 0 10\nREQ 1 1 0 # café\n".encode() + b"\x80", 3, "80"),  # after valid UTF-8
    ],
    ids=["in-line", "line-start", "truncated", "form-feed", "after-multibyte"],
)
def test_an_instance_that_is_not_utf8_names_the_line_of_its_first_bad_byte(
    tmp_path, capsys, data, lineno, byte
):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for argv in (["oracle", str(path)], ["simulate", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {lineno}: not UTF-8 text: byte 0x{byte}\n"
        assert captured.out == ""


def test_an_instance_with_a_byte_order_mark_parses_as_without_one(tmp_path, capsys):
    """A leading UTF-8 byte-order mark is not text: the file parses as the
    same file without it, and a bad byte after it still names its line."""
    outputs = []
    for name, prefix in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + b"LINE 0 10\nREQ 1 1 0\n")
        assert main(["oracle", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[1].err == ""
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xef\xbb\xbfLINE 0 10\nREQ 1 1 \xff\n")
    assert main(["oracle", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: not UTF-8 text: byte 0xff\n"


def test_an_instance_is_read_as_utf8_whatever_the_locale(tmp_path):
    # a child process in the C locale, whose default encoding is ASCII
    path = tmp_path / "inst.txt"
    path.write_bytes("# café\n".encode() + GOOD.encode())
    src = os.path.dirname(os.path.dirname(linetrp.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "linetrp.cli", "oracle", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("requests: 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("LINE 0 10\n# c\nREQ 1 1 0\nREQ 2 12 3\n", "line 4: request 1: actual location outside the line"),
        ("LINE 0 10\nREQ 11 1 0\n", "line 2: request 0: predicted location outside the line"),
        ("LINE 0 10\nREQ 1 1 -1\n", "line 2: request 0: negative arrival time"),
        ("REQ - 1 0\nLINE 0 10\n", "line 1: request 0: prediction model requires a predicted"),
        ("REQ 5 1 3\nREQ - 2 0\nMODEL original\nLINE 0 10\n", "line 1: request 0: original model"),
        ("LINE 0 10\nMODEL original\nREQ 5 1 3\n", "line 3: request 0: original model takes no"),
    ],
    ids=["actual", "predicted", "arrival", "missing", "model-last", "original"],
)
def test_request_errors_name_their_line(tmp_path, capsys, text, message):
    path = _write(tmp_path, "bad.txt", text)
    for argv in (["oracle", path], ["simulate", path]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err


def test_simulate_auto_picks_the_prediction_tour(tmp_path, capsys):
    path = _write(tmp_path, "inst.txt", GOOD)
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out
    assert "strategy: prediction-tour" in out
    assert "completion sum:" in out


def test_simulate_writes_request_csv(tmp_path):
    path = _write(tmp_path, "inst.txt", GOOD)
    out = str(tmp_path / "report.csv")
    assert main(["simulate", path, "--strategy", "greedy", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("index,predicted,actual,arrival,completion")
    assert len(lines) == 3  # header + 2 requests
    assert lines[1].split(",")[0] == "0"


def test_simulate_serves_arrivals_near_a_billion(tmp_path, capsys):
    late = "LINE 0 1\nMODEL original\nREQ - 1/2 1000000000\nREQ - 1 3000000001/3\nREQ - 0 7/2\n"
    path = _write(tmp_path, "late.txt", late)
    out = str(tmp_path / "late.csv")
    assert main(["simulate", path, "--out", out]) == 0
    assert "completion sum: 4000000011/2" in capsys.readouterr().out
    rows = open(out).read().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["2000000001/2", "1000000001", "4"]


@pytest.mark.parametrize("strategy", ("auto",) + STRATEGY_NAMES)
@pytest.mark.parametrize("exponent", [20, 400])
def test_simulate_serves_astronomical_arrivals(strategy, exponent, tmp_path):
    # a child process with a time limit, so a regression fails instead of hanging
    late = 10**exponent
    path = _write(tmp_path, "late.txt", f"LINE 0 10\nREQ 3 3 1\nREQ 7 7 {late}\n")
    src = os.path.dirname(os.path.dirname(linetrp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "linetrp.cli", "simulate", path, "--strategy", strategy],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.split("completion sum: ")[1].splitlines()[0]
    total = F(line.rsplit("(", 1)[1].rstrip(")"))
    assert late < total < late + 40


@pytest.mark.parametrize(
    "text, flags, prefix",
    [
        ("LINE 0 1e3000000\nREQ 0 0 0\n", [], "error: line 1: "),
        ("LINE 0 1\nREQ 0 0 1e-3000000\n", [], "error: line 2: "),
        (GOOD, ["--alpha", "1e3000000"], "error: "),
        (GOOD, ["--delta", "1e3000000"], "error: "),
    ],
)
def test_simulate_rejects_huge_exponents(text, flags, prefix, tmp_path):
    # a child process with a time limit: building 10**3000000 would hang
    path = _write(tmp_path, "huge.txt", text)
    src = os.path.dirname(os.path.dirname(linetrp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "linetrp.cli", "simulate", path] + flags,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(prefix), proc.stderr
    assert proc.stdout == ""


def test_simulate_refuses_a_million_digit_scalar_with_no_digit_limit(tmp_path):
    # a child process with the interpreter's digit limit off: reading a
    # million digits would take minutes
    path = _write(tmp_path, "long.txt", "LINE 0 10\nREQ 1 1 " + "1" * 10**6 + "\n")
    src = os.path.dirname(os.path.dirname(linetrp.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "linetrp.cli", "simulate", path],
        env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    # the message quotes the field's first characters and its length, not all of it
    quoted = "'" + "1" * core._QUOTED + "'"
    assert proc.stderr == f"error: line 2: bad scalar {quoted}... (1000000 characters)\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("extra", [[], ["--certify", "simple"]])
def test_simulate_rejects_negative_delta(extra, tmp_path, capsys):
    path = _write(tmp_path, "inst.txt", GOOD)
    assert main(["simulate", path, "--delta", "-1"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: delta must be nonnegative")
    assert captured.out == ""


def test_simulate_certifies_committed_schedules(tmp_path, capsys):
    # prediction-guided walks certify against the tour-prefix floor: the
    # optimal walk itself reaches interior points late, so the coarse
    # distance floor would overstate the ratio
    path = _write(tmp_path, "inst.txt", GOOD)
    assert main(["simulate", path, "--strategy", "perfect", "--certify", "tour"]) == 0
    assert "certified" in capsys.readouterr().out

    # the prediction-free halfline schedule certifies against the coarse floor
    half = _write(tmp_path, "half.txt", "LINE 0 2\nREQ 1 1 0\nREQ 2 2 5\n")
    assert main(["simulate", half, "--strategy", "halfline", "--certify", "simple"]) == 0
    assert "certified" in capsys.readouterr().out


GAP = "LINE -10 10\nMODEL prediction\nREQ 7 7 2\nREQ -7 -7 21\n"  # the README's known gap


@pytest.mark.parametrize(
    "text, certify, scope",
    [
        (GAP, "tour", " (per request, against the tour-prefix floor; on a full line"
                      " that floor does not bound the sum ratio against OPT)"),
        ("LINE 0 10\nREQ 7 7 2\n", "tour", ""),  # a half-line
        ("LINE -10 10\nREQ 7 7 0\n", "simple", ""),  # the distance floor bounds OPT's too
    ],
    ids=["full-line-tour", "half-line-tour", "full-line-simple"],
)
def test_tour_certificate_on_a_full_line_names_its_floor(text, certify, scope, tmp_path, capsys):
    """On a full line, ``--certify tour`` says what it certified: each
    request against the tour-prefix floor, which does not bound the sum
    ratio against OPT there (the known gap: sum ratio 4.2129 passes).
    Half-lines and the distance/arrival floor keep their bare line."""
    path = _write(tmp_path, "inst.txt", text)
    assert main(["simulate", path, "--certify", certify]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"certified: worst ratio within 2 + 1*sqrt(3){scope}"


def test_simulate_certification_failure_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "drag.txt", DRAG)
    assert main(["simulate", path, "--strategy", "greedy", "--certify", "simple"]) == 3
    assert "certification FAILED" in capsys.readouterr().err


def test_simulate_strategy_mismatch_exits_2(tmp_path, capsys):
    # halfline round trips refuse a line with the origin strictly inside
    path = _write(tmp_path, "inst.txt", GOOD)
    assert main(["simulate", path, "--strategy", "halfline"]) == 2
    assert "error:" in capsys.readouterr().err


def test_adversary_catches_halfline_and_verifies(capsys):
    assert main(["adversary", "--strategy", "halfline"]) == 0
    out = capsys.readouterr().out
    assert "outcome: witness at step 3" in out
    assert "witness verified by independent re-run" in out


def test_adversary_failed_verification_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_witness", lambda strategy, transcript: False)
    assert main(["adversary", "--strategy", "halfline"]) == 3
    captured = capsys.readouterr()
    assert "outcome: witness at step 3" in captured.out
    assert "verified" not in captured.out
    assert captured.err == "witness verification FAILED\n"


def test_adversary_reports_greedy_escape(capsys):
    assert main(["adversary", "--strategy", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "outcome: no witness" in out
    assert "2.499000" in out


@pytest.mark.parametrize(
    "strategy, name",
    [("greedy", "greedy-replan"), ("halfline", "halfline-roundtrips")],
    ids=["rational", "surd"],  # the workers send back results of either kind
)
def test_sweep_is_deterministic_and_parallel_safe(strategy, name, capsys):
    args = ["sweep", "--strategy", strategy, "--trials", "4", "--seed", "3",
            "--line", "0", "10", "--n", "5"]
    assert main(args) == 0
    sequential = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == sequential

    lines = sequential.splitlines()
    assert lines[0].startswith("trial,strategy,n,delta,on_sum")
    assert len(lines) == 5
    assert lines[1].split(",")[1] == name


@pytest.mark.parametrize(
    "trials, jobs, cpus, workers",
    [
        (3, 5000, 8, 3),  # no more workers than trials
        (12, 5000, 8, 8),  # no more workers than CPUs
        (4, 3, 8, 3),  # no more workers than asked for
        (1, 5000, 8, None),  # one trial runs in this process
        (4, 5000, 1, None),  # so does a single CPU
        (4, 5000, None, None),  # and an unknown CPU count
    ],
)
def test_sweep_caps_its_workers(trials, jobs, cpus, workers, monkeypatch, capsys):
    requested = []

    class RecordingPool:
        """Records the worker count asked for and maps in this process, so
        no worker is ever started."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    args = ["sweep", "--strategy", "sweep", "--trials", str(trials), "--seed", "3",
            "--line", "0", "10", "--n", "3"]
    assert main(args + ["--jobs", str(jobs)]) == 0
    pooled = capsys.readouterr().out
    assert requested == ([] if workers is None else [workers])
    assert main(args) == 0
    assert capsys.readouterr().out == pooled
    assert len(pooled.splitlines()) == trials + 1



def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of seeded CLI output, recorded when every CSV cell was still written
# out by hand: a change to any byte of it fails here
SWEEP_LINE = ["--trials", "20", "--seed", "5", "--line", "0", "10", "--n", "6"]
SWEEP_DIGESTS = {
    "auto": "830ebb7981a042d67560fc5600e7e29b7a6eab312d765c0a1673deb5484b7e32",
    "halfline": "4a3694f20e08bc582d0b4980f55d0ff6d39c4f9d9b603821b6f056a5c82a52b5",
    "sweep": "b2fa6fd8d8a6a3f152c2666c43152d3acd27accbb7aefe56b953910a5c7958d6",
    "perfect": "830ebb7981a042d67560fc5600e7e29b7a6eab312d765c0a1673deb5484b7e32",
    "robust": "e204ef5c8dd31c455ebfa813abd9e2a57c408240aad85c2b724aa8097255a1a7",
    "greedy": "69c762bd76c4118e03efe56813012c5e7e21b39cde4be1aa94bb9089fb1afe5a",
}
ROBUST_SWEEP = ["--strategy", "robust", "--delta", "1/100", "--trials", "20", "--seed", "7",
                "--line", "0", "1"]
ROBUST_SWEEP_DIGEST = "892196f29e45f44c62818b2808ab0c8164bae64d420658de19945d74182b6b71"


@pytest.mark.parametrize(
    "argv, digest",
    [(["--strategy", name] + SWEEP_LINE, digest) for name, digest in SWEEP_DIGESTS.items()]
    + [(ROBUST_SWEEP, ROBUST_SWEEP_DIGEST)],
    ids=list(SWEEP_DIGESTS) + ["robust-delta"],
)
def test_sweep_output_is_pinned(argv, digest, capsys):
    assert main(["sweep"] + argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize(
    "text, flags, stdout_digest, csv_digest",
    [
        (
            PREDICTED,
            ["--delta", "1/100", "--certify", "tour"],
            # a full line: the certified line names the tour-prefix floor
            "a42b979add804050c11c9abcd5826b4977d3d3814b31e6cda6b6a31a82ab95d3",
            "e18de54eb503a47c7c20b98110c7f01c5d54c516bdb3ecbf034b0f90ca64482c",
        ),
        (
            ORIGINAL,
            [],
            "968832d1c53a2fe967a87684e1404c906b9b9a43092f7e5df85099c87bf34f28",
            "94c274cb19ee9ad60fdc17134394ee2b7da60cad5eb469bc743158c65d7c699d",
        ),
    ],
    ids=["prediction", "original"],
)
def test_simulate_output_is_pinned(text, flags, stdout_digest, csv_digest, tmp_path, capsys):
    path = _write(tmp_path, "inst.txt", text)
    out = tmp_path / "report.csv"
    assert main(["simulate", path, "--out", str(out)] + flags) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
    assert _sha256(out.read_bytes()) == csv_digest
