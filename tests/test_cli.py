import argparse
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochmatch import cli, core, generator, proofcheck
from stochmatch.cli import main
from stochmatch.core import Instance, format_instance
from stochmatch.montecarlo import simulate
from stochmatch.solver import optimal_policy

SINGLE = "stochmatch 1\n2 1\n1 1\n0 1 0.7\n"
EMPTY = "stochmatch 1\n3 0\n1 1 1\n"
P4 = "stochmatch 1\n4 3\n2 2 2 2\n0 1 0.5\n1 2 0.51\n2 3 0.5\n"
DISJOINT = "stochmatch 1\n4 2\n1 1 1 1\n0 1 0.9\n2 3 0.8\n"
# 1,000 disjoint edges: 1,001 states, but every evaluator recurses 1,000 deep.
DEEP = "stochmatch 1\n2000 1000\n" + " ".join(["1"] * 2000) + "\n" + "".join(
    f"{2 * i} {2 * i + 1} 0.5\n" for i in range(1000)
)
# 24 disjoint edges at patience 1: 2^24 DP states.
DISJOINT24 = "stochmatch 1\n48 24\n" + " ".join(["1"] * 48) + "\n" + "".join(
    f"{2 * i} {2 * i + 1} 0.5\n" for i in range(24)
)
# The patience-1 star on 40 leaves: 40 edges but 2 DP states.
STAR40 = "stochmatch 1\n41 40\n" + " ".join(["1"] * 41) + "\n" + "".join(
    f"0 {i} 0.5\n" for i in range(1, 41)
)
# A star on 301 leaves, p = 0.01, whose center has patience 300.
STAR301 = "stochmatch 1\n302 301\n300" + " 1" * 301 + "\n" + "".join(
    f"0 {i} 0.01\n" for i in range(1, 302)
)
# The path on 16 vertices with patience 3: no vertex has a patience field,
# so its 2^15 DP states are within the budget.
PATH16 = format_instance(
    Instance(n=16, edges=tuple((i, i + 1, 0.3 + 0.02 * i) for i in range(15)), patience=(3,) * 16)
)


@pytest.fixture
def write(tmp_path):
    def _write(text, name="inst.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


class TestEval:
    def test_single_edge_greedy(self, write, capsys):
        assert main(["eval", "--instance", write(SINGLE), "--policy", "greedy"]) == 0
        assert capsys.readouterr().out.strip() == "0.700000000000"

    def test_p4_optimal(self, write, capsys):
        assert main(["eval", "--instance", write(P4), "--policy", "optimal"]) == 0
        assert capsys.readouterr().out.strip() == "1.127500000000"

    def test_empty_graph(self, write, capsys):
        assert main(["eval", "--instance", write(EMPTY)]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_p4_optimal_reads_the_solve(self, write, capsys, monkeypatch):
        # The optimal value is the root solve's; no tree is built for it.
        def not_called(*args, **kwargs):
            raise AssertionError("policy_value called")

        monkeypatch.setattr(cli, "policy_value", not_called)
        assert main(["eval", "--instance", write(P4), "--policy", "optimal"]) == 0
        assert capsys.readouterr().out == "1.127500000000\n"

    def test_parse_error_exit_2(self, write, capsys):
        path = write("not an instance\n")
        assert main(["eval", "--instance", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: line 1: expected header 'stochmatch 1'\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--instance", str(tmp_path / "nope.txt")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] ")

    def test_missing_file_exit_2_on_a_thread(self, tmp_path, capsys):
        # A SystemExit raised on a thread is dropped, so main must return it.
        status = []
        argv = ["eval", "--instance", str(tmp_path / "nope.txt")]
        worker = threading.Thread(target=lambda: status.append(main(argv)))
        worker.start()
        worker.join()
        assert status == [2]
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")


class TestInstanceFile:
    @pytest.mark.parametrize("command", ["eval", "ratio", "check", "simulate"])
    def test_non_utf8_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(SINGLE.encode() + b"# \xff\n")
        assert main([command, "--instance", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert "0xff" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # A UTF-8 file that starts with a byte-order mark read as a bad header.
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + SINGLE.encode())
        assert main(["eval", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == "0.700000000000\n"

    def test_lines_end_at_newline_only(self, tmp_path, capsys):
        # Text-mode reading also broke lines at a lone '\r', so a comment
        # holding one turned its tail into a content line and exited 2.
        crlf = SINGLE.replace("\n", "\r\n")
        for name, text in (("crlf.txt", crlf), ("cr.txt", SINGLE + "# a\rb\n")):
            path = tmp_path / name
            path.write_bytes(text.encode())
            assert main(["eval", "--instance", str(path)]) == 0
            assert capsys.readouterr().out == "0.700000000000\n"


class TestRatio:
    def test_single_edge(self, write, capsys):
        assert main(["ratio", "--instance", write(SINGLE)]) == 0
        out = capsys.readouterr().out
        assert "ratio 1.000000000000" in out

    def test_p4(self, write, capsys):
        assert main(["ratio", "--instance", write(P4)]) == 0
        out = capsys.readouterr().out
        assert "ratio 1.127500000000" in out

    def test_disjoint_pair(self, write, capsys):
        assert main(["ratio", "--instance", write(DISJOINT)]) == 0
        assert "ratio 1.000000000000" in capsys.readouterr().out

    def test_empty_graph(self, write, capsys):
        assert main(["ratio", "--instance", write(EMPTY)]) == 0
        out = capsys.readouterr().out
        assert out == "opt 0.000000000000\ngrd 0.000000000000\nratio 1.000000000000\n"

    @pytest.mark.parametrize(
        "e_opt, e_grd, final",
        [(20.000000005, 10.0, "FAIL"), (1.0000000008, 0.5, "PASS")],
        ids=["ratio-in-tol-final-fails", "ratio-past-tol-final-passes"],
    )
    def test_exit_status_is_checks_final_verdict(
        self, e_opt, e_grd, final, write, capsys, monkeypatch
    ):
        # The two values are planted in both commands; the memo stays the real one.
        real_solve = proofcheck.optimal_value

        def planted_solve(inst, force=False):
            return e_opt, real_solve(inst, force)[1]

        for module in (cli, proofcheck):
            monkeypatch.setattr(module, "optimal_value", planted_solve)
        monkeypatch.setattr(cli, "policy_value", lambda inst, pol, force=False: e_grd)
        real_build = proofcheck.build_tree
        monkeypatch.setattr(
            proofcheck,
            "build_tree",
            lambda inst, pol, force=False: real_build(inst, pol, force)._replace(value=e_grd),
        )
        path = write(SINGLE)
        main(["check", "--instance", path])
        lines = capsys.readouterr().out.splitlines()
        assert f"final {final}" in lines
        assert lines[1].split(",")[2:4] == [repr(e_opt), repr(e_grd)]  # both plants reached
        assert main(["ratio", "--instance", path]) == (0 if final == "PASS" else 1)

    def test_patience_beyond_a_byte(self, write, capsys):
        # The 301-leaf star's center, patience 300, has a 9-bit field.  Greedy's
        # tree is small there, but ratio's DP would pass core.MAX_STATES, so
        # this runs eval.
        assert main(["eval", "--instance", write(STAR301), "--policy", "greedy"]) == 0
        assert capsys.readouterr().out == "0.950959105929\n"  # 1 - 0.99^300


class TestCheck:
    def test_p4_passes(self, write, capsys):
        assert main(["check", "--instance", write(P4)]) == 0
        out = capsys.readouterr().out
        assert "final PASS" in out
        assert "FAIL" not in out

    def test_single_edge_passes(self, write, capsys):
        assert main(["check", "--instance", write(SINGLE)]) == 0

    def test_edgeless_instance_exit_2(self, write, capsys):
        assert main(["check", "--instance", write(EMPTY)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_csv_quotes_the_instance_path(self, write, capsys):
        # A comma in the path split the id: a 14-field header over a 15-field row.
        path = write(P4, name='a,b"c.txt')
        assert main(["check", "--instance", path]) == 0
        header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[:2]
        assert len(header) == len(row) == 14
        assert row[0] == path


class TestTooLarge:
    @pytest.mark.parametrize(
        "argv", [["ratio", "--force"], ["eval", "--force"], ["check", "--force"], ["ratio"]]
    )
    def test_deep_instance_exit_2(self, argv, write, capsys):
        assert main(argv + ["--instance", write(DEEP)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_out_of_memory_exit_2(self, write, capsys, monkeypatch):
        def exhausted(inst, force=False):
            raise MemoryError

        monkeypatch.setattr(cli, "optimal_value", exhausted)
        assert main(["ratio", "--instance", write(P4)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStateBudget:
    @pytest.mark.parametrize("command", ["ratio", "check"])
    def test_star40_answered_without_force(self, command, write, capsys):
        assert main([command, "--instance", write(STAR40)]) == 0
        assert capsys.readouterr().err == ""

    def test_path16_ratio_without_force(self, write, capsys):
        assert main(["ratio", "--instance", write(PATH16)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("opt 4.640355764591\n")

    def test_ratio_past_budget_exit_2(self, write, capsys, monkeypatch):
        monkeypatch.setattr(core, "MAX_STATES", 2)
        path = write(P4)
        assert main(["ratio", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "use --force" in captured.err
        assert main(["ratio", "--instance", path, "--force"]) == 0
        assert "ratio 1.127500000000" in capsys.readouterr().out

    def test_disjoint24_refused(self, write, capsys, monkeypatch):
        # The default budget refuses it after 1,000,000 states (seconds);
        # a lower one shows the same refusal quickly.
        monkeypatch.setattr(core, "MAX_STATES", 10_000)
        assert main(["ratio", "--instance", write(DISJOINT24)]) == 2
        assert capsys.readouterr().err.startswith("error: the solve needs more than 10,000 states")


class TestScan:
    def test_zero_count_header_only(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--count", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance_id,")

    def test_row_count_and_no_failures(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--count", "25", "--n", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 26
        assert "failures 0" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["scan", "--count", "15", "--seed", "3", "--out", str(out1)])
        main(["scan", "--count", "15", "--seed", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_density_too_low_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--count", "1", "--n", "2", "--density", "1e-300", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: gnp with n=2")
        assert not out.exists()

    def test_unwritable_out_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_instances(spec, rng):
            raise AssertionError("instance drawn before --out was opened")

        monkeypatch.setattr(generator, "generate_instance", no_instances)
        argv = ["scan", "--count", "1", "--out", str(tmp_path / "missing" / "x.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "missing" in captured.err

    def test_failed_check_exit_1_and_every_row_written(self, tmp_path, capsys, monkeypatch):
        argv = ["scan", "--count", "5", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path / "real.csv")]) == 0
        real_check = cli.check_chain

        def one_fails(inst, instance_id, force):
            report = real_check(inst, instance_id, force)
            if instance_id == "gnp-2-3":
                report = report._replace(verdicts={**report.verdicts, "final": False})
            return report

        monkeypatch.setattr(cli, "check_chain", one_fails)
        capsys.readouterr()
        out = tmp_path / "scan.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert "failures 1 (gnp-2-3)" in capsys.readouterr().out.splitlines()
        # The verdicts are not columns, so the CSV is the unpatched scan's.
        assert out.read_bytes() == (tmp_path / "real.csv").read_bytes()
        assert len(out.read_text().splitlines()) == 6

    def test_path_family_includes_known_ratio(self, tmp_path, capsys):
        # A scan over 4-vertex paths brushes against the known 1.1275 case.
        out = tmp_path / "paths.csv"
        main(["scan", "--family", "path", "--n", "4", "--count", "60",
              "--seed", "11", "--out", str(out)])
        text = capsys.readouterr().out
        worst = float(next(l for l in text.splitlines() if l.startswith("worst_ratio")).split()[1])
        assert worst >= 1.0


class TestGoldenScan:
    """The scan CSV is pinned byte for byte across commits, not only between runs."""

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["--count", "2000", "--seed", "1"],
                "156ec2adbbd9a99a76a33bf21547d2377ae5383a791a1274da7bb794173d44eb",
            ),
            (
                ["--count", "300", "--n", "6", "--puniform", "--seed", "3"],
                "2d63b824c9bf27d2ccbb5fdfe7fd18ae22f3f525ecec6cc0b140b7d4a710ec39",
            ),
        ],
        ids=["gnp-n5-seed1", "gnp-n6-puniform-seed3"],
    )
    def test_csv_sha256(self, tmp_path, capsys, argv, sha256):
        out = tmp_path / "scan.csv"
        assert main(["scan", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestClosedStdout:
    def test_broken_pipe_exit_2(self, tmp_path):
        # The read end is closed before the CLI starts, so its first write to
        # stdout fails with EPIPE whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stochmatch.cli", "scan", "--count", "5", "--seed", "1",
                 "--out", str(tmp_path / "scan.csv")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr


class TestSimulate:
    def test_star_mean_close(self, write, capsys):
        star = "stochmatch 1\n3 2\n2 1 1\n0 1 0.5\n0 2 0.5\n"
        assert main(["simulate", "--instance", write(star), "--policy", "greedy",
                     "--trials", "100000", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        mean = float(next(l for l in out.splitlines() if l.startswith("mean")).split()[1])
        assert abs(mean - 0.75) < 0.01

    def test_repeat_identical(self, write, capsys):
        path = write(SINGLE)
        main(["simulate", "--instance", path, "--trials", "2000", "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "--instance", path, "--trials", "2000", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_optimal_policy(self, write, capsys, monkeypatch):
        # The command prints the library's numbers; below P4's state count it
        # needs --force, and simulate's node budget changes no draw.
        inst = core.parse_instance(P4)
        result = simulate(inst, optimal_policy(inst), 2000, 7)
        expected = (
            f"trials 2000\nmean {result.mean:.12f}\nstddev {result.stddev:.12f}\n"
            f"ci95_halfwidth {result.ci95_halfwidth:.12f}\nseed 7\n"
        )
        argv = ["simulate", "--instance", write(P4), "--policy", "optimal",
                "--trials", "2000", "--seed", "7"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr(core, "MAX_STATES", 2)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "use --force" in captured.err
        assert main([*argv, "--force"]) == 0
        assert capsys.readouterr().out == expected


class TestArgumentValidation:
    """argparse judges only syntax; the library judges each value, and main
    reports its ValueError as one line naming the field."""

    @staticmethod
    def _target(argv, write, tmp_path):
        if argv[0] == "simulate":
            return ["--instance", write(SINGLE)]
        return ["--out", str(tmp_path / "scan.csv")]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", "0"],
            ["scan", "--n", "1"],
            ["scan", "--tmax", "0"],
            ["scan", "--count", "-3"],
            ["scan", "--density", "inf"],
            ["scan", "--density", "0"],
            ["scan", "--density", "1.5"],
            ["scan", "--density", "nan"],
        ],
    )
    def test_bad_value_exit_2(self, argv, write, tmp_path, capsys):
        field = "t_max" if argv[1] == "--tmax" else argv[1][2:]  # GeneratorSpec's name
        assert main(argv + self._target(argv, write, tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field} must be ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--count", "many"],
            ["scan", "--family", "cycle"],
            ["simulate", "--trials", "2.5"],
            ["scan", "--pgrid"],
        ],
    )
    def test_bad_syntax_exit_2(self, argv, write, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + self._target(argv, write, tmp_path))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert argv[1] in err
        assert not (tmp_path / "scan.csv").exists()


class TestSynopsis:
    """README's command synopsis lists exactly the options each command takes."""

    def test_synopsis_matches_parser(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        (block,) = [
            b for b in re.findall(r"```\n(.*?)```", readme, re.S) if "stochmatch eval" in b
        ]
        listed = {}
        for line in block.replace("\\\n", " ").splitlines():
            command = line.split()[1]
            assert command not in listed
            listed[command] = set(re.findall(r"--[a-z]+", line))
        (commands,) = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        defined = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert listed == defined


@st.composite
def instance_texts(draw):
    """A tiny valid instance text, or one with a single token replaced or deleted."""
    n = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    prob = st.sampled_from([0.1, 0.5, 0.9, 1.0])
    inst = Instance(
        n=n,
        edges=tuple((u, v, draw(prob)) for u, v in chosen),
        patience=tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))),
    )
    lines = [line.split() for line in format_instance(inst).splitlines()]
    tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(tokens))
        lines[i][j] = draw(
            st.one_of(
                st.integers(-2, 70).map(str),
                st.floats().map(repr),
                st.sampled_from(["", "x", "#", "stochmatch", "0x1", "1_0"]),
            )
        )
    return "".join(" ".join(line) + "\n" for line in lines)


class TestExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(
        text=instance_texts(),
        command=st.sampled_from(["eval", "ratio", "check", "simulate"]),
    )
    # A subnormal p made (1 - p) / p overflow: check printed nan slacks and exited 1.
    @example(text="stochmatch 1\n2 1\n1 1\n0 1 5e-324\n", command="check")
    @example(text=f"stochmatch 1\n2 1\n1 1\n0 1 {sys.float_info.min!r}\n", command="check")
    # The byte 0xff (written through surrogateescape) is not UTF-8: a
    # UnicodeDecodeError escaped main with status 1.
    @example(text="stochmatch 1\n2 1\n1 1\n0 1 0.5 # \udcff\n", command="eval")
    def test_status_0_or_2(self, instance_dir, text, command):
        # Tiny instances, valid or one token off: nothing escapes main, and
        # an error (status 2) prints only to stderr.  Each example gets a new
        # file, since rewriting a file in place can cost tens of ms.
        fd, path = tempfile.mkstemp(suffix=".txt", dir=instance_dir)
        with os.fdopen(fd, "w", encoding="utf-8", errors="surrogateescape") as f:
            f.write(text)
        argv = [command, "--instance", path]
        if command == "simulate":
            argv += ["--trials", "1"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
        assert status in (0, 2), (status, err.getvalue())
        if status == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith(("error: ", "usage: "))
