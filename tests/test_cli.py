import pytest

from stochmatch.cli import main

SINGLE = "stochmatch 1\n2 1\n1 1\n0 1 0.7\n"
EMPTY = "stochmatch 1\n3 0\n1 1 1\n"
P4 = "stochmatch 1\n4 3\n2 2 2 2\n0 1 0.5\n1 2 0.51\n2 3 0.5\n"
DISJOINT = "stochmatch 1\n4 2\n1 1 1 1\n0 1 0.9\n2 3 0.8\n"


@pytest.fixture
def write(tmp_path):
    def _write(text, name="inst.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


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

    def test_parse_error_exit_2(self, write, capsys):
        path = write("not an instance\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--instance", path])
        assert exc.value.code == 2

    def test_missing_file_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--instance", str(tmp_path / "nope.txt")])
        assert exc.value.code == 2


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


class TestCheck:
    def test_p4_passes(self, write, capsys):
        assert main(["check", "--instance", write(P4)]) == 0
        out = capsys.readouterr().out
        assert "final PASS" in out
        assert "FAIL" not in out

    def test_single_edge_passes(self, write, capsys):
        assert main(["check", "--instance", write(SINGLE)]) == 0


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

    def test_path_family_includes_known_ratio(self, tmp_path, capsys):
        # A scan over 4-vertex paths brushes against the known 1.1275 case.
        out = tmp_path / "paths.csv"
        main(["scan", "--family", "path", "--n", "4", "--count", "60",
              "--seed", "11", "--out", str(out)])
        text = capsys.readouterr().out
        worst = float(next(l for l in text.splitlines() if l.startswith("worst_ratio")).split()[1])
        assert worst >= 1.0


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


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", "0"],
            ["scan", "--n", "1"],
            ["scan", "--tmax", "0"],
            ["scan", "--count", "-3"],
            ["scan", "--count", "many"],
        ],
    )
    def test_bad_value_exit_2(self, argv, write, tmp_path, capsys):
        target = ["--instance", write(SINGLE)] if argv[0] == "simulate" else [
            "--out", str(tmp_path / "scan.csv")
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv + target)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert argv[1] in err
        assert not (tmp_path / "scan.csv").exists()
