"""Front end: problem parsing, commands, exit codes, trace files."""

import functools
import io
import json

import pytest

from f5gb import trace
from f5gb.cli import (
    NonPrimeModulus,
    ParseError,
    main,
    parse_problem,
)
from f5gb.engine import NonHomogeneousInput
from f5gb.trace import events_from_jsonl, run_all_checkers

DEMO = """# two generators over GF(7)
p = 7
vars: x, y
x^2 + y^2
x*y
"""

CYCLIC = """p = 7
vars: x, y, z, h
x + y + z
x*y + y*z + x*z
x*y*z - h^3
"""


class TestParseProblem:
    def test_demo(self):
        prob = parse_problem(DEMO)
        assert prob.p == 7
        assert prob.variables == ["x", "y"]
        assert prob.order == "degrevlex"
        assert len(prob.polynomials) == 2
        assert prob.polynomials[0].text() == "x^2 + y^2"

    def test_non_prime(self):
        with pytest.raises(NonPrimeModulus):
            parse_problem("p = 4\nvars: x\nx")

    def test_non_homogeneous_rejected(self):
        with pytest.raises(NonHomogeneousInput):
            parse_problem("p = 7\nvars: x, y\nx^2 + y")

    def test_affine_allowed_with_flag(self):
        prob = parse_problem("p = 7\nvars: x, y\nx^2 + y", allow_affine=True)
        assert len(prob.polynomials) == 1

    def test_order_line_and_override(self):
        prob = parse_problem("p = 7\nvars: x, y\norder: lex\nx^2 + y^2")
        assert prob.order == "lex"
        prob = parse_problem(
            "p = 7\nvars: x, y\norder: lex\nx^2 + y^2", order_override="deglex"
        )
        assert prob.order == "deglex"

    def test_coefficients_and_implicit_exponents(self):
        prob = parse_problem("p = 11\nvars: x, y\n5*x*y - 3*y^2")
        assert prob.polynomials[0].text() == "5*x*y + 8*y^2"

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("p = 7\nvars: x\nx*q")
        assert exc.value.line == 3

    def test_missing_pieces(self):
        with pytest.raises(ParseError):
            parse_problem("vars: x\nx")
        with pytest.raises(ParseError):
            parse_problem("p = 7\nx")
        with pytest.raises(ParseError):
            parse_problem("p = 7\nvars: x\n")


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.txt"
    path.write_text(CYCLIC)
    return str(path)


def run_main(argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestCommands:
    def test_gb(self, demo_file):
        code, out = run_main(["gb", demo_file])
        assert code == 0
        assert out.splitlines() == ["x*y", "x^2 + y^2", "y^3"]

    def test_oracle(self, demo_file):
        code, out = run_main(["oracle", demo_file])
        assert code == 0
        assert out.splitlines() == ["x*y", "x^2 + y^2", "y^3"]

    def test_gb_deterministic(self, demo_file):
        a = run_main(["gb", demo_file])
        b = run_main(["gb", demo_file])
        assert a == b

    def test_check_demo(self, demo_file):
        code, out = run_main(["check", demo_file])
        assert code == 0, out
        assert "ideal_equal: true" in out
        assert "result: ok" in out

    def test_check_json_report(self, cyclic_file):
        code, out = run_main(["check", cyclic_file, "--json-report"])
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["verdicts"]["ideal_equal"] is True
        assert report["verdicts"]["admissible"] is True
        assert report["skipped"] == []
        # identical basis as the plain gb command: check is a superset
        code2, out2 = run_main(["gb", cyclic_file])
        assert report["basis"] == out2.splitlines()

    def test_skipped_check_is_not_ok(self, cyclic_file, monkeypatch):
        # a log at or past the pair threshold: thm5_exhaustive does not run
        monkeypatch.setattr(
            trace,
            "check_thm5_exhaustive",
            functools.partial(trace.check_thm5_exhaustive, pair_threshold=0),
        )
        code, out = run_main(["check", cyclic_file, "--json-report"])
        report = json.loads(out)
        assert code == 2 and report["ok"] is False
        assert report["skipped"] == ["thm5_exhaustive"]
        assert report["verdicts"]["thm5_exhaustive"] is False
        assert "thm5_exhaustive: skipped (0 checked)" in report["checker_lines"]
        code, out = run_main(["check", cyclic_file])
        assert code == 2
        assert "thm5_exhaustive: skipped (0 checked)" in out
        assert "result: CHECK FAILURES" in out

    def test_budget_exit_code(self, cyclic_file):
        code, _ = run_main(["gb", cyclic_file, "--max-pairs", "1"])
        assert code == 3

    def test_trace_file_replayable(self, cyclic_file, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        code, out = run_main(["trace", cyclic_file, "--trace-out", str(trace_path)])
        assert code == 0
        with open(trace_path) as fp:
            events = events_from_jsonl(fp)
        assert events and all("seq" in ev and "kind" in ev for ev in events)
        prob = parse_problem(CYCLIC)
        for rep in run_all_checkers(events, prob.ring):
            assert rep.passed, rep.line()

    def test_descend_command(self, cyclic_file):
        code, out = run_main(["descend", cyclic_file, "--snapshot", "0"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["kind"] == "FinalRepresentation"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p = 4\nvars: x\nx")
        assert main([str(path), "gb"][::-1]) == 1

    def test_affine_oracle_works_engine_refuses(self, tmp_path):
        path = tmp_path / "affine.txt"
        path.write_text("p = 7\nvars: x, y\nx^2 + y\nx*y - 1\n")
        code, out = run_main(["oracle", str(path), "--allow-affine"])
        assert code == 0 and out.strip()
        code, _ = run_main(["gb", str(path), "--allow-affine"])
        assert code == 1


    def test_descend_without_snapshots_exits_2(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text("p = 7\nvars: x, y\nx^2*y\nx*y^2\n")
        code, out = run_main(["descend", str(path)])
        assert code == 2
        assert "no snapshots" in out
