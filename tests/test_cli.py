"""Front end: problem parsing, commands, exit codes, trace files."""

import ast
import gc
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from f5gb import cli, engine, oracle, sig, trace
from f5gb.cli import (
    NonPrimeModulus,
    ParseError,
    main,
    parse_problem,
    run_check,
)
from f5gb.engine import BudgetExceeded, EngineConfig, NonHomogeneousInput
from f5gb.poly import ORDER_KINDS, normal_form
from f5gb.trace import events_from_jsonl, run_all_checkers

import forged_logs
from systems import (
    CYCLIC4,
    LEX_SCOPE,
    OVERSHOOT_DEGLEX,
    PLANT_SYSTEMS,
    SUITE,
    SUITE_PRIMES,
    problem_text,
    random_problem_texts,
    strip_rejections,
)

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

    @pytest.mark.parametrize("term", ["x^32768", "x^16384*y^16384", "x^20000*x^20000"])
    def test_exponent_past_the_bound_is_a_parse_error(self, term):
        with pytest.raises(ParseError, match="bad exponent.*2\\^15") as exc:
            parse_problem(f"p = 7\nvars: x, y\nx*y\n{term} + y^2")
        assert exc.value.line == 4

    def test_modulus_past_2_31_is_a_parse_error(self):
        with pytest.raises(ParseError, match="not below 2\\^31") as exc:
            parse_problem("# GF(p) with p prime\np = 4294967311\nvars: x\nx")
        assert exc.value.line == 2

    def test_unknown_order_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown order 'foo'") as exc:
            parse_problem("p = 7\nvars: x, y\norder: foo\nx*y")
        assert exc.value.line == 3
        with pytest.raises(ParseError, match="unknown order 'foo'") as exc:
            parse_problem("p = 7\nvars: x, y\nx*y", order_override="foo")
        assert exc.value.line == 0

    def test_variable_listed_twice_is_a_parse_error(self):
        with pytest.raises(ParseError, match="variable 'x' listed twice") as exc:
            parse_problem("p = 7\nvars: x, y, x\nx*y")
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [
        "x^2 + + y^2", "x^2 - -y^2", "x^2 -+ y^2", "- -x^2", "x^2 +", "x^2 + y^2 -", "-",
    ])
    def test_doubled_or_dangling_operator_is_a_parse_error(self, line):
        with pytest.raises(ParseError, match="operator '[+-]' (follows another|has no term)") as exc:
            parse_problem(f"p = 7\nvars: x, y\nx*y\n{line}", allow_affine=True)
        assert exc.value.line == 4

    @pytest.mark.parametrize("line, text", [
        ("-x^2 + y^2", "6*x^2 + y^2"),
        ("+x^2 - y^2", "x^2 + 6*y^2"),
        ("- x^2 - y^2", "6*x^2 + 6*y^2"),
    ])
    def test_one_leading_sign_stays_valid(self, line, text):
        assert parse_problem(f"p = 7\nvars: x, y\n{line}").polynomials[0].text() == text

    def test_modulus_line_after_vars(self):
        prob = parse_problem("vars: x\np = 7\nx")
        assert prob.p == 7
        assert [q.text() for q in prob.polynomials] == ["x"]

    @pytest.mark.parametrize("text, line, first", [
        ("p = 7\nvars: x\np = 5\nx", 3, 1),
        ("vars: x\np = 7\nx\np = 5", 4, 2),
    ])
    def test_second_modulus_line_is_a_parse_error(self, text, line, first):
        with pytest.raises(ParseError, match=f"a second 'p =' line \\(the first is line {first}\\)") as exc:
            parse_problem(text)
        assert exc.value.line == line

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


def _skip_first_top_reduction(monkeypatch) -> list:
    """Make the engine skip the first top-reduction it finds; the returned
    list holds the skipped reductor, and clearing it arms the skip again."""
    is_reducible = engine.Engine._is_reducible
    skipped = []

    def skip_first(self, h, i):
        red = is_reducible(self, h, i)
        if red is not None and not skipped:
            skipped.append(red)
            return None
        return red

    monkeypatch.setattr(engine.Engine, "_is_reducible", skip_first)
    return skipped


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
        assert "skipped" not in report
        # identical basis as the plain gb command: check is a superset
        code2, out2 = run_main(["gb", cyclic_file])
        assert report["basis"] == out2.splitlines()

    def test_check_basis_is_the_engine_basis_on_the_suite(self):
        # the checked basis, read off the log, is the one ``f5gb gb`` prints
        # from the engine's result, on every suite system, prime and order
        config = EngineConfig(max_degree=12)
        compared = 0
        for names, texts in SUITE.values():
            for p in SUITE_PRIMES:
                for order in ORDER_KINDS:
                    problem = parse_problem(problem_text(p, names, texts), order_override=order)
                    try:
                        result = engine.incremental_f5(problem.polynomials, config)
                    except BudgetExceeded:
                        continue
                    report = run_check(problem, config, 1, 10**5, 0)
                    assert report["basis"] == [q.text() for q in result.basis_polynomials()]
                    compared += 1
        assert compared == 50  # of 54: four runs exceed max_degree 12

    def test_run_check_leaves_the_callers_config_alone(self):
        config = EngineConfig(max_degree=20)
        report = run_check(parse_problem(CYCLIC), config, 5, 10**5, 0)
        assert report["ok"] and report["descents"]["attempted"] == 5
        assert config == EngineConfig(max_degree=20)

    def test_run_check_leaves_no_reference_cycle(self):
        # the descent run holds the registry and with it the log: in a
        # cycle, every run's log would wait for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            report = _check_report(problem_text(32003, *CYCLIC4))
            alive = [o for o in gc.get_objects() if isinstance(o, oracle.DescentRun)]
        finally:
            gc.enable()
        assert report["ok"] and report["descents"]["attempted"] and alive == []

    def test_run_check_builds_one_registry_and_each_snapshot_once(self, cyclic_file, monkeypatch):
        # ``build_registry`` is the one walk of the log: the registry, the
        # replay and the damage; run_check also builds each snapshot once
        walks = []
        build = trace.build_registry

        def counting_walk(events, ring):
            walks.append(1)
            return build(events, ring)

        monkeypatch.setattr(trace, "build_registry", counting_walk)
        monkeypatch.setattr(cli, "build_registry", counting_walk)
        assert run_main(["descend", cyclic_file])[0] == 0
        assert len(walks) == 1
        del walks[:]
        snapshots = []
        from_result = oracle.GgSnapshot.from_result.__func__

        def counting_snapshot(cls, run, seq, *rest):
            snapshots.append(seq)
            return from_result(cls, run, seq, *rest)

        built = []  # the position of each vector replay begins: an input or a creation
        apply_ops = sig.apply_ops

        def counting_ops(ring, m, ops, vectors):
            built.extend(op[1] for op in ops if op[0] in ("input", "new"))
            return apply_ops(ring, m, ops, vectors)

        monkeypatch.setattr(oracle.GgSnapshot, "from_result", classmethod(counting_snapshot))
        monkeypatch.setattr(sig, "apply_ops", counting_ops)
        run_check(parse_problem(CYCLIC), EngineConfig(), 5, 10**5, 0)
        assert len(walks) == 1
        assert snapshots and len(snapshots) == len(set(snapshots))
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("system", ["cyclic4", "katsura3"])
    def test_criteria_are_tested_in_blocker_once_per_element(self, system, monkeypatch):
        # checks (b) and (c) are evaluated by ``InsertionView.blocker`` alone,
        # for the audit, the descent's P1/P2 test and its rewrites, and a
        # snapshot tests each element key once
        names, texts = {"cyclic4": CYCLIC4, "katsura3": SUITE["katsura3_homog"]}[system]
        blocker = trace.InsertionView.blocker
        scans = []  # (view, packed shifted signature monomial, position)

        def scanning(view, index, mono, pos):
            scans.append((view, mono.v, pos))
            return blocker(view, index, mono, pos)

        callers = []
        for name in ("phi_divisor", "rule_owner"):
            def counted(view, *args, method=getattr(trace.InsertionView, name)):
                callers.append(sys._getframe(1).f_code)
                return method(view, *args)

            monkeypatch.setattr(trace.InsertionView, name, counted)
        monkeypatch.setattr(trace.InsertionView, "blocker", scanning)
        report = run_check(parse_problem(problem_text(32003, names, texts)), EngineConfig(),
                           25, 10**5, 0)
        assert report["ok"] and report["descents"]["max_steps"] > 0
        assert callers and set(callers) == {blocker.__code__}
        on_snapshots = [(id(view), v, pos) for view, v, pos in scans
                        if isinstance(view, oracle.GgSnapshot)]
        assert on_snapshots and len(on_snapshots) == len(set(on_snapshots))

    def test_failed_check_is_not_ok(self, cyclic_file, monkeypatch):
        # the walk of the log without its criterion rejections: the pairs
        # they classified are unclassified, and thm5_exhaustive fails
        build = trace.build_registry
        monkeypatch.setattr(cli, "build_registry",
                            lambda events, ring: build(strip_rejections(events), ring))
        code, out = run_main(["check", cyclic_file, "--json-report"])
        report = json.loads(out)
        assert code == 2 and report["ok"] is False
        assert report["verdicts"]["thm5_exhaustive"] is False
        assert any(
            line.startswith("thm5_exhaustive: FAIL (") for line in report["checker_lines"]
        )
        code, out = run_main(["check", cyclic_file])
        assert code == 2
        assert "thm5_exhaustive: FAIL (" in out
        assert "result: CHECK FAILURES" in out

    def test_skipped_top_reduction_fails_thm4(self, tmp_path, monkeypatch):
        # the engine inserts one element that a permitted reductor should
        # have reduced; the pair is reported once, at the first snapshot
        # holding both
        skipped = _skip_first_top_reduction(monkeypatch)
        path = tmp_path / "cyclic4.txt"
        path.write_text(problem_text(32003, *CYCLIC4))
        code, out = run_main(["check", str(path), "--json-report"])
        report = json.loads(out)
        thm4 = report["thm4"]
        assert code == 2 and report["verdicts"]["thm4_reductors"] is False
        assert (thm4["pairs"], thm4["reductor_ok"]) == (1, 1)
        witness = "pair (5,8): reductor x0*x3*r5 passes (a)-(d)"
        assert thm4["failures"][0] == witness
        skipped.clear()
        code, out = run_main(["check", str(path)])
        assert "thm4 pairs: 1 found, 1 reductors pass (a)-(d)\n  " + witness in out

    @pytest.mark.parametrize("command", ["gb", "trace", "check", "descend"])
    def test_budget_exit_code(self, cyclic_file, tmp_path, command):
        argv = [command, cyclic_file, "--max-pairs", "1"]
        if command == "trace":
            argv += ["--trace-out", str(tmp_path / "partial.jsonl")]
        code, out = run_main(argv)
        assert code == 3
        inputs = parse_problem(CYCLIC).polynomials
        with pytest.raises(engine.BudgetExceeded) as exc:
            engine.incremental_f5(inputs, EngineConfig(max_pairs=1))
        counters = sorted(exc.value.counters.items())
        assert ("pairs_created", 1) in counters
        assert out.splitlines() == ["budget exceeded: pair budget exhausted"] + [
            f"  {key}: {val}" for key, val in counters
        ]
        if command == "trace":
            with open(tmp_path / "partial.jsonl") as fp:
                partial = events_from_jsonl(fp)
            full = engine.incremental_f5(inputs).events
            assert 0 < len(partial) < len(full)
            assert partial == full[: len(partial)]

    def test_engine_error_keeps_partial_trace(self, tmp_path, capsys):
        # each input is in bounds, but the lcm of their heads overflows when
        # call 1 forms its first pair
        path = tmp_path / "lcm.txt"
        path.write_text("p = 7\nvars: x, y\nx^20000\ny^20000\n")
        out_path = tmp_path / "partial.jsonl"
        assert main(["trace", str(path), "--trace-out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        with open(out_path) as fp:
            partial = events_from_jsonl(fp)
        kinds = [ev["kind"] for ev in partial]
        assert kinds[-1] == "RuleAdded" and "CritPairCreated" not in kinds

    def test_bad_trace_out_fails_before_the_run(self, cyclic_file, tmp_path, monkeypatch,
                                                capsys):
        runs = []
        monkeypatch.setattr(engine.Engine, "run", lambda self: runs.append(self))
        out_path = tmp_path / "missing" / "t.jsonl"
        assert main(["trace", cyclic_file, "--trace-out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("io error: ")
        assert runs == [] and not out_path.parent.exists()

    @pytest.mark.parametrize("text", ["p = 8\nvars: x\nx\n", "p = 7\nvars: x, y\nx^2 + y\n"])
    def test_input_error_writes_no_trace(self, tmp_path, capsys, text):
        # one error from parse_problem, one from the Engine construction
        path = tmp_path / "bad.txt"
        path.write_text(text)
        out_path = tmp_path / "t.jsonl"
        assert main(["trace", str(path), "--trace-out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_path.exists()

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

    def test_descend_out_of_scope_target_exits_2(self, tmp_path):
        # x1 * r8 lies below the signature of snapshot 7 but above its
        # degree, so the insertion does not cover it
        path = tmp_path / "random379.txt"
        path.write_text(LEX_SCOPE["random379"])
        code, out = run_main(
            ["descend", str(path), "--snapshot", "7", "--element", "8", "--mult", "x1"]
        )
        assert code == 2
        assert "out of scope" in out and "degree" in out

    @pytest.mark.parametrize("element", ["3", "9999", "-1"])
    def test_descend_non_member_element_exits_2(self, cyclic_file, element):
        # snapshot 0 of the cyclic run holds r0, r1 and r2
        code, out = run_main(["descend", cyclic_file, "--element", element])
        assert code == 2
        assert out == f"element {element} is not a member of snapshot 0 (members [0, 1, 2])\n"

    @pytest.mark.parametrize("mult", ["0", "x+y", "x - x", "7*x", "", "x +", "+ + x", "x - -y"])
    def test_descend_mult_must_be_one_nonzero_term(self, cyclic_file, mult, capsys):
        assert main(["descend", cyclic_file, "--mult", mult]) == 1
        assert capsys.readouterr().err.startswith("error: --mult: ")

    @pytest.mark.parametrize("argv, message", [
        (["check", "--descent-samples", "-1"], "--descent-samples must be at least 0, got -1"),
        (["check", "--descent-cap", "0"], "--descent-cap must be at least 1, got 0"),
        (["descend", "--descent-cap", "0"], "--descent-cap must be at least 1, got 0"),
        (["descend", "--descent-cap", "-5"], "--descent-cap must be at least 1, got -5"),
    ])
    def test_bad_descent_argument_fails_before_the_file_is_read(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        # the path does not exist, and no engine runs
        monkeypatch.setattr(cli, "incremental_f5", None)
        path = str(tmp_path / "missing.txt")
        assert main([argv[0], path, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["gb", "trace", "check", "descend"])
    @pytest.mark.parametrize("flags, message", [
        (["--max-pairs", "-5"], "--max-pairs must be at least 0, got -5"),
        (["--max-degree", "-1"], "--max-degree must be at least 0, got -1"),
    ])
    def test_negative_budget_fails_before_the_file_is_read(
        self, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        # a usage error, not a budget exit: the path does not exist, and no
        # engine runs
        monkeypatch.setattr(cli, "incremental_f5", None)
        path, out = str(tmp_path / "missing.txt"), tmp_path / "trace.jsonl"
        extra = ["--trace-out", str(out)] if command == "trace" else []
        assert main([command, path, *extra, *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_descend_mult_past_the_exponent_bound_errors(self, cyclic_file, capsys):
        # r2 has signature z*F2, so z^32767 * sig(r2) passes the bound
        assert main(["descend", cyclic_file, "--element", "2", "--mult", "z^32767"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: product of Monomial((0, 0, 32767, 0)) and ")
        assert "2^15" in err

    def test_descend_mult_coefficient_scales_the_target(self, cyclic_file):
        # the term's coefficient multiplies the target, mod 7; one leading
        # sign stays valid
        for mult, coeff in (("h", 1), ("3*h", 3), ("-h", 6)):
            code, out = run_main(["descend", cyclic_file, "--element", "1", f"--mult={mult}"])
            assert code == 0 and f'"elements":[[{coeff},[0,0,0,1],1]]' in out, mult

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p = 4\nvars: x\nx")
        assert main([str(path), "gb"][::-1]) == 1

    def test_exponent_overflow_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("p = 7\nvars: x, y\nx^40000 + y^40000\n")
        assert main(["gb", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gb", "check"])
    def test_overflow_in_computation_exit_code(self, tmp_path, capsys, command):
        # each input is in bounds, but the lcm of their heads has degree 40,000
        path = tmp_path / "lcm.txt"
        path.write_text("p = 7\nvars: x, y\nx^20000\ny^20000\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^15" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "p = 4294967311\nvars: x\nx",
        "p = 7\nvars: x, y\norder: foo\nx*y",
        "p = 7\nvars: x, x\nx^2",
        "p = 7\nvars: x, y\nx^2 - -y^2",
        "p = 7\nvars: x, 2\n2*x + x*2",
        "p = 7\nvars: x y, z\nz^2",
        "p = 7\nvars: x\nvars: y\ny^2",
        "p = 7\nvars: x\norder: lex\norder: deglex\nx^2",
    ], ids=["modulus", "order", "vars", "operators", "digit-name", "spaced-name",
            "second-vars", "second-order"])
    def test_bad_input_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        for command in ("gb", "oracle", "check"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: line ") and "Traceback" not in err

    def test_unknown_order_flag_exit_code(self, demo_file, capsys):
        assert main(["gb", demo_file, "--order", "foo"]) == 1
        assert capsys.readouterr().err == "error: --order: unknown order 'foo'\n"

    @pytest.mark.parametrize("argv, message", [
        (["descend", "FILE", "--mult", "-h"], "argument --mult: expected one argument"),
        (["check", "FILE", "--bogus"], "unrecognized arguments: --bogus"),
        (["check"], "the following arguments are required: file"),
        (["nope", "FILE"], "argument command: invalid choice: 'nope'"),
        # the reference algorithm has no engine budgets
        (["oracle", "FILE", "--max-degree", "3"], "unrecognized arguments: --max-degree 3"),
    ])
    def test_usage_error_exit_code(self, demo_file, capsys, argv, message):
        # 2 is the code of a check failure; a usage error is an input error
        argv = [demo_file if arg == "FILE" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["descend", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: f5gb")

    @pytest.mark.parametrize("order", ["degrevlex", "deglex", "lex"])
    def test_check_over_gf2(self, tmp_path, order):
        # the package accepts every prime below 2^31, 2 included
        path = tmp_path / "cyclic4_gf2.txt"
        path.write_text(problem_text(2, *CYCLIC4))
        code, out = run_main(["check", str(path), "--order", order])
        assert code == 0 and out.endswith("result: ok\n")

    def test_affine_oracle_works_engine_refuses(self, tmp_path):
        path = tmp_path / "affine.txt"
        path.write_text("p = 7\nvars: x, y\nx^2 + y\nx*y - 1\n")
        code, out = run_main(["oracle", str(path), "--allow-affine"])
        assert code == 0 and out.strip()
        code, _ = run_main(["gb", str(path)])
        assert code == 1


    def test_descend_without_snapshots_exits_2(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text("p = 7\nvars: x, y\nx^2*y\nx*y^2\n")
        code, out = run_main(["descend", str(path)])
        assert code == 2
        assert "no snapshots" in out


class _LogOnly:
    """An engine result that holds only ``events`` and ``counters``: any
    other read, such as of ``R`` or ``basis``, fails the test."""

    def __init__(self, events, counters):
        self.events, self.counters = events, counters

    def __getattr__(self, name):
        raise AssertionError(f"EngineResult.{name} read after the run")


def _engine_returning(monkeypatch, change=lambda events: events):
    """Make ``cli.incremental_f5`` return a ``_LogOnly`` of its log, with
    ``change`` applied to the events."""
    run = cli.incremental_f5

    def log_only(*args):
        result = run(*args)
        return _LogOnly(change(result.events), result.counters)

    monkeypatch.setattr(cli, "incremental_f5", log_only)


def _check_report(text) -> dict:
    report = run_check(parse_problem(text), EngineConfig(), 25, 10**5, 0)
    del report["elapsed_s"]
    return report


def _empty_first_insertion(events):
    """The log with the first ``DoneInserted`` polynomial empty."""
    first = next(ev for ev in events if ev["kind"] == "DoneInserted")
    return [{**ev, "poly": []} if ev is first else ev for ev in events]


def _empty_second_input(events):
    """The log with the second ``CallBegin`` polynomial empty."""
    second = [ev for ev in events if ev["kind"] == "CallBegin"][1]
    return [{**ev, "poly": []} if ev is second else ev for ev in events]


def _zero_in_checked_basis(events):
    """The log with cyclic-4's zero-reduced r19 appended to call 1's
    ``CallEnd.basis``."""
    *head, end = events
    assert any(ev["kind"] == "ReductionToZero" and ev["pos"] == 19 for ev in head)
    assert end["kind"] == "CallEnd" and end["call"] == 1 and 19 not in end["basis"]
    return head + [{**end, "basis": end["basis"] + [19]}]


def _self_reduced_insertion(events):
    """The log with a φ step of the first inserted element h by itself
    (coefficient 1, unit multiplier) just before h's ``DoneInserted``, so
    that h replays to zero; the events are renumbered."""
    done = next(ev for ev in events if ev["kind"] == "DoneInserted")
    h, sig = done["pos"], done["sig"]
    step = {"seq": None, "kind": "PhiPreReduce", "call": done["call"], "h": h, "h_sig": sig,
            "h_index": sig["index"], "reductor": h, "reductor_index": sig["index"],
            "mult": (0,) * len(sig["mono"]), "coeff": 1}
    forged = [e for ev in events for e in ([step, ev] if ev is done else [ev])]
    return [{**ev, "seq": seq} for seq, ev in enumerate(forged)]


def _vanishing_second_input(events):
    """The log with the second ``CallBegin`` polynomial's coefficients times
    p, so that its terms are logged and the input replays to zero."""
    second = [ev for ev in events if ev["kind"] == "CallBegin"][1]
    poly = [[c * 32003, exps] for c, exps in second["poly"]]
    return [{**ev, "poly": poly} if ev is second else ev for ev in events]


def _first_insertion_into(call):
    """The change that moves the first ``DoneInserted`` (seq 9, r2, call 3)
    into ``call``."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == "DoneInserted")
        assert (first["seq"], first["pos"], first["call"]) == (9, 2, 3)
        return [{**ev, "call": call} if ev is first else ev for ev in events]
    return forge


# a forged cyclic-4 log with a zero polynomial -> its damage and the reports
# that fail on it
ZERO_POLY_FORGERIES = {
    "empty_insertion": (
        _empty_first_insertion, "damaged log: seq 9: empty DoneInserted polynomial of r2",
        ["rule_degrees", "genealogy", "trail_replay", "chains", "done_insertion_audit",
         "thm5_exhaustive"]),
    "empty_input": (
        _empty_second_input, "damaged log: seq 3: empty CallBegin polynomial of r1",
        ["rule_degrees", "genealogy", "trail_replay", "chains", "done_insertion_audit",
         "thm5_exhaustive"]),
    "vanishing_input": (
        _vanishing_second_input, "damaged log: seq 3: input r1 replays to zero",
        ["rule_degrees", "genealogy", "trail_replay", "chains", "done_insertion_audit",
         "thm5_exhaustive"]),
    "zero_in_checked_basis": (
        _zero_in_checked_basis,
        "damaged log: seq 361: call 1's CallEnd names r19, which the replay reduced to zero",
        []),
    "self_reduced_insertion": (
        _self_reduced_insertion, "damaged log: seq 10: Done-inserted r2 replays to zero",
        ["signature_safety", "rule_degrees", "genealogy", "trail_replay", "chains",
         "done_insertion_audit", "thm5_exhaustive"]),
}
# a forged cyclic-4 log with an insertion into a call that no earlier
# CallBegin began (cyclic-4's calls are 4, 3, 2, 1, and the first insertion
# is in call 3) -> its damage, which names the call field; the five registry
# reports fail on it
UNBEGUN_CALL_FORGERIES = {
    f"insertion_into_call_{call}": (
        _first_insertion_into(call),
        f"damaged log: seq 9: DoneInserted call {call} is not call 3, which the enclosing"
        " CallBegin began",
        ["rule_degrees", "genealogy", "chains", "done_insertion_audit", "thm5_exhaustive"])
    for call in (9, 0)
}



def _raised_step_copy(kind, name):
    """The change that raises by one the index that field ``name`` of the
    first ``kind`` event holds: the field itself, or a signature's index."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == kind)
        value = first[name]
        value = value + 1 if type(value) is int else {**value, "index": value["index"] + 1}
        return [{**ev, name: value} if ev is first else ev for ev in events]
    return forge


# a forged cyclic-4 log with a step field that copies a signature or an
# index other than the registry's -> its damage; only the replay fails on it
STEP_COPY_FORGERIES = {
    f"{kind}_{name}": (
        _raised_step_copy(kind, name),
        f"damaged log: seq {seq}: {kind} {name} differs from the registry", ["trail_replay"])
    for kind, seq, names in (("PhiPreReduce", 56, ("h_sig", "h_index", "reductor_index")),
                             ("ReductionStep", 57, ("h_sig", "msig")))
    for name in names
}


def _without_seq(seq):
    """The change that drops the event with ``seq``."""
    return lambda events: [ev for ev in events if ev["seq"] != seq]


def _changed_at(seq, change):
    """The change that replaces the event with ``seq`` by ``change`` of a
    copy of it."""
    return lambda events: [change(dict(ev)) if ev["seq"] == seq else ev for ev in events]


# a forged cyclic-4 log whose CallBegin does not follow on the CallEnd just
# before it (cyclic-4's call 3 ends at seq 30 and call 2 begins at seq 31;
# call 2 ends at seq 239 and call 1 begins at seq 240), or whose CallEnd
# names another call than the one it ends -> its damage; the five registry
# reports fail on it
CALL_LINK_FORGERIES = {
    "dropped_call_end_of_call_2": (
        _without_seq(239),
        "damaged log: seq 240: CallBegin of call 1 does not follow the CallEnd of call 2"),
    "call_end_of_call_3_as_call_9": (
        _changed_at(30, lambda ev: {**ev, "call": 9}),
        "damaged log: seq 30: CallEnd call 9 is not call 3, which the enclosing CallBegin"
        " began"),
    "g_next_without_its_last_position": (
        _changed_at(31, lambda ev: {**ev, "g_next": ev["g_next"][:-1]}),
        "damaged log: seq 31: CallBegin g_next is not the basis of call 3's CallEnd"),
}


def _named_position(kind, where, name):
    """The change that sets field ``name`` of the first ``kind`` event with
    ``where`` (None for a kind without one) to r1000000, which no event
    creates."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == kind and ev.get("where") == where)
        return [{**ev, name: 10**6} if ev is first else ev for ev in events]
    return forge


# a forged cyclic-4 log whose pair or rejection names a position no earlier
# event created -> its damage, which names the field; the five registry
# reports fail on it
NAMED_POSITION_FORGERIES = {
    f"{kind}_{where}_{name}": (
        _named_position(kind, where, name),
        f"damaged log: seq {seq}: {kind} {name} names r1000000, which no earlier event created")
    for kind, where, seq, names in (
        ("CritPairCreated", None, 5, ("p1", "p2")),
        ("RewrittenReject", "spol", 15, ("pos", "rewriter", "p1", "p2")),
        ("F5CritPairReject", "crit_pair", 26, ("pos", "blocked_by", "p1", "p2")),
        ("RewrittenReject", "is_reducible", 88, ("h", "cand", "rewriter")),
        ("F5CritPairReject", "is_reducible", 158, ("h", "cand", "blocked_by")))
    for name in names
}


def _second_insertion(events):
    """The log with its last ``DoneInserted`` logged again just before the
    last ``CallEnd``, the events renumbered."""
    last = max(k for k, ev in enumerate(events) if ev["kind"] == "CallEnd")
    again = [ev for ev in events[:last] if ev["kind"] == "DoneInserted"][-1]
    forged = events[:last] + [again] + events[last:]
    return [{**ev, "seq": seq} for seq, ev in enumerate(forged)]


# a forged cyclic-4 log that reaches call 1's last CallEnd (seq 361) with a
# created element that has no outcome, or with one that has two -> its
# damage and the reports that fail on it
OUTCOME_FORGERIES = {
    "dropped_reduction_to_zero": (
        _without_seq(292),
        "damaged log: seq 361: call 1's CallEnd ends the run with r19, which has no"
        " DoneInserted or ReductionToZero", ["thm5_exhaustive"]),
    "second_done_insertion": (
        _second_insertion,
        "damaged log: seq 361: DoneInserted of r20 after its DoneInserted", []),
}


def _extra_term_value(kind):
    """The change that appends 1 to the first term of the polynomial of the
    first ``kind`` event."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == kind)
        poly = [list(term) for term in first["poly"]]
        poly[0].append(1)
        return [{**ev, "poly": poly} if ev is first else ev for ev in events]
    return forge


# a forged cyclic-4 log with a polynomial term that is not [c, vector] ->
# its damage; the registry reports and the replay fail on it
MALFORMED_TERM_FORGERIES = {
    f"extra_value_in_{kind}": (
        _extra_term_value(kind),
        f"damaged log: seq {seq}: {kind} field 'poly' is not a valid polynomial",
        ["rule_degrees", "genealogy", "trail_replay", "chains", "done_insertion_audit",
         "thm5_exhaustive"])
    for kind, seq in (("CallBegin", 0), ("SPolCreated", 8), ("DoneInserted", 9))
}


class TestLogOnlyCheck:
    """Once the engine returns, ``run_check`` and ``f5gb descend`` read its
    event log and counters alone."""

    def test_run_check_reads_only_the_log(self, monkeypatch):
        texts = [problem_text(p, names, texts) for names, texts in SUITE.values()
                 for p in SUITE_PRIMES]
        expected = [_check_report(text) for text in texts]
        _engine_returning(monkeypatch)
        assert [_check_report(text) for text in texts] == expected

    def test_descend_reads_only_the_log(self, tmp_path, monkeypatch):
        path = tmp_path / "cyclic4.txt"
        path.write_text(problem_text(32003, *CYCLIC4))
        argvs = [["descend", str(path), "--snapshot", str(k)] for k in range(17)]
        expected = [run_main(argv) for argv in argvs]
        assert [code for code, _ in expected] == [0] * 16 + [2]
        _engine_returning(monkeypatch)
        assert [run_main(argv) for argv in argvs] == expected

    def test_oracle_does_not_import_the_engine(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "engine" not in modules and "f5gb.engine" not in modules

    def test_dropped_final_call_end_fails_ideal_equal(self, monkeypatch):
        # with no CallEnd of call 1 the checked basis is empty
        text = problem_text(32003, *CYCLIC4)
        assert _check_report(text)["ok"]
        _engine_returning(monkeypatch, lambda events: [
            ev for ev in events if not (ev["kind"] == "CallEnd" and ev["call"] == 1)])
        report = _check_report(text)
        assert report["basis"] == [] and report["basis_size"] == 0
        assert report["verdicts"]["ideal_equal"] is False and report["ok"] is False

    def test_forged_basis_fails_ideal_equal(self, monkeypatch):
        # cyclic-4's call 1 ends with positions 0-18 and 20; of those, the
        # heads of 6, 11, 12, 16, 17, 18 and 20 no other basis head divides.
        # A basis without one of them fails; without position 0, whose head
        # another head divides, it still generates the ideal
        text = problem_text(32003, *CYCLIC4)
        for pos, equal in [(0, True), (6, False), (11, False), (12, False), (16, False),
                           (17, False), (18, False), (20, False)]:
            def forge(events):
                *head, end = events
                assert end["kind"] == "CallEnd" and end["call"] == 1 and pos in end["basis"]
                return head + [{**end, "basis": [p for p in end["basis"] if p != pos]}]

            with monkeypatch.context() as m:
                _engine_returning(m, forge)
                report = _check_report(text)
            assert report["basis_size"] == 19
            assert report["verdicts"]["ideal_equal"] is equal and report["ok"] is equal, pos

    @pytest.mark.parametrize("forge, damage, failing", ZERO_POLY_FORGERIES.values(),
                             ids=list(ZERO_POLY_FORGERIES))
    def test_zero_polynomial_is_damage(self, tmp_path, monkeypatch, forge, damage, failing):
        # a zero input, inserted or checked-basis polynomial fails the log
        # with its seq and position instead of raising
        self._damage_is_reported(tmp_path, monkeypatch, forge, damage, failing)

    @pytest.mark.parametrize("forge, damage, failing", UNBEGUN_CALL_FORGERIES.values(),
                             ids=list(UNBEGUN_CALL_FORGERIES))
    def test_insertion_into_an_unbegun_call_is_damage(self, tmp_path, monkeypatch, forge,
                                                      damage, failing):
        # the registry files an insertion under its enclosing call, and
        # names a call field that is not that call as damage
        self._damage_is_reported(tmp_path, monkeypatch, forge, damage, failing)

    def test_basis_member_without_its_insertion_is_damage(self, tmp_path, monkeypatch):
        # without cyclic-4's first DoneInserted (seq 9, r2, call 3), call 2
        # begins with r2 in its basis, which the registry never inserted
        def forge(events):
            first = next(ev for ev in events if ev["kind"] == "DoneInserted")
            return [ev for ev in events if ev is not first]

        self._damage_is_reported(
            tmp_path, monkeypatch, forge,
            "damaged log: seq 31: CallBegin g_next names r2, which no DoneInserted inserted",
            ["rule_degrees", "genealogy", "chains", "done_insertion_audit", "thm5_exhaustive"])

    def test_checked_basis_member_without_its_insertion_is_damage(self, tmp_path, monkeypatch):
        # without cyclic-4's DoneInserted of r20 (seq 319), call 1 ends with
        # r20 in the checked basis, which the registry never inserted
        self._damage_is_reported(
            tmp_path, monkeypatch, _without_seq(319),
            "damaged log: seq 361: call 1's CallEnd names r20, which no DoneInserted inserted",
            [])

    @pytest.mark.parametrize("forge, damage", CALL_LINK_FORGERIES.values(),
                             ids=list(CALL_LINK_FORGERIES))
    def test_call_that_does_not_follow_its_call_end_is_damage(self, tmp_path, monkeypatch,
                                                              forge, damage):
        self._damage_is_reported(
            tmp_path, monkeypatch, forge, damage,
            ["rule_degrees", "genealogy", "chains", "done_insertion_audit", "thm5_exhaustive"])

    @pytest.mark.parametrize("forge, damage, failing", STEP_COPY_FORGERIES.values(),
                             ids=list(STEP_COPY_FORGERIES))
    def test_step_copy_that_differs_from_the_registry_is_damage(self, tmp_path, monkeypatch,
                                                                forge, damage, failing):
        # the walk compares each replayed step's copies with the registry,
        # and the damage names the field
        self._damage_is_reported(tmp_path, monkeypatch, forge, damage, failing)

    @pytest.mark.parametrize("forge, damage", NAMED_POSITION_FORGERIES.values(),
                             ids=list(NAMED_POSITION_FORGERIES))
    def test_pair_or_rejection_of_an_uncreated_position_is_damage(self, tmp_path, monkeypatch,
                                                                  forge, damage):
        self._damage_is_reported(
            tmp_path, monkeypatch, forge, damage,
            ["rule_degrees", "genealogy", "chains", "done_insertion_audit", "thm5_exhaustive"])

    @pytest.mark.parametrize("forge, damage, failing", OUTCOME_FORGERIES.values(),
                             ids=list(OUTCOME_FORGERIES))
    def test_element_without_one_outcome_is_damage(self, tmp_path, monkeypatch, forge, damage,
                                                   failing):
        self._damage_is_reported(tmp_path, monkeypatch, forge, damage, failing)

    @pytest.mark.parametrize("forge, damage, failing", MALFORMED_TERM_FORGERIES.values(),
                             ids=list(MALFORMED_TERM_FORGERIES))
    def test_malformed_polynomial_term_is_damage(self, tmp_path, monkeypatch, forge, damage,
                                                 failing):
        # the replay and the registry unpack each term as [c, vector], so
        # they name such a term as damage instead of raising
        self._damage_is_reported(tmp_path, monkeypatch, forge, damage, failing)

    @staticmethod
    def _damage_is_reported(tmp_path, monkeypatch, forge, damage, failing):
        """``run_check`` on cyclic-4's log changed by ``forge`` names
        ``damage``, fails the four damage verdicts and exactly the reports
        ``failing``, and ``f5gb descend`` exits 2 with ``damage``."""
        text = problem_text(32003, *CYCLIC4)
        _engine_returning(monkeypatch, forge)
        report = _check_report(text)
        assert report["damaged_log"] == damage and report["ok"] is False
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
        assert [line.split(":")[0] for line in report["checker_lines"]
                if ": FAIL" in line] == failing
        path = tmp_path / "cyclic4.txt"
        path.write_text(text)
        assert run_main(["descend", str(path)]) == (2, damage + "\n")


def _where_set(kind, where, to):
    """The change that sets the ``where`` of the first ``kind`` event with
    ``where`` to ``to``."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == kind and ev.get("where") == where)
        return [{**ev, "where": to} if ev is first else ev for ev in events]
    return forge


def _through_jsonl(events):
    """``events`` written by ``Trace.to_jsonl`` and read back."""
    log = trace.Trace()
    log.events = events
    buf = io.StringIO()
    log.to_jsonl(buf)
    buf.seek(0)
    return events_from_jsonl(buf)


# a forged cyclic-4 log whose rejection names its other row's ``where``, or
# none of its kind's -> its damage, which names the field: the row is found
# by the keys, so the reader accepts the line
WHERE_FORGERIES = {
    f"{kind}_{where}_as_{to}": (_where_set(kind, where, to), f"damaged log: seq {seq}: {kind}"
                                f" where {to!r} is not its row's {where!r}")
    for kind, where, to, seq in (
        ("F5CritPairReject", "crit_pair", "is_reducible", 26),
        ("F5CritPairReject", "is_reducible", "crit_pair", 158),
        ("RewrittenReject", "spol", "is_reducible", 15),
        ("RewrittenReject", "is_reducible", "spol", 88),
        ("RewrittenReject", "spol", "x", 15))
}


def _first_pair_changed(change):
    """The forgery of a cyclic-4 log that ``change`` makes of its first
    ``CritPairCreated``, seq 5."""
    def forge(events):
        first = next(ev for ev in events if ev["kind"] == "CritPairCreated")
        return [change(ev) if ev is first else ev for ev in events]

    return forge


# a cyclic-4 log whose first pair holds a value of the wrong type, or lacks
# its seq -> the walk's damage at seq 5, the kind and then the reader's
# message on the line, which names the field
TYPE_FORGERIES = {
    "p1_list": (lambda ev: {**ev, "p1": [1]}, "CritPairCreated field 'p1' is not a valid int"),
    "sig1_none": (lambda ev: {**ev, "sig1": None},
                  "CritPairCreated field 'sig1' is not a valid signature"),
    "no_seq": (lambda ev: {name: ev[name] for name in list(ev)[1:]},
               "no CritPairCreated row has the keys ['kind', 'call', 'deg', 'sig1', 'sig2', 't',"
               " 'u1', 'p1', 'u2', 'p2']"),
}


# the problem text of each system whose logs hold every row between them
_SYSTEM_TEXTS = {system: problem_text(32003, *names_texts) for system, names_texts in
                 (("cyclic4", CYCLIC4), ("katsura3", SUITE["katsura3_homog"]))}


def _first_of_each_row() -> list:
    """(system, kind, keys, seq) of the first event of each row in the
    cyclic-4 and katsura-3 logs, which hold every row between them."""
    out = []
    for system, text in _SYSTEM_TEXTS.items():
        firsts = {}
        for ev in engine.incremental_f5(parse_problem(text).polynomials).events:
            firsts.setdefault(tuple(ev), (ev["kind"], ev["seq"]))
        out += [(system, kind, keys, seq) for keys, (kind, seq) in firsts.items()]
    return out


# the damage of a PhiPreReduce whose reductor is r1000000, which no event
# creates
UNKNOWN_REDUCTOR = "PhiPreReduce reductor names r1000000, which no earlier event created"
# the four verdicts a damaged log cannot give
DAMAGE_VERDICTS = ("ideal_equal", "admissible", "descents", "thm4_reductors")


class TestDamagedLogCheck:
    """A log with an event that names a position no earlier event created
    fails ``run_check`` instead of raising: the reports read off the
    registry fail, and so do the verdicts that need the replayed basis,
    vectors or snapshots, each with the damage as its reason."""

    @staticmethod
    def _dropping(monkeypatch, kind: str, k: int):
        """``cli.incremental_f5`` returning its log without the k-th event
        of ``kind``."""
        def drop(events):
            target = [ev for ev in events if ev["kind"] == kind][k]
            return [ev for ev in events if ev is not target]

        _engine_returning(monkeypatch, drop)

    @pytest.mark.parametrize("kind, k, reason", [
        ("CallBegin", 1, "damaged log: seq 5: CritPairCreated call 1 is not call 2, which the"
                         " enclosing CallBegin began"),
        ("SPolCreated", 0, "damaged log: seq 9: DoneInserted pos names r2, which no earlier"
                           " event created"),
    ])
    def test_demo_drop_fails_with_a_reason(self, monkeypatch, kind, k, reason):
        self._dropping(monkeypatch, kind, k)
        report = _check_report(problem_text(32003, *SUITE["two_gen_demo"]))
        assert report["damaged_log"] == reason and report["ok"] is False
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
        assert report["descents"]["failures"] == [reason] == report["thm4"]["failures"]
        assert report["descents"]["attempted"] == 0 and report["thm4"]["pairs"] == 0

    def test_every_cyclic4_creation_drop_fails(self, monkeypatch):
        text = problem_text(32003, *CYCLIC4)
        events = engine.incremental_f5(parse_problem(text).polynomials).events
        counts = {kind: sum(ev["kind"] == kind for ev in events) for kind in trace.CREATION_FIELDS}
        assert counts == {"CallBegin": 4, "SPolCreated": 20, "NewFromTopReduction": 0}
        for kind, count in counts.items():
            for k in range(count):
                with monkeypatch.context() as m:
                    self._dropping(m, kind, k)
                    report = _check_report(text)
                assert report["damaged_log"].startswith("damaged log: seq "), (kind, k)
                assert not any(report["verdicts"][name] for name in DAMAGE_VERDICTS), (kind, k)

    def test_unknown_reductor_is_damage_from_the_replay_alone(self, monkeypatch):
        # the registry reads no reductor, so only the replay names the damage
        def forge(events):
            first = next(ev for ev in events if ev["kind"] == "PhiPreReduce")
            return [{**ev, "reductor": 10**6} if ev is first else ev for ev in events]

        _engine_returning(monkeypatch, forge)
        report = _check_report(problem_text(32003, *CYCLIC4))
        assert report["damaged_log"] == ("damaged log: seq 56: PhiPreReduce reductor names"
                                         " r1000000, which no earlier event created")
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
        failing = [line.split(":")[0] for line in report["checker_lines"] if ": FAIL" in line]
        assert len(report["checker_lines"]) == 8 and failing == ["trail_replay"]

    @pytest.mark.parametrize("phi, done, damage, registry_damage, replay_damage", [
        ("first", "last", (56, UNKNOWN_REDUCTOR),
         (319, "DoneInserted call 9 is not call 1, which the enclosing CallBegin began"),
         (56, UNKNOWN_REDUCTOR)),
        ("last", "first", (9, "DoneInserted call 9 is not call 3, which the enclosing CallBegin"
                              " began"),
         (9, "DoneInserted call 9 is not call 3, which the enclosing CallBegin began"),
         (354, UNKNOWN_REDUCTOR)),
    ], ids=["replay_damage_first", "registry_damage_first"])
    def test_two_damaged_events(self, tmp_path, monkeypatch, phi, done, damage,
                                registry_damage, replay_damage):
        # an unknown reductor is damage to the replay alone, an insertion
        # whose call is not its enclosing call to the registry alone: the
        # log names the earlier of the two, and each report the one it reads
        def forge(events):
            pick = {"first": 0, "last": -1}
            step = [ev for ev in events if ev["kind"] == "PhiPreReduce"][pick[phi]]
            insertion = [ev for ev in events if ev["kind"] == "DoneInserted"][pick[done]]
            return [{**ev, "reductor": 10**6} if ev is step else
                    {**ev, "call": 9} if ev is insertion else ev for ev in events]

        text = problem_text(32003, *CYCLIC4)
        problem = parse_problem(text)
        events = forge(engine.incremental_f5(problem.polynomials).events)
        failing = {rep.name: rep.failures[0] for rep in run_all_checkers(events, problem.ring)
                   if not rep.passed}
        assert failing == {**dict.fromkeys(["rule_degrees", "genealogy", "chains",
                                            "done_insertion_audit", "thm5_exhaustive"],
                                           registry_damage),
                           "trail_replay": replay_damage}
        _engine_returning(monkeypatch, forge)
        report = _check_report(text)
        reason = "damaged log: seq %d: %s" % damage
        assert report["damaged_log"] == reason and report["ok"] is False
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
        path = tmp_path / "cyclic4.txt"
        path.write_text(text)
        assert run_main(["descend", str(path)]) == (2, reason + "\n")

    @pytest.mark.parametrize("forge, damage", WHERE_FORGERIES.values(),
                             ids=list(WHERE_FORGERIES))
    @pytest.mark.parametrize("path", ["memory", "jsonl"])
    def test_rejection_of_another_row_is_damage(self, monkeypatch, forge, damage, path):
        # the walk reads a rejection through the row its keys fit, so a
        # where of the other row is damage, in memory and read back alike
        read = forge if path == "memory" else lambda events: _through_jsonl(forge(events))
        _engine_returning(monkeypatch, read)
        report = _check_report(problem_text(32003, *CYCLIC4))
        assert report["damaged_log"] == damage and report["ok"] is False
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4

    def test_each_row_without_its_last_key_is_damage(self, monkeypatch):
        # an event that fits no row is damage, named as the reader names
        # its line, which the reader rejects; it never raises in the walk
        firsts = _first_of_each_row()
        assert {keys for _, _, keys, _ in firsts} == set(trace._rows())
        for system, kind, keys, seq in firsts:
            def forge(events):
                return [{name: ev[name] for name in keys[:-1]} if ev["seq"] == seq else ev
                        for ev in events]

            unfit = f"no {kind} row has the keys {list(keys[:-1])}"
            with monkeypatch.context() as m:
                _engine_returning(m, forge)
                report = _check_report(_SYSTEM_TEXTS[system])
            assert report["damaged_log"] == f"damaged log: seq {seq}: {unfit}", (system, keys)
            assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
            problem = parse_problem(_SYSTEM_TEXTS[system])
            events = engine.incremental_f5(problem.polynomials).events
            with pytest.raises(ValueError, match=re.escape(f"line {seq + 1}: {unfit}")):
                _through_jsonl(forge(events))

    @pytest.mark.parametrize("change, damage", TYPE_FORGERIES.values(),
                             ids=list(TYPE_FORGERIES))
    def test_wrongly_typed_event_is_damage(self, monkeypatch, change, damage):
        # the walk names a value of the wrong type, and an event with no
        # seq, as the reader names its line, instead of raising
        forge = _first_pair_changed(change)
        problem = parse_problem(_SYSTEM_TEXTS["cyclic4"])
        events = forge(engine.incremental_f5(problem.polynomials).events)
        registry = trace.build_registry(events, problem.ring)
        assert registry.damage == (5, damage)
        assert len(trace.run_all_checkers(events, problem.ring, registry)) == 8
        reader = damage if damage.startswith("no ") else damage.split(" ", 1)[1]
        with pytest.raises(ValueError, match=re.escape(f"line 6: {reader}")):
            _through_jsonl(events)
        _engine_returning(monkeypatch, forge)
        report = _check_report(_SYSTEM_TEXTS["cyclic4"])
        assert report["damaged_log"] == f"damaged log: seq 5: {damage}" and report["ok"] is False
        assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4

    def test_descend_on_a_damaged_log_exits_2(self, tmp_path, monkeypatch):
        path = tmp_path / "cyclic4.txt"
        path.write_text(problem_text(32003, *CYCLIC4))
        self._dropping(monkeypatch, "SPolCreated", 0)
        code, out = run_main(["descend", str(path), "--snapshot", "3"])
        assert code == 2 and out.startswith("damaged log: seq ")

    @pytest.mark.parametrize("system", ["cyclic4", "katsura3"])
    def test_rule_of_an_uncreated_position_is_damage(self, monkeypatch, system):
        # a RuleAdded precedes its owner's creation, so the walk tells an
        # owner that no event creates only at its end, and names the rule
        text = problem_text(32003, *{"cyclic4": CYCLIC4,
                                     "katsura3": SUITE["katsura3_homog"]}[system])
        events = engine.incremental_f5(parse_problem(text).polynomials).events
        rules = [ev for ev in events if ev["kind"] == "RuleAdded"]
        assert len(rules) == {"cyclic4": 24, "katsura3": 14}[system]
        for rule in rules:
            with monkeypatch.context() as m:
                _engine_returning(m, lambda log: [
                    {**ev, "pos": 10**6} if ev["seq"] == rule["seq"] else ev for ev in log])
                report = _check_report(text)
            reason = (f"damaged log: seq {rule['seq']}: RuleAdded pos names r1000000, which no"
                      " event creates")
            assert report["damaged_log"] == reason and report["ok"] is False
            assert [report["verdicts"][name] for name in DAMAGE_VERDICTS] == [False] * 4
            assert report["descents"]["attempted"] == 0 and report["thm4"]["pairs"] == 0

    def test_whole_log_has_no_damage(self):
        report = _check_report(problem_text(32003, *SUITE["two_gen_demo"]))
        assert report["ok"] and "damaged_log" not in report


def _plant_no_rule(monkeypatch):
    """Make the engine add no rule for the elements it builds, its
    S-polynomials and top-reduction results (``Engine._new_element``)."""
    new_element = engine.Engine._new_element

    def without_rule(self, *args):
        self._add_rule = lambda sig, pos: None
        try:
            return new_element(self, *args)
        finally:
            del self._add_rule

    monkeypatch.setattr(engine.Engine, "_new_element", without_rule)


def _reducible_insertions(events, ring) -> tuple[int, int]:
    """How many ``DoneInserted`` polynomials are not in normal form modulo
    the previous call's ``CallEnd.basis``, and how many there are."""
    polys = trace.build_registry(events, ring).polys
    basis = {ev["call"]: ev["basis"] for ev in events if ev["kind"] == "CallEnd"}
    done = [ev for ev in events if ev["kind"] == "DoneInserted"]
    previous = [[polys[p] for p in basis.get(ev["call"] + 1, [])] for ev in done]
    return sum(normal_form(polys[ev["pos"]], g) != polys[ev["pos"]]
               for ev, g in zip(done, previous)), len(done)


# no-rule plant -> the failing reports, each with its first failure
NO_RULE_FAILURES = {
    "cyclic4": ["rule_degrees: FAIL (0 checked) first_failure="
                "(2, 'not exactly one rule, with its signature')",
                "done_insertion_audit: FAIL (6 checked) first_failure=(5, 4, 'r4 has no rule entry')"],
    "katsura5": ["rule_degrees: FAIL (0 checked) first_failure="
                 "(2, 'not exactly one rule, with its signature')",
                 "done_insertion_audit: FAIL (7 checked) first_failure="
                 "(12, 11, 'r11 has no rule entry')"],
}
# system -> the reducible insertions of ``_reducible_insertions`` with
# φ-reduction skipped
SKIPPED_PHI_REDUCIBLE = {"cyclic4": (1, 16), "katsura5": (55, 57)}


class TestEnginePlants:
    """Test-only engine defects on ``PLANT_SYSTEMS``, with the verdicts of
    ``run_check`` that each one flips."""

    @pytest.mark.parametrize("system", PLANT_SYSTEMS)
    def test_no_rule_fails_the_reports_instead_of_raising(self, system, monkeypatch):
        _plant_no_rule(monkeypatch)
        report = _check_report(problem_text(32003, *PLANT_SYSTEMS[system]))
        failed = {name for name, passed in report["verdicts"].items() if not passed}
        assert failed == {"rule_degrees", "done_insertion_audit", "ideal_equal"}
        assert [line for line in report["checker_lines"] if ": FAIL" in line] == (
            NO_RULE_FAILURES[system]
        )
        assert report["ok"] is False

    def test_reductor_without_rule_is_a_thm4_witness(self, monkeypatch):
        # the skipped top-reduction of test_skipped_top_reduction_fails_thm4,
        # with the rule of its reductor r5 gone from the log: check (c) of
        # the reductor cannot be decided, which fails the pair
        _skip_first_top_reduction(monkeypatch)
        _engine_returning(monkeypatch, lambda events: [
            ev for ev in events if not (ev["kind"] == "RuleAdded" and ev["pos"] == 5)])
        report = _check_report(problem_text(32003, *CYCLIC4))
        assert report["thm4"] == {"pairs": 1, "reductor_ok": 0,
                                  "failures": ["pair (5,8): r5 has no rule entry"]}
        assert report["verdicts"]["thm4_reductors"] is False

    @pytest.mark.parametrize("system", PLANT_SYSTEMS)
    def test_skipped_phi_flips_no_verdict(self, system, monkeypatch):
        # no report checks that an inserted polynomial is in normal form
        # modulo the previous call's basis: every engine log keeps that,
        # and this plant breaks it, unseen
        text = problem_text(32003, *PLANT_SYSTEMS[system])
        ring = parse_problem(text).ring
        logs = []

        def keep(events):
            logs.append(events)
            return events

        _engine_returning(monkeypatch, keep)
        assert _check_report(text)["ok"]
        assert _reducible_insertions(logs[0], ring) == (0, SKIPPED_PHI_REDUCIBLE[system][1])
        monkeypatch.setattr(engine.Engine, "_phi_reduce", lambda self, h, i: None)
        report = _check_report(text)
        assert report["ok"] and all(report["verdicts"].values())
        assert _reducible_insertions(logs[1], ring) == SKIPPED_PHI_REDUCIBLE[system]
        assert sum(ev["kind"] == "PhiPreReduce" for ev in logs[1]) == 0


class TestOvershoot:
    def test_non_regular_deglex_input_checks_ok(self):
        # the paper's claim without regularity: F5 terminates and every
        # verdict holds, though it inserts 12 degrees above the reduced basis
        problem = parse_problem(OVERSHOOT_DEGLEX)
        events = engine.incremental_f5(problem.polynomials).events
        done = [ev for ev in events if ev["kind"] == "DoneInserted"]
        assert len(events) == 6033 and len(done) == 85
        assert max(sum(ev["poly"][0][1]) for ev in done) == 19
        report = _check_report(OVERSHOOT_DEGLEX)
        assert report["ok"] and len(report["verdicts"]) == 12
        assert all(report["verdicts"].values())
        assert max(q.head_mono.deg for q in oracle.buchberger(problem.polynomials)) == 7


# sha256 of the stdout of ``f5gb descend`` on homogenized cyclic-4 over
# GF(32003), snapshot 12, element 11, multiplier x1: 13 rewrites, P1 and P2
CYCLIC4_DESCEND = "25fda3b3ab74bdc67657946902c66c06c64aa749e7f9cb6fe2d3818acc864133"


class TestDescendRewrites:
    def test_step_log_pinned(self, tmp_path, monkeypatch):
        # the vectors are replayed on demand, as a log prefix up to the
        # last operation on a rewritten element: each once, not all of them
        path = tmp_path / "cyclic4.txt"
        path.write_text(problem_text(32003, *CYCLIC4))
        built = []
        apply_ops = sig.apply_ops

        def counting_ops(ring, m, ops, vectors):
            built.extend(op[1] for op in ops if op[0] in ("input", "new"))
            return apply_ops(ring, m, ops, vectors)

        monkeypatch.setattr(sig, "apply_ops", counting_ops)
        code, out = run_main(["descend", str(path), "--snapshot", "12", "--element", "11",
                              "--mult", "x1"])
        assert code == 0
        steps = [json.loads(line) for line in out.splitlines()]
        assert [step["kind"] for step in steps] == ["DescentStep"] * 13 + [
            "DescentDone", "FinalRepresentation"]
        assert {step["violated"] for step in steps[:13]} == {"P1", "P2"}
        assert hashlib.sha256(out.encode()).hexdigest() == CYCLIC4_DESCEND
        assert built and len(built) == len(set(built)) < 24

    def test_term_multiplier_scales_every_coefficient(self, tmp_path):
        # the descent is linear in its coefficient: 2*x1 and 5*x1 make the
        # rewrites of x1 on the same elements, each coefficient multiplied
        # by 2 or 5 mod p
        path = tmp_path / "cyclic4.txt"
        path.write_text(problem_text(32003, *CYCLIC4))
        logs = {}
        for c in (1, 2, 5):
            code, out = run_main(["descend", str(path), "--snapshot", "12", "--element", "11",
                                  "--mult", f"{c}*x1"])
            assert code == 0
            logs[c] = [json.loads(line) for line in out.splitlines()]
            if c == 1:
                assert hashlib.sha256(out.encode()).hexdigest() == CYCLIC4_DESCEND

        def scaled(entry, c):
            if entry["kind"] == "DescentStep":
                coeff, mono, pos = entry["element"]
                return {**entry, "element": [coeff * c % 32003, mono, pos]}
            if entry["kind"] == "FinalRepresentation":
                return {**entry, "elements": [[coeff * c % 32003, mono, pos]
                                              for coeff, mono, pos in entry["elements"]]}
            return entry

        for c in (2, 5):
            assert logs[c] == [scaled(entry, c) for entry in logs[1]]
            assert logs[c] != logs[1]


class TestReadme:
    def test_python_examples_run(self, tmp_path, monkeypatch, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
        assert len(blocks) == 2
        (tmp_path / "demo.txt").write_text(DEMO)
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for block in blocks:
            exec(compile(block, str(readme), "exec"), namespace)
        assert namespace["out"].representation.elements
        assert "['x*y', 'x^2 + y^2', 'y^3']" in capsys.readouterr().out


# sha256 over the ``run_check`` reports of the 18 suite systems, with
# ``elapsed_s`` removed and keys sorted.  Verdicts, descent counts and step
# counts all enter it, so a change meant to keep them must keep the digest.
PINNED_REPORTS = "7799e2711d8c4b3a2dc6a7c77b0369231b4cb910f66806f32d212245cddac462"

# The same digest over 36 small random systems under deglex and lex, over
# GF(3), GF(5) and GF(2^31 - 1) (``random_problem_texts(36, 0)``), where the
# suite has degrevlex only and p in {7, 32003}.
PINNED_RANDOM_REPORTS = "a85a09682f727d59de1863dd44a1bec95f44d1a446fe1717d6e15e510d531373"


def _reports_digest(texts, config) -> str:
    reports = []
    for text in texts:
        report = run_check(parse_problem(text), config, 25, 10**5, 0)
        del report["elapsed_s"]
        reports.append(report)
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


class TestReportPin:
    def test_suite_reports_pinned(self):
        texts = [
            problem_text(p, names, texts)
            for names, texts in SUITE.values()
            for p in SUITE_PRIMES
        ]
        assert _reports_digest(texts, EngineConfig()) == PINNED_REPORTS

    def test_random_reports_pinned(self):
        texts = random_problem_texts(36, 0)
        assert _reports_digest(texts, EngineConfig(max_degree=12)) == PINNED_RANDOM_REPORTS


class TestStageScripts:
    """The scripts that pytest does not collect still run: each stage script
    exits 0 and prints one row of seconds per stage, then the whole pass,
    ``audit_stages.py`` with the GC-tracked objects each stage adds, and
    ``forged_logs.py`` prints its counts and hash, and its ledger rows."""

    @staticmethod
    def _output(script: str, *args: str) -> str:
        done = subprocess.run([sys.executable, str(Path(__file__).parent / script), *args],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    @staticmethod
    def _rows(output: str) -> list[str]:
        return re.findall(r"^  (\S.*?)\s{2,}\d+\.\d{3} s", output, re.M)

    def test_audit_stages(self):
        stages = ["engine", "to_jsonl", "events_from_jsonl", "log walk", "d_progression",
                  "signature_safety", "rule_degrees", "genealogy", "chains",
                  "done_insertion_audit", "thm5_exhaustive", "buchberger", "ideal_equal"]
        output = self._output("audit_stages.py", "1")
        assert self._rows(output) == stages + ["whole pass"]
        # each stage's row ends with the GC-tracked objects it adds and the
        # MiB it retains: the decoded log holds some of both, and no checker
        # keeps more than its report
        added = {stage: (int(objects), float(mib)) for stage, objects, mib in re.findall(
            r"^  (\S.*?)\s{2,}\d+\.\d{3} s .* MiB\s+([+-]\d+) objects"
            r"\s+([+-]\d+\.\d{2}) MiB kept$", output, re.M)}
        assert list(added) == stages
        assert added["events_from_jsonl"][0] > 0 and added["events_from_jsonl"][1] > 1
        assert all(added[stage][0] < 100 and added[stage][1] < 0.1 for stage in stages[4:11])

    def test_check_stages(self):
        import check_stages

        assert self._rows(self._output("check_stages.py", "0", "1")) == [
            stage for stage, _ in check_stages.STAGES] + ["whole pass"]

    def test_forged_logs(self):
        # katsura-3's log with each event dropped: no report raises, and
        # the reports are pinned by their hash
        done = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "forged_logs.py"), "katsura3", "drop"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        line = ("182 logs, 0 raised, 79 ok,"
                " sha256 c52215637d7129a0fcd51d9ccfde90e207ae90ca3fc1a17ff7bbed68b3d5b512")
        assert done.stdout == f"katsura3 drop: {line}\nall: {line}\n"

    def test_forged_ledger(self):
        # katsura-3's ledger rows are the committed ones
        done = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "forged_logs.py"), "--ledger", "katsura3"],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        with open(forged_logs.LEDGER, encoding="utf-8") as fp:
            committed = [row for row in forged_logs.LEDGER_ROW.findall(fp.read())
                         if row[0].startswith("katsura3 ")]
        rows = forged_logs.LEDGER_ROW.findall(done.stdout)
        assert rows and rows == committed
