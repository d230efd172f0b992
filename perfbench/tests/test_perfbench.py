"""Self-tests of the benchmark's generators, checks and tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import time

import pytest

import run
import workloads
from f5gb import engine
from f5gb.cli import parse_problem
from f5gb.poly import MonomialOrder, Ring
from spans import Tracer

TESTS = os.path.join(workloads.ROOT, "tests")
sys.path.insert(0, TESTS)
import systems  # noqa: E402  (the tier-1 suite, for comparison)


def suite_polys(name, p):
    names, texts = systems.SUITE[name]
    return systems.polys(Ring(p, MonomialOrder("degrevlex", len(names)), names), *texts)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS.values()),
                         ids=lambda w: w.name)
def test_same_seed_same_text(workload):
    assert workload.inputs(7) == workload.inputs(7)
    for _, text in workload.inputs(7):
        parse_problem(text)


def test_seed_changes_only_seeded_systems():
    for workload in workloads.WORKLOADS.values():
        assert workload.fixed() == [s for s in workload.inputs(3) if s in workload.fixed()]
        if workload.seeded(0):
            assert workload.seeded(0) != workload.seeded(1)


def test_cyclic3_matches_suite():
    got = parse_problem(workloads.cyclic_text(3)).polynomials
    assert [q.terms for q in got] == [q.terms for q in suite_polys("cyclic3_homog", 32003)]


def test_katsura3_matches_suite():
    got = parse_problem(workloads.katsura_text(3)).polynomials
    assert [q.terms for q in got] == [q.terms for q in suite_polys("katsura3_homog", 32003)]


def test_cyclic5_and_katsura5_shapes():
    cyc = parse_problem(workloads.cyclic_text(5))
    kat = parse_problem(workloads.katsura_text(5))
    assert (len(cyc.variables), len(cyc.polynomials)) == (6, 5)
    assert (len(kat.variables), len(kat.polynomials)) == (7, 6)


def test_dense_quadrics_are_dense():
    problem = parse_problem(workloads.dense_quadrics_text(5))
    assert len(problem.polynomials) == 6
    assert all(len(q.terms) == 21 and q.degree == 2 for q in problem.polynomials)


def test_random_systems_cover_the_stated_ranges():
    seen = set()
    for _, text in workloads.CheckSmall().seeded(0):
        problem = parse_problem(text)
        assert 2 <= len(problem.variables) <= 3
        assert 1 <= len(problem.polynomials) <= 5
        assert all(1 <= q.degree <= 3 for q in problem.polynomials)
        seen.add((problem.p, problem.order))
    assert seen == {(p, o) for p in workloads.SMALL_PRIMES for o in workloads.ORDERS}


def test_golden_matches_current_fixed_inputs():
    with open(run.GOLDEN, encoding="utf-8") as fp:
        golden = json.load(fp)
    fixed = {name: text for w in workloads.WORKLOADS.values() for name, text in w.fixed()}
    assert set(golden) == set(fixed)
    for name, text in fixed.items():
        assert golden[name]["text_sha256"] == run.sha256(text)


def _check_small_system(name):
    (text,) = [t for n, t in workloads.CheckSmall().fixed() if n == name]
    return text, parse_problem(text)


def test_correct_output_passes_the_digest_check():
    text, problem = _check_small_system("cyclic3_homog_gf7")
    tally = run.Tally()
    outcome = workloads.CheckSmall().run(problem)
    tally.record("cyclic3_homog_gf7", text, problem, outcome, None, run.References())
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)


def test_wrong_digest_counts_as_failure():
    text, problem = _check_small_system("cyclic3_homog_gf7")
    refs = run.References()
    refs.golden = {}
    refs.cache[run.sha256(text)] = "0" * 64
    tally = run.Tally()
    outcome = workloads.CheckSmall().run(problem)
    tally.record("cyclic3_homog_gf7", text, problem, outcome, None, refs)
    assert (tally.failed, tally.causes["digest_mismatch"], tally.correct) == (1, 1, False)


def test_failures_are_counted_by_cause():
    text, problem = _check_small_system("two_gen_demo_gf7")
    tally = run.Tally()
    refs = run.References()
    tally.record("x", text, problem, workloads.Outcome(budget_exit=True), None, refs)
    tally.record("x", text, problem, None, RuntimeError("boom"), refs)
    bad = workloads.CheckSmall().run(problem)
    bad.verdicts["thm5_exhaustive"] = False
    tally.record("two_gen_demo_gf7", text, problem, bad, None, refs)
    assert tally.failed == 3
    assert tally.causes["budget_exit"] == tally.causes["exception"] == 1
    assert tally.causes["verdict.thm5_exhaustive"] == 1
    assert not tally.correct


def test_pass_count_follows_seconds_only():
    for workload in workloads.WORKLOADS.values():
        assert run.pass_count(workload, 0.001) == 1
        assert run.pass_count(workload, 3 * workload.pass_s) == 3
        assert run.pass_count(workload, 3 * workload.pass_s + 0.01) == 4


def test_failures_repeat_from_pass_to_pass():
    check = workloads.CheckSmall()
    systems = [(n, t, parse_problem(t)) for n, t in check.seeded(0)[:120]]
    refs = run.References()
    first, second = run.Tally(), run.Tally()
    run.run_pass(check, systems, refs, first)
    run.run_pass(check, systems, refs, second)
    assert first.failed > 0
    assert (first.failed, first.causes) == (second.failed, second.causes)


def test_tracer_counts_match_engine_and_restore_originals():
    problem = parse_problem(workloads.cyclic_text(3))
    original = engine.incremental_f5
    tracer = Tracer()
    with tracer.installed():
        result = engine.incremental_f5(problem.polynomials)
    assert engine.incremental_f5 is original
    metrics = tracer.metrics()
    for key, value in result.counters.items():
        assert metrics[f"engine.{key}"] == value
    assert metrics["engine.incremental_f5.calls"] == 1
    assert metrics["poly.poly_axpy.calls"] > 0
    assert metrics["oracle.descend.calls"] == 0
    spans = [metrics[f"{n}.s"] for n in ("poly.poly_axpy", "sig.ModuleVector.axpy")]
    assert sum(spans) <= metrics["engine.incremental_f5.s"]
    assert metrics["engine.incremental_f5.self_s"] <= metrics["engine.incremental_f5.s"]


def test_speed_sampler_samples_and_accounts_its_time():
    sampler = run.SpeedSampler()
    with sampler.active():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.2:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.stolen < 0.5
    when = sampler.samples[0][0]
    assert sampler.speed(when, when) > 0 and sampler.speed() > 0
