"""Acceptance gate: every run-level criterion at its stated tolerance.

Each test prints one pass/fail line; the suite fixture runs the engine, the
reference algorithm and all checkers once over the full system collection
(both primes) and the criteria assert on the gathered evidence.
"""

import random
import time

import pytest

from f5gb.engine import EngineConfig, incremental_f5
from f5gb.oracle import (
    GT,
    LT,
    Representation,
    ReprElement,
    buchberger,
    descend,
    done_snapshots,
    find_thm4_pairs_in_snapshot,
    harvest_descent_seeds,
    ideal_equal,
    repr_sum_check,
)
from f5gb.poly import Monomial
from f5gb.sig import LabeledPolynomial, Signature, check_admissible, sig_mul
from f5gb.trace import (
    build_registry,
    check_d_progression,
    check_signature_safety,
    check_thm5_exhaustive,
    extract_chain,
)

from descent_reference import descent_violation, elem_cmp, repr_cmp
from systems import (P, make_ring, replayed_inputs, snapshot, standard_monomial_count,
                     suite_instances)

DESCENT_CAP = 10**5


def M(*exps):
    return Monomial(exps)


@pytest.fixture(scope="session")
def suite():
    runs = []
    t0 = time.time()
    for name, ring, polys in suite_instances():
        result = incremental_f5(polys, EngineConfig())
        oracle_basis = buchberger(polys)
        runs.append(
            {
                "name": name,
                "ring": ring,
                "polys": polys,
                "result": result,
                "registry": build_registry(result.events, ring),
                "inputs": replayed_inputs(result),
                "oracle": oracle_basis,
            }
        )
    elapsed = time.time() - t0
    return {"runs": runs, "elapsed": elapsed}


def _report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence(suite):
    assert len({r["name"].rsplit("_", 1)[0] for r in suite["runs"]}) >= 8
    bad = []
    for run in suite["runs"]:
        if not ideal_equal(run["result"].basis_polynomials(), run["oracle"]):
            bad.append(run["name"])
    ok = not bad and suite["elapsed"] < 60.0
    _report(
        1,
        ok,
        f"{len(suite['runs'])} runs equal to the reference in {suite['elapsed']:.1f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_2_degree_progression(suite):
    failures = []
    checked = 0
    for run in suite["runs"]:
        rep = check_d_progression(run["registry"])
        checked += rep.checked
        if not rep.passed:
            failures.append((run["name"], rep.failures[:2]))
    _report(2, not failures, f"{checked} degree comparisons" + str(failures or ""))


def test_criterion_3_signature_safety(suite):
    failures = []
    checked = 0
    for run in suite["runs"]:
        rep = check_signature_safety(run["registry"])
        checked += rep.checked
        if not rep.passed:
            failures.append((run["name"], rep.failures[:2]))
    _report(3, not failures, f"{checked} reduction events verified")


def test_criterion_4_chain_properties(suite):
    failures = []
    checked = 0
    for run in suite["runs"]:
        registry = run["registry"]
        for pos, entry in registry.entries.items():
            if entry.is_input:
                continue
            checked += 1
            rep = extract_chain(pos, registry)
            if not rep.passed:
                failures.append((run["name"], pos))
    _report(4, not failures, f"{checked} chains back-walked")


def test_criterion_5_admissibility(suite):
    failures = []
    checked = 0
    for run in suite["runs"]:
        for lp in run["result"].R:
            checked += 1
            mv = run["registry"].vectors[lp.pos]
            if not check_admissible(mv, lp.sig, lp.poly, run["inputs"]):
                failures.append((run["name"], lp.pos))
    _report(5, not failures, f"{checked} labeled polynomials, 100% admissible")


def test_criterion_6_thm5_exhaustiveness(suite):
    failures = []
    checked = 0
    for run in suite["runs"]:
        assert run["result"].counters["pairs_created"] < 5000
        rep = check_thm5_exhaustive(run["registry"])
        checked += rep.checked
        if not rep.passed:
            failures.append((run["name"], rep.failures[:2]))
    assert checked == 379
    _report(6, not failures, f"{checked} in-scope pairs classified")


def test_criterion_7_descents(suite):
    rng = random.Random(0)
    instances = 0
    max_steps = 0
    failures = []
    thm4_pairs = 0
    for run in suite["runs"]:
        result = run["result"]
        snapshots = done_snapshots(run["registry"])
        seeds = harvest_descent_seeds(snapshots, 0, rng)  # every seed, no sampling
        for snap, coeff, mono, pos in seeds:
            instances += 1
            try:
                # strict per-step descent and value preservation are asserted
                # inside descend; a violation raises
                out = descend(coeff, mono, pos, snap, DESCENT_CAP)
            except Exception as exc:
                failures.append((run["name"], pos, str(exc)))
                continue
            max_steps = max(max_steps, out.step_count)
            target = snap.run.polys[pos].term_mul(coeff, mono)
            if not repr_sum_check(out.representation, target, snap):
                failures.append((run["name"], pos, "sum mismatch"))
            if (
                descent_violation(
                    out.representation,
                    sig_mul(mono, snap.entries[pos].sig),
                    mono.mul(snap.run.polys[pos].head_mono),
                    snap,
                )
                is not None
            ):
                failures.append((run["name"], pos, "final representation violates"))
        # a thm4 pair descends to a reductor of its later element that every
        # criterion permits, which its insertion would have used: on a
        # correct run there is none, in any snapshot
        for snap in snapshots:
            for pair in find_thm4_pairs_in_snapshot(snap):
                thm4_pairs += 1
                failures.append((run["name"], pair, "thm4 pair"))
    ok = instances >= 100 and max_steps <= DESCENT_CAP and not failures
    _report(
        7,
        ok,
        f"{instances} descents (max {max_steps} steps), {thm4_pairs} thm4 pairs",
    )


def test_criterion_8_comparator_worked_examples():
    # three basis elements over x > y with signatures F1, F2, x*F1
    ring = make_ring(32003, ["x", "y"])
    entries = {
        0: LabeledPolynomial(0, Signature(M(0, 0), 1), P(ring, "x")),
        1: LabeledPolynomial(1, Signature(M(0, 0), 2), P(ring, "x")),
        2: LabeledPolynomial(2, Signature(M(1, 0), 1), P(ring, "x")),
    }
    snap = snapshot(ring, entries, (0, 1, 2), 2, {}, 0, {1: 0, 2: 1}, {})
    E = ReprElement
    outcomes = [
        elem_cmp(E(1, M(0, 1), 0), E(100, M(0, 1), 1), snap) == GT,
        elem_cmp(E(1, M(1, 0), 0), E(1, M(0, 1), 0), snap) == GT,
        elem_cmp(E(32002, M(1, 0), 0), E(2, M(1, 0), 0), snap) is None,
        elem_cmp(E(1, M(0, 2), 0), E(1, M(0, 1), 2), snap) == LT,
        elem_cmp(E(1, M(2, 0), 0), E(1, M(1, 0), 2), snap) == GT,
        repr_cmp(
            Representation([E(1, M(2, 0), 0), E(1, M(1, 1), 0), E(1, M(0, 2), 0)]),
            Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)]),
            snap,
        )
        == GT,
        repr_cmp(
            Representation([E(1, M(2, 0), 0), E(100, M(0, 2), 0)]),
            Representation([E(1, M(2, 0), 0)]),
            snap,
        )
        == GT,
        repr_cmp(
            Representation([E(1, M(2, 0), 0)]),
            Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)]),
            snap,
        )
        == GT,
        repr_cmp(
            Representation([E(1, M(1, 1), 0), E(1, M(0, 2), 0), E(1, M(2, 0), 1)]),
            Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)]),
            snap,
        )
        == GT,
        repr_cmp(
            Representation([E(1, M(0, 1), 2), E(1, M(0, 2), 0), E(1, M(2, 0), 1)]),
            Representation([E(2, M(0, 1), 2), E(1, M(0, 2), 1)]),
            snap,
        )
        is None,
    ]
    _report(8, all(outcomes), f"{sum(outcomes)}/{len(outcomes)} documented outcomes")


def _complete_intersection_series(degrees, n, upto):
    # coefficients of prod (1 - t^d) / (1 - t)^n
    num = [1]
    for d in degrees:
        nxt = [0] * (len(num) + d)
        for i, c in enumerate(num):
            nxt[i] += c
            nxt[i + d] -= c
        num = nxt
    out = []
    for k in range(upto + 1):
        total = 0
        for i, c in enumerate(num[: k + 1]):
            r = k - i
            binom = 1
            for j in range(n - 1):
                binom = binom * (r + n - 1 - j) // (j + 1)
            total += c * binom
        out.append(total)
    return out


def test_criterion_9_regularity_smoke(suite):
    run = next(r for r in suite["runs"] if r["name"] == "quadric_pair_gf32003")
    heads = [q.head_mono for q in run["oracle"]]
    expected = _complete_intersection_series([2, 2], 3, 6)
    actual = [standard_monomial_count(heads, 3, d) for d in range(7)]
    hilbert_ok = actual == expected
    zeros = run["result"].counters["reductions_to_zero"]
    _report(
        9,
        hilbert_ok and zeros == 0,
        f"hilbert {actual} vs {expected}, {zeros} reductions to zero",
    )
