"""Seeded input generators and the three benchmark workloads.

Every input is produced as problem-file text and parsed with
``f5gb.cli.parse_problem``, so the program sees only the generated text.
One call of a workload's ``run`` executes the program path for one system;
everything a workload needs to check its outputs is returned in an
``Outcome`` and checked by the caller outside the timed region.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import random
import tempfile
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

P_LARGE = 32003
SMALL_PRIMES = (3, 5, 7, 32003, 2**31 - 1)
ORDERS = ("degrevlex", "deglex", "lex")
# The random systems' shapes (sizes, prime, order, degrees, supports) come
# from the fixed SHAPE_SEED and only their coefficients from the run's seed,
# so a pass costs about the same on every seed.
RANDOM_SYSTEMS = 600
SHAPE_SEED = 0
CHECK_MAX_DEGREE = 12
DESCENT_SAMPLES = 25
DESCENT_SEED = 0
DESCENT_CAP = 10**5


# ---------------------------------------------------------------------------
# problem text


def problem_text(p: int, variables, order: str, polys) -> str:
    lines = [f"p = {p}", "vars: " + ", ".join(variables), f"order: {order}"]
    return "\n".join(lines + list(polys)) + "\n"


def _term(c: int, exps, variables) -> str:
    factors = [str(c)] if c != 1 else []
    for name, e in zip(variables, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) or "1"


def _monomials(n: int, d: int):
    """Exponent vectors of total degree d in n variables, lexicographically."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return sorted(out, reverse=True)


def _poly_text(terms, variables) -> str:
    text = ""
    for c, exps in terms:
        piece = _term(abs(c), exps, variables)
        if not text:
            text = piece if c > 0 else "-" + piece
        else:
            text += (" + " if c > 0 else " - ") + piece
    return text


def cyclic_text(n: int, p: int = P_LARGE) -> str:
    """Cyclic-n homogenized by ``h``: x0..x{n-1}, h."""
    xs = [f"x{i}" for i in range(n)]
    polys = []
    for k in range(1, n):
        polys.append(" + ".join(
            "*".join(xs[(i + j) % n] for j in range(k)) for i in range(n)
        ))
    polys.append("*".join(xs) + f" - h^{n}")
    return problem_text(p, xs + ["h"], "degrevlex", polys)


def katsura_text(n: int, p: int = P_LARGE) -> str:
    """Katsura-n homogenized by ``h``: x0..x{n}, h (n + 1 equations)."""
    variables = [f"x{i}" for i in range(n + 1)] + ["h"]
    nv = len(variables)

    def mono(*idx):
        exps = [0] * nv
        for i in idx:
            exps[i] += 1
        return tuple(exps)

    polys = [_poly_text([(1, mono(0))] + [(2, mono(i)) for i in range(1, n + 1)]
                        + [(-1, mono(n + 1))], variables)]
    for m in range(n):
        acc: dict[tuple, int] = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                key = mono(a, b)
                acc[key] = acc.get(key, 0) + 1
        terms = [(c, e) for e, c in sorted(acc.items(), reverse=True)]
        terms.append((-1, mono(m, n + 1)))
        polys.append(_poly_text(terms, variables))
    return problem_text(p, variables, "degrevlex", polys)


def dense_quadrics_text(seed: int, n: int = 6, m: int = 6, p: int = P_LARGE) -> str:
    """m quadrics in n variables with every degree-2 monomial present."""
    rng = random.Random(seed)
    variables = [f"x{i}" for i in range(n)]
    monos = _monomials(n, 2)
    polys = [
        _poly_text([(rng.randrange(1, p), e) for e in monos], variables)
        for _ in range(m)
    ]
    return problem_text(p, variables, "degrevlex", polys)


def random_small_text(shape: random.Random, coeffs: random.Random) -> str:
    """A small random homogeneous system: n 2-3 variables, m 1-5
    polynomials, each of degree 1-3 with a random support, over one of
    ``SMALL_PRIMES`` in one of ``ORDERS``.  ``shape`` draws all of that;
    ``coeffs`` draws only the nonzero coefficients."""
    n = shape.randint(2, 3)
    m = shape.randint(1, 5)
    p = shape.choice(SMALL_PRIMES)
    order = shape.choice(ORDERS)
    variables = [f"x{i}" for i in range(n)]
    polys = []
    for _ in range(m):
        monos = _monomials(n, shape.randint(1, 3))
        support = sorted(shape.sample(monos, shape.randint(1, len(monos))), reverse=True)
        polys.append(_poly_text([(coeffs.randrange(1, p), e) for e in support], variables))
    return problem_text(p, variables, order, polys)


def suite_texts() -> list[tuple[str, str]]:
    """The tier-1 acceptance suite (``tests/systems.py``) as problem text."""
    path = os.path.join(ROOT, "tests", "systems.py")
    spec = importlib.util.spec_from_file_location("_perfbench_systems", path)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    return [
        (f"{name}_gf{p}", problem_text(p, names, "degrevlex", texts))
        for name, (names, texts) in systems.SUITE.items()
        for p in systems.SUITE_PRIMES
    ]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """What one system's run produced; checked outside the timed region."""

    basis: list | None = None  # engine basis as Polynomials
    basis_text: list | None = None  # engine basis as text, when only text is returned
    verdicts: dict = field(default_factory=dict)
    budget_exit: bool = False


class Workload:
    name = ""
    why = ""
    # Seconds one pass takes at the reference speed (``run.CAL_REFERENCE_S``),
    # as recorded in ``baseline.json``.  A run makes a number of passes that
    # follows from ``--seconds`` and this figure alone, so a seed always
    # attempts, and fails, the same systems.
    pass_s = 1.0

    def fixed(self) -> list[tuple[str, str]]:
        """(system name, problem text) pairs that no seed changes."""
        return []

    def seeded(self, seed: int) -> list[tuple[str, str]]:
        """(system name, problem text) pairs drawn from ``seed``."""
        return []

    def inputs(self, seed: int) -> list[tuple[str, str]]:
        """Every system of one pass; the same seed gives the same text."""
        return self.fixed() + self.seeded(seed)

    def run(self, problem):
        raise NotImplementedError


class SolveLarge(Workload):
    name = "solve-large"
    why = ("gb path on cyclic-5, katsura-5 and a seeded dense 6x6 quadric system: "
           "engine, poly and sig do the work, no checkers or oracle")
    pass_s = 6.0

    def fixed(self):
        return [("cyclic5_homog", cyclic_text(5)), ("katsura5_homog", katsura_text(5))]

    def seeded(self, seed):
        return [("dense6x6", dense_quadrics_text(seed))]

    def run(self, problem):
        from f5gb import engine

        result = engine.incremental_f5(problem.polynomials, engine.EngineConfig())
        return Outcome(basis=result.basis_polynomials())


class AuditCyclic5(Workload):
    name = "audit-cyclic5"
    why = ("trace path on cyclic-5, JSONL round trip, all checkers, then the "
           "Buchberger reference: thm5_exhaustive dominates")
    pass_s = 33.0

    def fixed(self):
        return [("cyclic5_homog", cyclic_text(5))]

    def run(self, problem):
        from f5gb import engine, oracle, trace

        result = engine.incremental_f5(problem.polynomials, engine.EngineConfig())
        with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            log = trace.Trace()
            log.events = result.events
            with open(path, "w", encoding="utf-8") as fp:
                log.to_jsonl(fp)
            with open(path, "r", encoding="utf-8") as fp:
                events = trace.events_from_jsonl(fp)
        reports = trace.run_all_checkers(events, problem.ring)
        f5_basis = result.basis_polynomials()
        reference = oracle.buchberger(problem.polynomials)
        verdicts = {rep.name: rep.passed for rep in reports}
        verdicts["ideal_equal"] = oracle.ideal_equal(f5_basis, reference)
        return Outcome(basis=f5_basis, verdicts=verdicts)


class CheckSmall(Workload):
    name = "check-small"
    why = ("full check pipeline on the 18 suite systems and 600 small random "
           "systems over all orders and small primes: descent dominates")
    pass_s = 6.2

    def fixed(self):
        return suite_texts()

    def seeded(self, seed):
        shape, coeffs = random.Random(SHAPE_SEED), random.Random(seed)
        return [
            (f"random{k:03d}", random_small_text(shape, coeffs))
            for k in range(RANDOM_SYSTEMS)
        ]

    def run(self, problem):
        from f5gb import cli, engine

        try:
            report = cli.run_check(
                problem, engine.EngineConfig(max_degree=CHECK_MAX_DEGREE),
                DESCENT_SAMPLES, DESCENT_CAP, DESCENT_SEED,
            )
        except engine.BudgetExceeded:
            return Outcome(budget_exit=True)
        return Outcome(basis_text=report["basis"], verdicts=report["verdicts"])


WORKLOADS = {w.name: w for w in (SolveLarge(), AuditCyclic5(), CheckSmall())}
