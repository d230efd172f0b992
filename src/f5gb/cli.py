"""Batch front end: parse polynomial-system files, run the engine, the
reference algorithm and the checkers, and emit bases, reports and traces.

Problem file grammar::

    p = 7
    vars: x, y
    order: degrevlex      # optional, also deglex | lex
    x^2 + y^2             # one polynomial per line
    x*y                   # '#' starts a comment

Terms are ``c*v1^e1*...*vk^ek`` joined with ``+``/``-``; the coefficient and
``^1`` exponents may be omitted.  One sign may lead the first term; two
operators in a row, or an operator with no term after it, is an error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from .engine import (
    BudgetExceeded,
    Engine,
    EngineConfig,
    NonHomogeneousInput,
    ZeroInputPolynomial,
    incremental_f5,
)
from .oracle import (
    DescentError,
    buchberger,
    descend,
    done_snapshots,
    find_thm4_pairs_in_snapshot,
    find_unrejected_reductor,
    harvest_descent_seeds,
    ideal_equal,
)
from .poly import (
    ORDER_KINDS,
    Monomial,
    MonomialOrder,
    Polynomial,
    Ring,
    is_homogeneous,
    is_prime,
    sorted_by_head,
)
from .trace import BrokenLink, all_admissible, build_registry, run_all_checkers

# how ``run_check`` and ``f5gb descend`` name the log's first damage
_DAMAGED_LOG = "damaged log: seq %d: %s"


class ParseError(Exception):
    """An input error at a line of the problem file, or, when ``option``
    names one, in the value of a command-line option (``line`` is then 0)."""

    def __init__(self, message: str, line: int, option: str | None = None):
        super().__init__(f"{option or f'line {line}'}: {message}")
        self.message = message
        self.line = line


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, like every other input error, where
    argparse exits 2, the code of a check failure.  Its subcommand parsers
    are of this class too."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


class NonPrimeModulus(Exception):
    pass


@dataclass
class ProblemFile:
    p: int
    variables: list[str]
    order: str
    polynomials: list[Polynomial]
    ring: Ring


def _parse_poly(ring: Ring, text: str, lineno: int) -> Polynomial:
    chunks = []
    sign = 1
    buf = ""
    op = ""  # the last operator read
    for ch in text:
        if ch in "+-":
            if buf.strip():
                chunks.append((sign, buf))
            elif op:
                raise ParseError(f"operator {ch!r} follows another operator", lineno)
            sign = 1 if ch == "+" else -1
            buf, op = "", ch
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign, buf))
    elif op:
        raise ParseError(f"operator {op!r} has no term after it", lineno)
    if not chunks:
        raise ParseError("empty polynomial", lineno)
    terms = []
    var_index = {v: i for i, v in enumerate(ring.names)}
    for sgn, chunk in chunks:
        coeff = 1
        exps = [0] * ring.n
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError("empty factor", lineno)
            if factor.isdigit():
                coeff = coeff * int(factor)
                continue
            if "^" in factor:
                base, _, expo = factor.partition("^")
                base = base.strip()
                expo = expo.strip()
                if not expo.isdigit():
                    raise ParseError(f"bad exponent {expo!r}", lineno)
                e = int(expo)
            else:
                base, e = factor, 1
            if base not in var_index:
                raise ParseError(f"unknown variable {base!r}", lineno)
            exps[var_index[base]] += e
        try:
            mono = Monomial(exps)
        except OverflowError as exc:
            raise ParseError(f"bad exponent: {exc}", lineno) from None
        terms.append((sgn * coeff, mono))
    return ring.poly(terms)


def parse_problem(
    text: str, allow_affine: bool = False, order_override: str | None = None
) -> ProblemFile:
    p = None
    variables: list[str] = []
    order_name = "degrevlex"
    p_line = vars_line = order_line = 0
    poly_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("p") and "=" in line:
            lhs, _, rhs = line.partition("=")
            if lhs.strip() != "p":
                raise ParseError("expected 'p = <prime>'", lineno)
            if p_line:
                raise ParseError(f"a second 'p =' line (the first is line {p_line})", lineno)
            try:
                p = int(rhs.strip())
            except ValueError:
                raise ParseError(f"bad modulus {rhs.strip()!r}", lineno)
            p_line = lineno
            continue
        if line.startswith("vars:"):
            if vars_line:
                raise ParseError(f"a second 'vars:' line (the first is line {vars_line})",
                                 lineno)
            variables = [v.strip() for v in line[len("vars:"):].split(",") if v.strip()]
            # the term parser reads a digit factor as a coefficient and splits on
            # operators, so a basis over a name like '2' or 'x y' would not read back
            bad = [v for v in variables if not v.isidentifier()]
            if bad:
                raise ParseError(f"variable name {bad[0]!r} is not an identifier", lineno)
            twice = [v for k, v in enumerate(variables) if v in variables[:k]]
            if twice:
                raise ParseError(f"variable {twice[0]!r} listed twice", lineno)
            vars_line = lineno
            continue
        if line.startswith("order:"):
            if order_line:
                raise ParseError(f"a second 'order:' line (the first is line {order_line})",
                                 lineno)
            order_name = line[len("order:"):].strip()
            order_line = lineno
            continue
        poly_lines.append((lineno, line))
    if p is None:
        raise ParseError("missing 'p = <prime>' line", 1)
    if p >= 2**31:
        raise ParseError(f"modulus {p} is not below 2^31", p_line)
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if not variables:
        raise ParseError("missing 'vars:' line", 1)
    if order_override:
        order_name, order_line = order_override, 0
    if order_name not in ORDER_KINDS:
        raise ParseError(f"unknown order {order_name!r}", order_line,
                         "--order" if order_override else None)
    ring = Ring(p, MonomialOrder(order_name, len(variables)), variables)
    polys = []
    for lineno, line in poly_lines:
        q = _parse_poly(ring, line, lineno)
        if not allow_affine and not is_homogeneous(q):
            raise NonHomogeneousInput(f"line {lineno}: polynomial is not homogeneous")
        polys.append(q)
    if not polys:
        raise ParseError("no polynomials given", 1)
    return ProblemFile(p, variables, order_name, polys, ring)


# ---------------------------------------------------------------------------
# commands


def _config_from_args(args) -> EngineConfig:
    return EngineConfig(max_pairs=args.max_pairs, max_degree=args.max_degree)


def _print_basis(result_polys):
    for q in result_polys:
        print(q.text())


def cmd_gb(args) -> int:
    problem = parse_problem(_read(args.file), order_override=args.order)
    result = incremental_f5(problem.polynomials, _config_from_args(args))
    _print_basis(result.basis_polynomials())
    return 0


def cmd_oracle(args) -> int:
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    _print_basis(buchberger(problem.polynomials))
    return 0


def cmd_trace(args) -> int:
    problem = parse_problem(_read(args.file), order_override=args.order)
    engine = Engine(problem.ring, problem.polynomials, _config_from_args(args))
    # opened before the run, so a bad path fails before any engine work
    with open(args.trace_out, "w", encoding="utf-8") as fp:
        try:
            result = engine.run()
        finally:
            engine.trace.to_jsonl(fp)  # the log so far, on an error too
    _print_basis(result.basis_polynomials())
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def run_check(problem: ProblemFile, config: EngineConfig, descent_samples: int,
              descent_cap: int, seed: int) -> dict:
    """Engine + reference + checkers + sampled descents; machine-form report.

    Once the engine returns, all of it reads the event log: its one walk
    (``build_registry``) gives the reports, the checked basis (call 1's
    ``CallEnd``), the module vectors and the descent snapshots.  A damaged
    log (``Registry.damage``) gets its reports, while ``ideal_equal``,
    ``admissible``, ``descents`` and ``thm4_reductors`` fail with the
    damage as their reason, kept as ``damaged_log``."""
    t0 = time.perf_counter()
    result = incremental_f5(problem.polynomials, config)
    events, ring = result.events, problem.ring
    registry = build_registry(events, ring)
    damage = registry.damage and _DAMAGED_LOG % registry.damage
    polys = registry.polys
    f5_basis = sorted_by_head((polys[p] for p in ([] if damage else registry.basis)), ring.order)
    oracle_basis = buchberger(problem.polynomials)
    reports = run_all_checkers(events, ring, registry)
    verdicts = {rep.name: rep.passed for rep in reports}
    verdicts["ideal_equal"] = damage is None and ideal_equal(f5_basis, oracle_basis)
    verdicts["admissible"] = damage is None and all_admissible(registry)
    snapshots = [] if damage else done_snapshots(registry)

    descents = {"attempted": 0, "completed": 0, "max_steps": 0,
                "failures": [damage] if damage else []}
    thm4 = {"pairs": 0, "reductor_ok": 0, "failures": [damage] if damage else []}
    rng = random.Random(seed)
    seeds = harvest_descent_seeds(snapshots, descent_samples, rng)
    for snap, coeff, mono, h_pos in seeds:
        descents["attempted"] += 1
        try:
            res = descend(coeff, mono, h_pos, snap, descent_cap)
            descents["completed"] += 1
            descents["max_steps"] = max(descents["max_steps"], res.step_count)
        except DescentError as exc:
            descents["failures"].append(str(exc))
    # A thm4 pair yields, by descent, a reductor of f that every criterion
    # permits, so f's insertion would have reduced by it: on a correct run
    # the scan finds none.  Each pair fails the verdict, and its reductor is
    # the witness.  Members only grow from one snapshot to the next, so
    # scanning the pairs with a member new since the previous snapshot
    # reports each pair once.
    old: set[int] = set()
    for snap in snapshots:
        pairs = find_thm4_pairs_in_snapshot(snap, old)
        old = snap.member_set
        for fprime, f in pairs:
            thm4["pairs"] += 1
            try:
                mono, pos, _ = find_unrejected_reductor(f, fprime, snap, descent_cap)
                # f's head is the reductor's, so (a) holds
                verdict = snap.failed_check(pos, snap.heads[f], snap.entries[f].sig)
                if verdict is None:
                    thm4["reductor_ok"] += 1
                    witness = f"reductor {mono.text(ring.names)}*r{pos} passes (a)-(d)"
                else:
                    witness = f"check ({verdict}) failed"
            except (DescentError, BrokenLink) as exc:
                witness = str(exc)
            thm4["failures"].append(f"pair ({fprime},{f}): {witness}")
    verdicts["descents"] = not descents["failures"]
    verdicts["thm4_reductors"] = not thm4["failures"]

    report = {
        "basis_size": len(f5_basis),
        "head_monomials": [q.head_mono.text(ring.names) for q in f5_basis],
        "counters": result.counters,
        "verdicts": verdicts,
        "checker_lines": [rep.line() for rep in reports],
        "descents": descents,
        "thm4": thm4,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "basis": [q.text() for q in f5_basis],
        "oracle_basis": [q.text() for q in oracle_basis],
    }
    if damage:
        report["damaged_log"] = damage
    report["ok"] = all(verdicts.values())
    return report


def cmd_check(args) -> int:
    problem = parse_problem(_read(args.file), order_override=args.order)
    report = run_check(
        problem, _config_from_args(args), args.descent_samples, args.descent_cap, args.seed
    )
    if args.json_report:
        print(json.dumps(report, indent=2))
    else:
        print(f"basis size: {report['basis_size']}")
        print("head monomials: " + ", ".join(report["head_monomials"]))
        print(f"ideal_equal: {str(report['verdicts']['ideal_equal']).lower()}")
        for line in report["checker_lines"]:
            print(line)
        d = report["descents"]
        print(f"descents: {d['completed']}/{d['attempted']} completed"
              f" (max steps {d['max_steps']})")
        t = report["thm4"]
        print(f"thm4 pairs: {t['pairs']} found, {t['reductor_ok']} reductors pass (a)-(d)")
        for line in t["failures"]:
            print(f"  {line}")
        if "damaged_log" in report:
            print(report["damaged_log"])
        print(f"elapsed: {report['elapsed_s']}s")
        print("result: " + ("ok" if report["ok"] else "CHECK FAILURES"))
    return 0 if report["ok"] else 2


def cmd_descend(args) -> int:
    problem = parse_problem(_read(args.file), order_override=args.order)
    coeff, mono = 1, Monomial([0] * problem.ring.n)
    if args.mult is not None:
        try:
            mult = _parse_poly(problem.ring, args.mult, 0)
        except ParseError as exc:
            raise ParseError(exc.message, 0, "--mult") from None
        if len(mult.terms) != 1:
            raise ParseError(f"{args.mult!r} is not exactly one nonzero term", 0, "--mult")
        [(coeff, mono)] = mult.terms
    events = incremental_f5(problem.polynomials, _config_from_args(args)).events
    registry = build_registry(events, problem.ring)
    if registry.damage:
        print(_DAMAGED_LOG % registry.damage)
        return 2
    snapshots = done_snapshots(registry)
    if not snapshots:
        print("no snapshots captured (no Done insertions in this run)")
        return 2
    if not 0 <= args.snapshot < len(snapshots):
        print(f"snapshot index out of range (have {len(snapshots)})")
        return 2
    snap = snapshots[args.snapshot]
    h_pos = args.element if args.element is not None else snap.members[0]
    if h_pos not in snap.member_set:
        print(f"element {h_pos} is not a member of snapshot {args.snapshot}"
              f" (members {list(snap.members)})")
        return 2
    try:
        res = descend(coeff, mono, h_pos, snap, args.descent_cap)
    except DescentError as exc:
        print(f"descent failed: {exc}")
        return 2
    for entry in res.steps:
        print(json.dumps(entry, separators=(",", ":")))
    final = [[e.coeff, list(e.mono.exps), e.pos] for e in res.representation.elements]
    print(json.dumps({"kind": "FinalRepresentation", "elements": final}, separators=(",", ":")))
    return 0


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="f5gb",
        description="Signature-based Groebner engine with invariant checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    problem_args = _ArgumentParser(add_help=False)
    problem_args.add_argument("file", help="problem file")
    problem_args.add_argument("--order", default=None, help="override the file's order")
    # the engine's budgets; the reference algorithm has none
    engine_args = _ArgumentParser(add_help=False, parents=[problem_args])
    engine_args.add_argument("--max-pairs", type=int, default=EngineConfig.max_pairs)
    engine_args.add_argument("--max-degree", type=int, default=EngineConfig.max_degree)

    sub.add_parser("gb", parents=[engine_args], help="run the signature engine")
    p_oracle = sub.add_parser("oracle", parents=[problem_args], help="run the reference algorithm")
    p_oracle.add_argument("--allow-affine", action="store_true",
                          help="accept non-homogeneous input")
    p_trace = sub.add_parser("trace", parents=[engine_args],
                             help="run the engine and write a JSON Lines trace")
    p_trace.add_argument("--trace-out", required=True)
    p_check = sub.add_parser("check", parents=[engine_args],
                             help="engine + reference + all checkers + descents")
    p_check.add_argument("--descent-samples", type=int, default=25)
    p_check.add_argument("--descent-cap", type=int, default=10**5)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json-report", action="store_true")
    p_desc = sub.add_parser("descend", parents=[engine_args],
                            help="run one descent on a chosen snapshot")
    p_desc.add_argument("--snapshot", type=int, default=0, help="snapshot ordinal")
    p_desc.add_argument("--element", type=int, default=None, help="basis position to descend")
    p_desc.add_argument("--mult", default=None, help="term multiplier, e.g. 'x*y' or '2*x*y'")
    p_desc.add_argument("--descent-cap", type=int, default=10**5)

    args = parser.parse_args(argv)
    # the least value of each numeric option that has one, checked before
    # any file is read
    for option, least in (("descent_samples", 0), ("descent_cap", 1), ("max_pairs", 0),
                          ("max_degree", 0)):
        value = getattr(args, option, least)
        if value < least:
            sys.stderr.write(f"error: --{option.replace('_', '-')} must be at least {least},"
                             f" got {value}\n")
            return 1
    try:
        handler = {
            "gb": cmd_gb,
            "oracle": cmd_oracle,
            "trace": cmd_trace,
            "check": cmd_check,
            "descend": cmd_descend,
        }[args.command]
        return handler(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}")
        for key, val in sorted(exc.counters.items()):
            print(f"  {key}: {val}")
        return 3
    except (ParseError, NonPrimeModulus, NonHomogeneousInput, ZeroInputPolynomial,
            OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
