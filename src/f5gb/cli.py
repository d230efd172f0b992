"""Batch front end: parse polynomial-system files, run the engine, the
reference algorithm and the checkers, and emit bases, reports and traces.

Problem file grammar::

    p = 7
    vars: x, y
    order: degrevlex      # optional, also deglex | lex
    x^2 + y^2             # one polynomial per line
    x*y                   # '#' starts a comment

Terms are ``c*v1^e1*...*vk^ek`` joined with ``+``/``-``; the coefficient and
``^1`` exponents may be omitted.
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
    EngineConfig,
    EngineResult,
    NonHomogeneousInput,
    ZeroInputPolynomial,
    incremental_f5,
)
from .oracle import (
    DescentError,
    GgSnapshot,
    buchberger,
    descend,
    find_thm4_pairs_in_snapshot,
    find_unrejected_reductor,
    harvest_descent_seeds,
    ideal_equal,
    reductor_passes_engine_checks,
)
from .poly import Monomial, MonomialOrder, Polynomial, Ring, is_homogeneous, is_prime
from .sig import check_admissible
from .trace import Trace, run_all_checkers


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


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
    text = text.strip()
    chunks = []
    sign = 1
    buf = ""
    for ch in text:
        if ch in "+-":
            if buf.strip():
                chunks.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign, buf))
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
        terms.append((sgn * coeff, Monomial(exps)))
    return ring.poly(terms)


def parse_problem(
    text: str, allow_affine: bool = False, order_override: str | None = None
) -> ProblemFile:
    p = None
    variables: list[str] = []
    order_name = "degrevlex"
    poly_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("p") and "=" in line and p is None and not variables:
            lhs, _, rhs = line.partition("=")
            if lhs.strip() != "p":
                raise ParseError("expected 'p = <prime>'", lineno)
            try:
                p = int(rhs.strip())
            except ValueError:
                raise ParseError(f"bad modulus {rhs.strip()!r}", lineno)
            continue
        if line.startswith("vars:"):
            variables = [v.strip() for v in line[len("vars:"):].split(",") if v.strip()]
            continue
        if line.startswith("order:"):
            order_name = line[len("order:"):].strip()
            continue
        poly_lines.append((lineno, line))
    if p is None:
        raise ParseError("missing 'p = <prime>' line", 1)
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if not variables:
        raise ParseError("missing 'vars:' line", 1)
    if order_override:
        order_name = order_override
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
    return EngineConfig(
        max_pairs=args.max_pairs,
        max_degree=args.max_degree,
        capture_snapshots=getattr(args, "snapshots", False),
        self_check=getattr(args, "self_check", False),
    )


def _print_basis(result_polys, out):
    for q in result_polys:
        out.write(q.text() + "\n")


def _basis_sorted(polys, ring):
    return sorted(
        [q for q in polys if not q.is_zero], key=lambda q: ring.order.key(q.head_mono)
    )


def cmd_gb(args, out=None) -> int:
    out = out or sys.stdout
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    config = _config_from_args(args)
    try:
        result = incremental_f5(problem.polynomials, config)
    except BudgetExceeded as exc:
        out.write(f"budget exceeded: {exc}\n")
        for key, val in sorted(exc.counters.items()):
            out.write(f"  {key}: {val}\n")
        return 3
    _print_basis(result.basis_polynomials(), out)
    return 0


def cmd_oracle(args, out=None) -> int:
    out = out or sys.stdout
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    basis = buchberger(problem.polynomials)
    _print_basis(_basis_sorted(basis, problem.ring), out)
    return 0


def cmd_trace(args, out=None) -> int:
    out = out or sys.stdout
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    config = _config_from_args(args)
    try:
        result = incremental_f5(problem.polynomials, config)
    except BudgetExceeded as exc:
        _write_trace(args.trace_out, exc.events)
        out.write(f"budget exceeded: {exc}\n")
        return 3
    _write_trace(args.trace_out, result.events)
    _print_basis(result.basis_polynomials(), out)
    return 0


def _write_trace(path: str, events) -> None:
    log = Trace()
    log.events = events
    with open(path, "w", encoding="utf-8") as fp:
        log.to_jsonl(fp)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def run_check(problem: ProblemFile, config: EngineConfig, descent_samples: int,
              descent_cap: int, seed: int) -> dict:
    """Engine + reference + checkers + sampled descents; machine-form report."""
    t0 = time.perf_counter()
    config.capture_snapshots = True
    config.self_check = True
    result = incremental_f5(problem.polynomials, config)
    f5_basis = result.basis_polynomials()
    oracle_basis = buchberger(problem.polynomials)
    equal = ideal_equal(f5_basis, oracle_basis)
    reports = run_all_checkers(result.events, problem.ring)
    verdicts = {rep.name: rep.passed for rep in reports}
    verdicts["ideal_equal"] = equal
    verdicts["admissible"] = all(
        check_admissible(lp, result.inputs, problem.ring.order) for lp in result.R
    )

    descents = {"attempted": 0, "completed": 0, "max_steps": 0, "failures": []}
    thm4 = {"pairs": 0, "reductor_ok": 0, "failures": []}
    rng = random.Random(seed)
    seeds = harvest_descent_seeds(result, descent_samples, rng)
    for snap, coeff, mono, h_pos in seeds:
        descents["attempted"] += 1
        try:
            res = descend(coeff, mono, h_pos, snap, descent_cap)
            descents["completed"] += 1
            descents["max_steps"] = max(descents["max_steps"], res.step_count)
        except DescentError as exc:
            descents["failures"].append(str(exc))
    for snap in _snapshots(result):
        for fprime, f in find_thm4_pairs_in_snapshot(snap):
            thm4["pairs"] += 1
            try:
                mono, pos, _ = find_unrejected_reductor(f, fprime, snap, descent_cap)
                verdict = reductor_passes_engine_checks(snap, mono, pos, f)
                if verdict is None:
                    thm4["reductor_ok"] += 1
                else:
                    thm4["failures"].append(f"pair ({fprime},{f}): check ({verdict}) failed")
            except DescentError as exc:
                thm4["failures"].append(f"pair ({fprime},{f}): {exc}")
    verdicts["descents"] = not descents["failures"]
    verdicts["thm4_reductors"] = not thm4["failures"]

    report = {
        "basis_size": len(f5_basis),
        "head_monomials": [q.head_mono.text(problem.ring.names) for q in f5_basis],
        "counters": result.counters,
        "verdicts": verdicts,
        "checker_lines": [rep.line() for rep in reports],
        "skipped": [rep.name for rep in reports if rep.skipped],
        "descents": descents,
        "thm4": thm4,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "basis": [q.text() for q in f5_basis],
        "oracle_basis": [q.text() for q in _basis_sorted(oracle_basis, problem.ring)],
    }
    report["ok"] = all(verdicts.values())
    return report


def _snapshots(result: EngineResult):
    return [GgSnapshot.from_result(result, rec) for rec in result.snapshots]


def cmd_check(args, out=None) -> int:
    out = out or sys.stdout
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    config = _config_from_args(args)
    try:
        report = run_check(problem, config, args.descent_samples, args.descent_cap, args.seed)
    except BudgetExceeded as exc:
        out.write(f"budget exceeded: {exc}\n")
        return 3
    if args.json_report:
        out.write(json.dumps(report, indent=2) + "\n")
    else:
        out.write(f"basis size: {report['basis_size']}\n")
        out.write("head monomials: " + ", ".join(report["head_monomials"]) + "\n")
        out.write(f"ideal_equal: {str(report['verdicts']['ideal_equal']).lower()}\n")
        for line in report["checker_lines"]:
            out.write(line + "\n")
        d = report["descents"]
        out.write(
            f"descents: {d['completed']}/{d['attempted']} completed"
            f" (max steps {d['max_steps']})\n"
        )
        t = report["thm4"]
        out.write(f"thm4 pairs: {t['pairs']} found, {t['reductor_ok']} reductors verified\n")
        out.write(f"elapsed: {report['elapsed_s']}s\n")
        out.write("result: " + ("ok" if report["ok"] else "CHECK FAILURES") + "\n")
    return 0 if report["ok"] else 2


def cmd_descend(args, out=None) -> int:
    out = out or sys.stdout
    problem = parse_problem(_read(args.file), args.allow_affine, args.order)
    config = _config_from_args(args)
    config.capture_snapshots = True
    try:
        result = incremental_f5(problem.polynomials, config)
    except BudgetExceeded as exc:
        out.write(f"budget exceeded: {exc}\n")
        return 3
    if not result.snapshots:
        out.write("no snapshots captured (no Done insertions in this run)\n")
        return 2
    if not 0 <= args.snapshot < len(result.snapshots):
        out.write(f"snapshot index out of range (have {len(result.snapshots)})\n")
        return 2
    snap = GgSnapshot.from_result(result, result.snapshots[args.snapshot])
    h_pos = args.element if args.element is not None else snap.members[0]
    mono = Monomial([0] * problem.ring.n)
    if args.mult:
        mono = _parse_poly(problem.ring, args.mult, 0).head_mono
    try:
        res = descend(1, mono, h_pos, snap, args.descent_cap)
    except DescentError as exc:
        out.write(f"descent failed: {exc}\n")
        return 2
    for entry in res.steps:
        out.write(json.dumps(entry, separators=(",", ":")) + "\n")
    out.write(
        json.dumps(
            {
                "kind": "FinalRepresentation",
                "elements": [
                    [e.coeff, list(e.mono.exps), e.pos]
                    for e in res.representation.elements
                ],
            },
            separators=(",", ":"),
        )
        + "\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="f5gb",
        description="Signature-based Groebner engine with invariant checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file")
        p.add_argument("--order", default=None, help="override the file's order")
        p.add_argument("--max-pairs", type=int, default=10**6)
        p.add_argument("--max-degree", type=int, default=80)
        p.add_argument("--allow-affine", action="store_true",
                       help="accept non-homogeneous input (reference algorithm only)")

    p_gb = sub.add_parser("gb", help="run the signature engine")
    common(p_gb)
    p_oracle = sub.add_parser("oracle", help="run the reference algorithm")
    common(p_oracle)
    p_trace = sub.add_parser("trace", help="run the engine and write a JSON Lines trace")
    common(p_trace)
    p_trace.add_argument("--trace-out", required=True)
    p_check = sub.add_parser("check", help="engine + reference + all checkers + descents")
    common(p_check)
    p_check.add_argument("--descent-samples", type=int, default=25)
    p_check.add_argument("--descent-cap", type=int, default=10**5)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json-report", action="store_true")
    p_desc = sub.add_parser("descend", help="run one descent on a chosen snapshot")
    common(p_desc)
    p_desc.add_argument("--snapshot", type=int, default=0, help="snapshot ordinal")
    p_desc.add_argument("--element", type=int, default=None, help="basis position to descend")
    p_desc.add_argument("--mult", default=None, help="monomial multiplier, e.g. 'x*y'")
    p_desc.add_argument("--descent-cap", type=int, default=10**5)

    args = parser.parse_args(argv)
    try:
        handler = {
            "gb": cmd_gb,
            "oracle": cmd_oracle,
            "trace": cmd_trace,
            "check": cmd_check,
            "descend": cmd_descend,
        }[args.command]
        return handler(args)
    except (ParseError, NonPrimeModulus, NonHomogeneousInput, ZeroInputPolynomial) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
