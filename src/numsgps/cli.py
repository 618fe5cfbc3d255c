"""Command line surface.

Subcommands: info, hilbert, duplicate, construct, witness, check-fixtures.
Generator arguments accept '4,6,7', a JSON array '[4,6,7]', or '@name' for a
stored fixture.  Every subcommand supports --json for machine-readable
output.

Exit codes follow the base class of the exception that ends a subcommand:
0 success, 2 a ``ValueError`` (unparsable or invalid input), 3 a
``DomainError`` (excluded level, invalid duplication data), 4 an
``AssertionError`` (a failed internal certificate or a fixture regression).
A reader that closes stdout early, as ``| head`` does, ends it with exit 1
and no traceback.  ``python -m numsgps`` runs the same command line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .construction import _verify, construct_asd
from .core import DomainError, NumericalSemigroup, parse_generators
from .duplication import gorenstein_witness, numerical_duplication, predicted_duplication_hilbert
from .fixtures import check_all_fixtures, fixture_semigroup
from .hilbert import (
    decrease_levels,
    hilbert_function,
    hilbert_through_stabilization,
    layer_sets,
)
from .ideals import (
    RelativeIdeal,
    ideal_generated_by,
    is_almost_symmetric,
    is_symmetric,
    maximal_ideal,
    pseudo_frobenius,
    semigroup_type,
    standard_canonical_ideal,
)


def _resolve_semigroup(text: str) -> NumericalSemigroup:
    if text.startswith("@"):
        return fixture_semigroup(text[1:])
    return NumericalSemigroup.from_generators(parse_generators(text))


def _resolve_ideal(S: NumericalSemigroup, descriptor: str) -> RelativeIdeal:
    """canonical | canonical+Z | canonical-Z | maximal | explicit generator list."""
    descriptor = descriptor.strip()
    if descriptor == "maximal":
        return maximal_ideal(S)
    if descriptor.startswith("canonical"):
        # [0-9]: \d and int() both admit any Unicode digit
        shift = re.fullmatch(r"canonical([+-][0-9]+)?", descriptor)
        if not shift:
            raise ValueError(f"cannot parse ideal descriptor {descriptor!r}")
        return standard_canonical_ideal(S).shift(int(shift[1] or 0))
    return ideal_generated_by(S, parse_generators(descriptor))


def _hilbert_text(H) -> str:
    shown = H.values if H.stable_from is None else H.values[: H.stable_from + 1] + ("->",)
    return "[" + ", ".join(map(str, shown)) + "]"


def _emit(args, payload: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(human_lines))
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    S = _resolve_semigroup(args.gens)
    sym = is_symmetric(S)
    pf = pseudo_frobenius(S)
    alm = is_almost_symmetric(S, "definition")
    payload = {
        **S.to_json(),
        "type": len(pf),
        "pseudo_frobenius": list(pf),
        "symmetric": sym,
        "almost_symmetric": alm,
    }
    lines = [
        f"min_gens:            {list(S.min_gens)}",
        f"multiplicity:        {S.multiplicity}",
        f"embedding dimension: {S.embedding_dimension}",
        f"frobenius:           {S.frobenius}",
        f"genus:               {S.genus}",
        f"type:                {len(pf)}",
        f"pseudo-Frobenius:    {list(pf)}",
        f"symmetric:           {sym}",
        f"almost symmetric:    {alm}",
    ]
    return _emit(args, payload, lines)


def cmd_hilbert(args) -> int:
    S = _resolve_semigroup(args.gens)
    H = hilbert_function(S, args.hmax)
    payload = H.to_json()
    lines = [f"H = {_hilbert_text(H)}"]
    if H.stable_from is not None:
        levels = decrease_levels(H)
        payload["decrease_levels"] = list(levels)
        lines.append(f"decrease levels: {list(levels)}")
    else:
        payload["decrease_levels"] = None
        lines.append(
            f"not stabilized by h={args.hmax}; decrease levels unavailable (raise --hmax)"
        )
    if args.layers:
        layers = layer_sets(S, max(args.hmax, 2))
        if args.json:
            payload["layers"] = layers.to_json()
        for k in sorted(layers.c_sets):
            lines.append(f"C_{k} = {list(layers.c_sets[k])}")
            lines.append(f"D_{k} = {list(layers.d_sets[k])}")
    return _emit(args, payload, lines)


def cmd_duplicate(args) -> int:
    S = _resolve_semigroup(args.gens)
    E = _resolve_ideal(S, args.ideal)
    T = numerical_duplication(S, E, args.b)
    # the ideal's listing can be conductor-sized: build it only for --json, before the Hilbert work
    payload = {"ideal": E.to_json()} if args.json else {}
    H = (
        hilbert_function(T, args.hmax)
        if args.hmax is not None
        else hilbert_through_stabilization(T, 6)
    )
    payload |= {
        **T.to_json(),
        "b": args.b,
        "hilbert": H.to_json(),
        "symmetric": is_symmetric(T),
    }
    lines = [
        f"duplication: e={T.multiplicity} nu={T.embedding_dimension} f={T.frobenius}",
        f"H = {_hilbert_text(H)}",
        f"symmetric: {payload['symmetric']}",
    ]
    if args.emit_generators or not args.json:
        payload["min_gens"] = list(T.min_gens)
        lines.insert(1, f"min_gens: {list(T.min_gens)}")
    if args.predict:
        HS = hilbert_through_stabilization(S, max(len(H.values) - 1, 2))
        pred = predicted_duplication_hilbert(HS, semigroup_type(S), len(H.values) - 1)
        payload["predicted_hilbert"] = pred.to_json()
        lines.append(f"predicted H = {_hilbert_text(pred)}")
    return _emit(args, payload, lines)


def cmd_construct(args) -> int:
    data = construct_asd(args.ell)
    payload = data.to_json(include_generators=args.emit_generators or not args.json)
    S = data.semigroup
    lines = [
        f"ell={data.ell}: e={data.e} n1={data.n1} n2={data.n2} t1={data.t1} t2={data.t2}",
        f"generators: {len(data.gamma)} (families: s={len(data.s_family)}, r={len(data.r_family)})",
        f"frobenius: {S.frobenius}",
    ]
    if not args.json:
        lines.append(f"gamma: {list(data.gamma)}")
    if args.verify:
        cert = _verify(data)
        payload["certificate"] = cert.to_json()
        lines.append(f"certificate: {'all claims pass' if cert.all_passed else 'FAILURES'}")
        for claim in cert.claims:
            mark = "ok " if claim.passed else "FAIL"
            lines.append(f"  [{mark}] {claim.name}: expected {claim.expected}, got {claim.actual}")
        if not cert.all_passed:
            _emit(args, payload, lines)
            return 4
    return _emit(args, payload, lines)


def cmd_witness(args) -> int:
    report = gorenstein_witness(args.level, args.drop)
    payload = report.to_json(include_generators=args.emit_generators)
    lines = [
        f"level {report.level}, target drop > {report.drop_target}: achieved "
        f"{report.achieved_drop}",
        f"seed: {report.seed_name}",
    ]
    for step in report.chain:
        lines.append(
            f"  step {step.index}: e={step.semigroup.multiplicity} type={step.type} "
            f"H={_hilbert_text(step.hilbert)}"
            + (f" (b={step.b})" if step.b is not None else "")
        )
    lines.append(
        f"final (b={report.final_b}): e={report.final.multiplicity} "
        f"nu={report.final.embedding_dimension} symmetric, H={_hilbert_text(report.final_hilbert)}"
    )
    return _emit(args, payload, lines)


def cmd_check_fixtures(args) -> int:
    results = check_all_fixtures()
    all_ok = True
    payload = {}
    lines = []
    for name, claims in sorted(results.items()):
        failures = [c for c in claims if not c.passed]
        all_ok = all_ok and not failures
        payload[name] = {
            "pass": not failures,
            "claims": [c.to_json() for c in claims],
        }
        lines.append(f"{name}: {'PASS' if not failures else 'FAIL'} ({len(claims)} claims)")
        for c in failures:
            lines.append(f"  FAIL {c.name}: expected {c.expected}, got {c.actual}")
    _emit(args, {"fixtures": payload, "all_passed": all_ok}, lines)
    return 0 if all_ok else 4


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Exact computations on numerical semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="basic invariants of a semigroup")
    p.add_argument("gens", help="generators '4,6,7', JSON '[4,6,7]', or '@fixture'")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("hilbert", help="Hilbert function, decrease levels, layer sets")
    p.add_argument("gens")
    p.add_argument("--hmax", type=int, default=10)
    p.add_argument("--layers", action="store_true", help="include C_k / D_k layer sets")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("duplicate", help="numerical duplication along an ideal")
    p.add_argument("gens")
    p.add_argument("--ideal", required=True,
                   help="canonical | canonical+Z | maximal | explicit list '0,7,9'")
    p.add_argument("--b", type=int, required=True, help="odd element of the semigroup")
    p.add_argument("--hmax", type=int, default=None,
                   help="Hilbert range for the result (default: through stabilization)")
    p.add_argument("--predict", action="store_true",
                   help="also print the type-based predicted Hilbert function")
    p.add_argument("--emit-generators", action="store_true")
    p.set_defaults(func=cmd_duplicate)

    p = sub.add_parser("construct", help="parametric almost symmetric semigroup with a drop")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="run the full claim certificate")
    p.add_argument("--emit-generators", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("witness", help="symmetric semigroup with a prescribed Hilbert drop")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--drop", type=int, required=True)
    p.add_argument("--emit-generators", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("check-fixtures", help="re-verify every stored fixture")
    p.set_defaults(func=cmd_check_fixtures)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not in the flush at exit
        return status
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
