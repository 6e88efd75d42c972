"""Command-line frontend: build, verify, and report on the covers.

Exit codes: 0 all checks pass, 1 a certificate failed, 2 usage or parameter
error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import convolution as conv
from .covers import (
    CoveringMap,
    CoverVerificationError,
    build_cover,
    cohen_tits_signing,
    connection_set,
    heisenberg_cover,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    verify_cover,
)
from .gains import GainGraph, all_cycle_sums_nonzero, gain_from_cocycle
from .graphs import VertexCodec, girth, has_4cycle, has_cycle_of_length
from .groups import MINUS, PLUS, ExtraspecialGroup
from .modular import SUPPORTED_PRIMES
from .reporting import stable_text
from .spectra import (
    MAX_EIGEN_SIZE,
    adjacency_matrix,
    hermitian_eigenvalues,
    huang_degree_bound,
    twisted_adjacency,
)

GIRTH_CAP = 13


class UsageError(Exception):
    pass


def _require_odd_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise UsageError(f"p must be a prime in {SUPPORTED_PRIMES}")
    if p == 2:
        raise UsageError("p must be odd for extraspecial covers")
    return p


def _require_d(d: int) -> None:
    if d < 1:
        raise UsageError("d must be >= 1")


def _signs(sign: str) -> list[str]:
    if sign == "both":
        return [PLUS, MINUS]
    if sign in (PLUS, MINUS):
        return [sign]
    raise UsageError(f"sign must be plus, minus, or both, got {sign!r}")


def _check(passed: bool, witness=None, **extra) -> dict:
    out = {"pass": bool(passed), "witness": witness}
    out.update(extra)
    return out


def _empty_report(construction: dict) -> dict:
    return {
        "construction": construction,
        "fold": None,
        "four_cycle_free": None,
        "p_cycle_present": None,
        "girth": None,
        "girth_cap": None,
        "spectrum": None,
        "degree_bounds": None,
        "checks": {},
        "passed": None,
    }


# ---------------------------------------------------------------- build


def _graph_json(cm: CoveringMap) -> dict:
    return {
        "total": {"n": cm.total.n, "edges": [list(e) for e in cm.total.edges()]},
        "base": {"n": cm.base.n, "edges": [list(e) for e in cm.base.edges()]},
        "fiber_map": list(cm.fiber_map),
    }


def _write_cover(cm: CoveringMap, stem: str, out_dir: Path, fmt: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "edges":
        for suffix, text in (
            (".total.edges", cm.total.to_edge_list_text()),
            (".base.edges", cm.base.to_edge_list_text()),
            (".fibers.txt", cm.fiber_map_text()),
        ):
            path = out_dir / (stem + suffix)
            path.write_text(text)
            written.append(path)
    else:
        path = out_dir / (stem + ".json")
        path.write_text(stable_text(_graph_json(cm)))
        written.append(path)
    return written


def cmd_build(args) -> int:
    out_dir = Path(args.out)
    jobs: list[tuple[str, CoveringMap]] = []
    if args.heisenberg:
        if args.p is not None:
            raise UsageError("--heisenberg does not take --p")
        if args.d is None or args.d < 1:
            raise UsageError("--heisenberg requires --d >= 1")
        jobs.append((f"heisenberg_d{args.d}", heisenberg_cover(args.d)))
    else:
        if args.p is None or args.d is None:
            raise UsageError("build requires --p and --d (or --heisenberg --d)")
        p = _require_odd_prime(args.p)
        _require_d(args.d)
        for sign in _signs(args.sign):
            try:
                cm = build_cover(p, args.d, sign)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            jobs.append((f"cover_p{p}_d{args.d}_{sign}", cm))
    for stem, cm in jobs:
        for path in _write_cover(cm, stem, out_dir, args.format):
            print(path)
    return 0


# ---------------------------------------------------------------- verify


def _certify_cayley(report: dict, cm: CoveringMap, fold: int,
                    p_cycle_expected: Optional[bool], want_girth: bool) -> None:
    """Checks shared by every cover verify certifies: the covering axioms,
    then the 4-cycle, fold-length cycle and girth certificates on the built
    cover. The cover is a Cayley graph, so vertex-transitive, and the cycle
    searches run from vertex 0 alone (README, verify)."""
    checks = report["checks"]
    try:
        found_fold = verify_cover(cm)
        checks["cover_axioms"] = _check(found_fold == fold, None, fold=found_fold)
        report["fold"] = found_fold
    except CoverVerificationError as exc:
        checks["cover_axioms"] = _check(False, list(map(str, [exc.axiom, exc.witness])))
    found4, wit4 = has_4cycle(cm.total, root=0)
    report["four_cycle_free"] = not found4
    checks["four_cycle_free"] = _check(not found4, list(wit4) if wit4 else None)
    if p_cycle_expected is not None:
        foundp, witp = has_cycle_of_length(cm.total, fold, root=0)
        report["p_cycle_present"] = foundp
        checks["p_cycle_expectation"] = _check(
            foundp == p_cycle_expected, list(witp) if witp else None, expected=p_cycle_expected
        )
    if want_girth:
        report["girth"] = girth(cm.total, GIRTH_CAP, root=0)
        report["girth_cap"] = GIRTH_CAP


def _verify_extraspecial(p: int, d: int, sign: str, want_girth: bool) -> dict:
    report = _empty_report({"kind": "extraspecial", "p": p, "d": d, "sign": sign})
    checks = report["checks"]
    try:
        cm = build_cover(p, d, sign)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _certify_cayley(report, cm, p, sign == PLUS, want_girth)
    cs = connection_set(p, d)
    rank = modular_rank([v.coords for v in cs.ordered], p)
    checks["connection_rank"] = _check(rank == 2 * d, None, rank=rank)
    group = ExtraspecialGroup(p, d, sign)
    conn = lifted_connection(group)
    checks["connection_size"] = _check(len(set(conn)) == 4 * d, None, size=len(set(conn)))
    embedded = conn[: 2 * d]
    noncomm = pairwise_noncommuting_check(group, embedded)
    checks["pairwise_noncommuting"] = _check(
        noncomm.ok and noncomm.all_central_units,
        list(noncomm.witness) if noncomm.witness else None,
    )
    expected_order = p if sign == PLUS else p * p
    orders = sorted({group.order(g) for g in conn})
    checks["element_orders"] = _check(orders == [expected_order], None, orders=orders)
    report["passed"] = all(c["pass"] for c in checks.values())
    return report


def _verify_heisenberg(d: int, want_girth: bool) -> dict:
    report = _empty_report({"kind": "heisenberg", "d": d})
    _certify_cayley(report, heisenberg_cover(d), 2, None, want_girth)
    report["passed"] = all(c["pass"] for c in report["checks"].values())
    return report


def cmd_verify(args) -> int:
    reports = []
    if args.heisenberg:
        if args.d is None or args.d < 1:
            raise UsageError("--heisenberg requires --d >= 1")
        reports.append(_verify_heisenberg(args.d, args.girth))
    else:
        if args.p is None or args.d is None:
            raise UsageError("verify requires --p and --d (or --heisenberg --d)")
        p = _require_odd_prime(args.p)
        _require_d(args.d)
        for sign in _signs(args.sign):
            reports.append(_verify_extraspecial(p, args.d, sign, args.girth))
    passed = all(r["passed"] for r in reports)
    print(stable_text({"command": "verify", "constructions": reports, "passed": passed}), end="")
    return 0 if passed else 1


# ---------------------------------------------------------------- bound


def _gain_graph_for_dims(p: int, dims: int, sign: str) -> GainGraph:
    d = (dims + 1) // 2
    gg = gain_from_cocycle(p, d, sign)
    if dims % 2 == 0:
        return gg
    # Odd dims: restrict to the hyperplane whose last basis-change coordinate
    # vanishes, the base of the induced covers.
    from .covers import BasisChange

    alpha = BasisChange.from_connection_set(connection_set(p, d))
    codec = VertexCodec((p,) * (2 * d))
    keep = [
        v for v in range(codec.size)
        if alpha.apply_inverse(codec.decode(v))[2 * d - 1] == 0
    ]
    return gg.restrict(keep)


def cmd_bound(args) -> int:
    if args.p is None or args.dims is None:
        raise UsageError("bound requires --p and --dims")
    p = _require_odd_prime(args.p)
    if args.dims < 1:
        raise UsageError("dims must be >= 1")
    n = p ** args.dims
    if n > MAX_EIGEN_SIZE:
        raise UsageError(f"base has {n} vertices, above the {MAX_EIGEN_SIZE} eigensolver limit")
    if args.twist == "all":
        twists = list(range(1, p))
    else:
        try:
            k = int(args.twist)
        except ValueError as exc:
            raise UsageError("--twist must be an integer or 'all'") from exc
        if not 0 <= k < p:
            raise UsageError(f"--twist must lie in [0, {p})")
        twists = [k]
    per_pair = []
    best_by_degree: dict[int, dict] = {}
    per_sign_best: dict[str, dict[int, dict]] = {}
    for sign in _signs(args.sign):
        gg = _gain_graph_for_dims(p, args.dims, sign)
        sign_best: dict[int, dict] = {}
        for k in twists:
            matrix = twisted_adjacency(gg, k)
            report = hermitian_eigenvalues(matrix, source=f"twist k={k} of sign {sign} on C_{p}^{args.dims}")
            table = huang_degree_bound(report, ranking=args.ranking)
            max_degree = max(r.integer_bound for r in table.rows)
            minimal = {}
            for degree in range(1, max_degree + 1):
                size = table.minimal_size_for_degree(degree)
                if size is None:
                    continue
                row = table.rows[size - 1]
                entry = {
                    "degree": degree,
                    "size": size,
                    "bound": row.bound,
                    "sign": sign,
                    "twist": k,
                }
                minimal[degree] = entry
                if degree not in sign_best or size < sign_best[degree]["size"]:
                    sign_best[degree] = entry
                if degree not in best_by_degree or size < best_by_degree[degree]["size"]:
                    best_by_degree[degree] = entry
            per_pair.append({
                "sign": sign,
                "twist": k,
                "largest_bound": table.rows[-1].bound,
                "minimal_size_by_degree": {str(t): e for t, e in sorted(minimal.items())},
            })
        per_sign_best[sign] = sign_best
    doc = {
        "command": "bound",
        "p": p,
        "dims": args.dims,
        "n": n,
        "ranking": args.ranking,
        "per_pair": per_pair,
        "per_sign_best": {
            s: {str(t): e for t, e in sorted(rows.items())} for s, rows in per_sign_best.items()
        },
        "best": {str(t): e for t, e in sorted(best_by_degree.items())},
    }
    print(stable_text(doc), end="")
    return 0


# ---------------------------------------------------------------- spectrum


def _multiset_match(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) != len(b):
        return math.inf
    return float(np.max(np.abs(np.sort(a) - np.sort(b)))) if len(a) else 0.0


def cmd_spectrum(args) -> int:
    if args.heisenberg:
        if args.d is None or args.d < 1:
            raise UsageError("--heisenberg requires --d >= 1")
        cm = heisenberg_cover(args.d)
        cover_report = hermitian_eigenvalues(
            adjacency_matrix(cm.total), source=f"heisenberg cover of Q_{args.d}")
        signing = cohen_tits_signing(args.d)
        signing_report = hermitian_eigenvalues(
            signing.entries.astype(float), source=f"recursive signing of Q_{args.d}")
        base_report = hermitian_eigenvalues(
            adjacency_matrix(cm.base), source=f"Q_{args.d}")
        err = _multiset_match(
            np.array(cover_report.eigenvalues),
            np.concatenate([base_report.eigenvalues, signing_report.eigenvalues]),
        )
        ok = err < 1e-8
        doc = {
            "command": "spectrum",
            "construction": {"kind": "heisenberg", "d": args.d},
            "cover": cover_report.to_json_dict(),
            "parts": [base_report.to_json_dict(), signing_report.to_json_dict()],
            "decomposition_max_error": err,
            "decomposition_ok": ok,
        }
        print(stable_text(doc), end="")
        return 0 if ok else 1
    if args.p is None or args.d is None:
        raise UsageError("spectrum requires --p and --d (or --heisenberg --d)")
    p = _require_odd_prime(args.p)
    _require_d(args.d)
    if p ** (1 + 2 * args.d) > MAX_EIGEN_SIZE:
        raise UsageError("cover too large for the eigensolver")
    constructions = []
    passed = True
    for sign in _signs(args.sign):
        cm = build_cover(p, args.d, sign)
        cover_report = hermitian_eigenvalues(
            adjacency_matrix(cm.total), source=f"cover p={p} d={args.d} sign={sign}")
        gg = gain_from_cocycle(p, args.d, sign)
        twist_reports = []
        pieces = []
        for k in range(p):
            rep = hermitian_eigenvalues(
                twisted_adjacency(gg, k), source=f"twist k={k} sign={sign}")
            twist_reports.append({"twist": k, "report": rep.to_json_dict()})
            pieces.append(np.array(rep.eigenvalues))
        err = _multiset_match(np.array(cover_report.eigenvalues), np.concatenate(pieces))
        ok = err < 1e-8
        passed = passed and ok
        constructions.append({
            "construction": {"kind": "extraspecial", "p": p, "d": args.d, "sign": sign},
            "cover": cover_report.to_json_dict(),
            "twists": twist_reports,
            "decomposition_max_error": err,
            "decomposition_ok": ok,
        })
    print(stable_text({"command": "spectrum", "constructions": constructions,
                       "passed": passed}), end="")
    return 0 if passed else 1


# ---------------------------------------------------------------- gain


def cmd_gain(args) -> int:
    if args.p is None or args.d is None:
        raise UsageError("gain requires --p and --d")
    p = _require_odd_prime(args.p)
    _require_d(args.d)
    docs = []
    for sign in _signs(args.sign):
        gg = gain_from_cocycle(p, args.d, sign)
        ok3, wit3 = all_cycle_sums_nonzero(gg, 3)
        ok4, wit4 = all_cycle_sums_nonzero(gg, 4)
        docs.append({
            "construction": {"kind": "gain", "p": p, "d": args.d, "sign": sign},
            "n": gg.base.n,
            "arcs": [[u, v, g] for u, v, g in gg.arcs()],
            "three_cycle_sums_nonzero": ok3,
            "three_cycle_zero_witness": list(wit3) if wit3 else None,
            "four_cycle_sums_nonzero": ok4,
            "four_cycle_zero_witness": list(wit4) if wit4 else None,
        })
    print(stable_text({"command": "gain", "gains": docs}), end="")
    return 0


# ---------------------------------------------------------------- convolve-check


def cmd_convolve_check(args) -> int:
    d = args.d
    if d is None or d < 1:
        raise UsageError("convolve-check requires --d >= 1")
    if d > 8:
        raise UsageError("convolve-check supports d <= 8")
    carrier = conv.z2_carrier(d)
    if d <= 3:
        pairs = [
            (conv.GroupFunction.delta(carrier, x), conv.GroupFunction.delta(carrier, y))
            for x in carrier for y in carrier
        ]
        mode = "exhaustive delta basis"
    else:
        rng = random.Random(0)
        pairs = []
        for _ in range(100):
            f = conv.GroupFunction(carrier, [rng.randrange(-3, 4) for _ in carrier])
            g = conv.GroupFunction(carrier, [rng.randrange(-3, 4) for _ in carrier])
            pairs.append((f, g))
        mode = "100 seeded random integer pairs"
    lift_ok = all(conv.check_central_lift_identity(f, g)[0] for f, g in pairs)
    checks = {"lift_intertwining": _check(lift_ok, None, mode=mode, center_order=2)}
    if d <= 6:
        matrix = conv.twisted_operator_matrix(d)
        rep = hermitian_eigenvalues(matrix, source=f"twisted convolution operator d={d}")
        root = math.sqrt(d)
        expected = sorted([root] * (2 ** (d - 1)) + [-root] * (2 ** (d - 1)), reverse=True)
        err = float(np.max(np.abs(np.array(rep.eigenvalues) - np.array(expected))))
        checks["twisted_spectrum"] = _check(err < 1e-8, None, max_error=err)
        signing = cohen_tits_signing(d)
        srep = hermitian_eigenvalues(signing.entries.astype(float), source=f"signing d={d}")
        serr = float(np.max(np.abs(np.array(rep.eigenvalues) - np.array(srep.eigenvalues))))
        checks["matches_signing_spectrum"] = _check(serr < 1e-9, None, max_error=serr)
        adj_ok = bool(np.array_equal(conv.convolution_operator_matrix(d),
                                     adjacency_matrix(heisenberg_cover(d).base)))
        checks["convolution_is_cube_adjacency"] = _check(adj_ok)
    passed = all(c["pass"] for c in checks.values())
    print(stable_text({"command": "convolve-check", "d": d, "checks": checks,
                       "passed": passed}), end="")
    return 0 if passed else 1


# ---------------------------------------------------------------- entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclecovers",
        description="Build and certify 4-cycle-free p-fold covers of products of p-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, sign=True):
        sp.add_argument("--p", type=int, default=None, help="odd prime modulus")
        sp.add_argument("--d", type=int, default=None, help="half the base dimension")
        sp.add_argument("--heisenberg", action="store_true", help="mod-2 cube cover instead")
        if sign:
            sp.add_argument("--sign", default="both", choices=["plus", "minus", "both"])

    sp = sub.add_parser("build", help="write edge lists and the fiber map")
    common(sp)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--format", default="edges", choices=["edges", "json"])
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="certify the covering axioms and cycle structure")
    common(sp)
    sp.add_argument("--girth", action="store_true", help="also compute the girth")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bound", help="induced-subgraph degree bounds from twisted spectra")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--dims", type=int, default=None, help="number of cycle factors in the base")
    sp.add_argument("--sign", default="both", choices=["plus", "minus", "both"])
    sp.add_argument("--twist", default="all", help="a twist in [0, p) or 'all'")
    sp.add_argument("--ranking", default="magnitude", choices=["magnitude", "eigenvalue"])
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("spectrum", help="cover spectrum and its per-twist decomposition")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("gain", help="export the cocycle gain graph")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--sign", default="both", choices=["plus", "minus", "both"])
    sp.set_defaults(func=cmd_gain)

    sp = sub.add_parser("convolve-check", help="convolution and lift identities")
    sp.add_argument("--d", type=int, default=None)
    sp.set_defaults(func=cmd_convolve_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
