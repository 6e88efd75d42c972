"""Command-line frontend: build, verify, and report on the covers.

Exit codes: 0 all checks pass, 1 a certificate failed, 2 usage or parameter
error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import convolution as conv
from .covers import (
    MAX_COVER_SIZE,
    CoveringMap,
    CoverVerificationError,
    RowCover,
    build_cover,
    cohen_tits_signing,
    connection_set,
    heisenberg_cover,
    heisenberg_row_cover,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    power_exceeds,
    standard_ids,
    verify_cover,
)
from .gains import GainGraph, all_cycle_sums_nonzero, extraspecial_row_cover, gain_from_cocycle
from .graphs import (Graph, edge_blocks, girth, has_4cycle, has_cycle_of_length, hypercube,
                     write_edge_rows)
from .groups import MINUS, PLUS, extraspecial_group
from .modular import SUPPORTED_PRIMES
from .reporting import IntBlocks, stable_text, write_stable
from .spectra import (
    MAX_EIGEN_SIZE,
    SpectrumReport,
    adjacency_matrix,
    hermitian_eigenvalues,
    huang_degree_bound,
    twisted_adjacency,
    twisted_spectra,
)

# A CLI process imports this module once, runs one command and exits, so
# everything alive now (numpy's modules, types and tables, and ours) lives
# until exit. Frozen, those objects are walked by no collection again, during
# the run or at shutdown. Code that imports only the library is unaffected.
gc.freeze()

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


def _cover_params(args) -> Optional[int]:
    """Check --heisenberg, --p, --d and --sign of build, verify and spectrum,
    and the cover size against MAX_COVER_SIZE, before anything is built or
    written; return the odd prime p, or None for the Heisenberg cover."""
    if args.heisenberg:
        if args.p is not None:
            raise UsageError("--heisenberg does not take --p")
        if args.sign is not None:
            raise UsageError("--heisenberg does not take --sign")
        if args.d is None or args.d < 1:
            raise UsageError("--heisenberg requires --d >= 1")
        p, base, exponent = None, 2, args.d + 1
    else:
        if args.p is None or args.d is None:
            raise UsageError(f"{args.command} requires --p and --d (or --heisenberg --d)")
        p = _require_odd_prime(args.p)
        _require_d(args.d)
        base, exponent = p, 1 + 2 * args.d
    if power_exceeds(base, exponent, MAX_COVER_SIZE):
        raise UsageError(f"cover would exceed {MAX_COVER_SIZE} vertices")
    return p


def _signs(sign: Optional[str]) -> list[str]:
    return [PLUS, MINUS] if sign in (None, "both") else [sign]


def _write_stdout(text: str) -> None:
    """Write text to standard output and flush it. A failed write is a
    usage error; standard output then points at os.devnull, so the
    interpreter's final flush of what stays buffered cannot fail again."""
    if sys.stdout is None:  # the process started with descriptor 1 closed
        raise UsageError("cannot write standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write standard output: {exc.strerror}") from exc


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


def _graph_json(cover: RowCover) -> dict:
    """The JSON document of the cover, its arrays as blocks of rows."""
    return {
        "total": {"n": cover.n,
                  "edges": IntBlocks(partial(edge_blocks, cover.n, cover.rows), cover.n)},
        "base": {"n": cover.base_n,
                 "edges": IntBlocks(partial(edge_blocks, cover.base_n, cover.base_rows), cover.n)},
        "fiber_map": IntBlocks(cover.fiber_blocks, cover.n),
    }


def _write_cover(cover: RowCover, stem: str, out_dir: Path, fmt: str) -> list[Path]:
    """Stream the cover's files into out_dir, one block of rows at a time,
    and return their paths."""
    if fmt == "edges":
        files = ((".total.edges", partial(write_edge_rows, cover.n, cover.rows)),
                 (".base.edges", partial(write_edge_rows, cover.base_n, cover.base_rows)),
                 (".fibers.txt", cover.write_fiber_map))
    else:
        files = ((".json", partial(write_stable, _graph_json(cover))),)
    written = []
    for suffix, write_file in files:
        path = out_dir / (stem + suffix)
        with path.open("w") as f:
            write_file(f.write)
        written.append(path)
    return written


def cmd_build(args) -> int:
    p = _cover_params(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    # Each cover is written from its row function, a block of ids at a
    # time, and no cover is held whole. The extraspecial rows are those of
    # the cocycle lift, which makes no group products (README, "The
    # extraspecial cover as a cocycle lift").
    if p is None:
        jobs = [(f"heisenberg_d{args.d}", partial(heisenberg_row_cover, args.d))]
    else:
        jobs = [(f"cover_p{p}_d{args.d}_{sign}", partial(extraspecial_row_cover, p, args.d, sign))
                for sign in _signs(args.sign)]
    for stem, make in jobs:
        try:
            written = _write_cover(make(), stem, out_dir, args.format)
        except OSError as exc:
            raise UsageError(f"cannot write {exc.filename}: {exc.strerror}") from exc
        _write_stdout("".join(f"{path}\n" for path in written))
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
    group = extraspecial_group(p, d, sign)  # held, so build_cover uses it too
    _certify_cayley(report, build_cover(p, d, sign), p, sign == PLUS, want_girth)
    rank = modular_rank(connection_set(p, d), p)
    checks["connection_rank"] = _check(rank == 2 * d, None, rank=rank)
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
    p = _cover_params(args)
    if p is None:
        reports = [_verify_heisenberg(args.d, args.girth)]
    else:
        reports = [_verify_extraspecial(p, args.d, sign, args.girth) for sign in _signs(args.sign)]
    passed = all(r["passed"] for r in reports)
    _write_stdout(stable_text({"command": "verify", "constructions": reports, "passed": passed}))
    return 0 if passed else 1


# ---------------------------------------------------------------- bound


# bound no longer calls this; it stays, by this name, as the tests' dense
# oracle of odd dims and because perfbench/spans.py rebinds it by name.
def _gain_graph_for_dims(p: int, dims: int, sign: str) -> GainGraph:
    """The gain graph of odd dims: that of d = (dims + 1) / 2 restricted to
    the hyperplane whose last standard coordinate vanishes, the base of the
    induced covers."""
    d = (dims + 1) // 2
    return gain_from_cocycle(p, d, sign).restrict(np.flatnonzero(standard_ids(p, d) % p == 0))


def _twists(twist: str, p: int) -> list[int]:
    if twist == "all":
        return list(range(1, p))
    try:
        k = int(twist)
    except ValueError as exc:
        raise UsageError("--twist must be an integer or 'all'") from exc
    if not 0 <= k < p:
        raise UsageError(f"--twist must lie in [0, {p})")
    return [k]


def _first_least_size(entries) -> dict[str, dict]:
    """For each degree, the first of the entries with the least size, keyed
    by the degree as text in ascending order."""
    best: dict[int, dict] = {}
    for entry in entries:
        held = best.get(entry["degree"])
        if held is None or entry["size"] < held["size"]:
            best[entry["degree"]] = entry
    return {str(t): best[t] for t in sorted(best)}


def cmd_bound(args) -> int:
    if args.p is None or args.dims is None:
        raise UsageError("bound requires --p and --dims")
    p = _require_odd_prime(args.p)
    if args.dims < 1:
        raise UsageError("dims must be >= 1")
    if power_exceeds(p, args.dims, MAX_EIGEN_SIZE):
        raise UsageError(f"base has {p}^{args.dims} vertices, above the {MAX_EIGEN_SIZE} eigensolver limit")
    n = p ** args.dims
    twists = _twists(args.twist, p)
    per_pair = []
    per_sign_best = {}
    for sign in _signs(args.sign):
        sign_entries = []
        for k, report in zip(twists, twisted_spectra(p, args.dims, sign, twists)):
            table = huang_degree_bound(report, ranking=args.ranking)
            entries = [{"degree": t, "size": row.size, "bound": row.bound, "sign": sign, "twist": k}
                       for t, row in table.minimal_rows().items()]
            sign_entries += entries
            per_pair.append({
                "sign": sign,
                "twist": k,
                "largest_bound": table.rows[-1].bound,
                "minimal_size_by_degree": _first_least_size(entries),
            })
        per_sign_best[sign] = _first_least_size(sign_entries)
    doc = {
        "command": "bound",
        "p": p,
        "dims": args.dims,
        "n": n,
        "ranking": args.ranking,
        "per_pair": per_pair,
        "per_sign_best": per_sign_best,
        # The first least size over all pairs is the first least over the
        # per-sign bests, taken in sign order.
        "best": _first_least_size(e for best in per_sign_best.values() for e in best.values()),
    }
    _write_stdout(stable_text(doc))
    return 0


# ---------------------------------------------------------------- spectrum


def _decomposition(cover: SpectrumReport, parts: list[SpectrumReport]) -> dict:
    """The largest gap between the cover's eigenvalues and the union of its
    parts' eigenvalues, both sorted, and whether it is below 1e-8."""
    whole = np.sort(cover.eigenvalues)
    union = np.sort(np.concatenate([part.eigenvalues for part in parts]))
    err = float(np.max(np.abs(whole - union))) if len(whole) == len(union) else math.inf
    return {"decomposition_max_error": err, "decomposition_ok": err < 1e-8}


def cmd_spectrum(args) -> int:
    p = _cover_params(args)
    if p is None:
        if power_exceeds(2, args.d + 1, MAX_EIGEN_SIZE):
            raise UsageError("cover too large for the eigensolver")
        cm = heisenberg_cover(args.d)
        cover = hermitian_eigenvalues(
            adjacency_matrix(cm.total), source=f"heisenberg cover of Q_{args.d}")
        parts = [
            hermitian_eigenvalues(adjacency_matrix(cm.base), source=f"Q_{args.d}"),
            hermitian_eigenvalues(cohen_tits_signing(args.d).entries.astype(float),
                                  source=f"recursive signing of Q_{args.d}"),
        ]
        doc = {
            "command": "spectrum",
            "construction": {"kind": "heisenberg", "d": args.d},
            "cover": cover.to_json_dict(),
            "parts": [part.to_json_dict() for part in parts],
            **_decomposition(cover, parts),
        }
        _write_stdout(stable_text(doc))
        return 0 if doc["decomposition_ok"] else 1
    if power_exceeds(p, 1 + 2 * args.d, MAX_EIGEN_SIZE):
        raise UsageError("cover too large for the eigensolver")
    constructions = []
    for sign in _signs(args.sign):
        row_cover = extraspecial_row_cover(p, args.d, sign)
        total = Graph._from_id_arithmetic(row_cover.n, row_cover.rows)
        cover = hermitian_eigenvalues(adjacency_matrix(total),
                                      source=f"cover p={p} d={args.d} sign={sign}")
        gg = gain_from_cocycle(p, args.d, sign)
        twists = [hermitian_eigenvalues(twisted_adjacency(gg, k), source=f"twist k={k} sign={sign}")
                  for k in range(p)]
        constructions.append({
            "construction": {"kind": "extraspecial", "p": p, "d": args.d, "sign": sign},
            "cover": cover.to_json_dict(),
            "twists": [{"twist": k, "report": rep.to_json_dict()} for k, rep in enumerate(twists)],
            **_decomposition(cover, twists),
        })
    passed = all(c["decomposition_ok"] for c in constructions)
    _write_stdout(stable_text({"command": "spectrum", "constructions": constructions,
                               "passed": passed}))
    return 0 if passed else 1


# ---------------------------------------------------------------- gain


def cmd_gain(args) -> int:
    if args.p is None or args.d is None:
        raise UsageError("gain requires --p and --d")
    p = _require_odd_prime(args.p)
    _require_d(args.d)
    if power_exceeds(p, 2 * args.d, MAX_COVER_SIZE):
        raise UsageError(f"base would exceed {MAX_COVER_SIZE} vertices")
    docs = []
    for sign in _signs(args.sign):
        gg = gain_from_cocycle(p, args.d, sign)
        # Cycles through vertex 0 decide all cycles of a cocycle gain graph
        # (README, "Gain cycle sums from one vertex").
        ok3, wit3 = all_cycle_sums_nonzero(gg, 3, root=0)
        ok4, wit4 = all_cycle_sums_nonzero(gg, 4, root=0)
        docs.append({
            "construction": {"kind": "gain", "p": p, "d": args.d, "sign": sign},
            "n": gg.base.n,
            # One block, the arc table: heads and tails below n, gains below p <= n.
            "arcs": IntBlocks(partial(list, [gg.arc_table()]), gg.base.n),
            "three_cycle_sums_nonzero": ok3,
            "three_cycle_zero_witness": list(wit3) if wit3 else None,
            "four_cycle_sums_nonzero": ok4,
            "four_cycle_zero_witness": list(wit4) if wit4 else None,
        })
    _write_stdout(stable_text({"command": "gain", "gains": docs}))
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
                                     adjacency_matrix(hypercube(d))))
        checks["convolution_is_cube_adjacency"] = _check(adj_ok)
    passed = all(c["pass"] for c in checks.values())
    _write_stdout(stable_text({"command": "convolve-check", "d": d, "checks": checks,
                               "passed": passed}))
    return 0 if passed else 1


# ---------------------------------------------------------------- entry


class _ArgumentParser(argparse.ArgumentParser):
    """Writes --help to standard output through _write_stdout, so a failed
    write is a usage error; subcommand parsers are of this class too."""

    def print_help(self, file=None) -> None:
        if file is None:
            _write_stdout(self.format_help())
        else:
            super().print_help(file)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The top-level parser with the subparser of the named command alone,
    or with all of them when command names none (--help, no command, an
    unknown one). The table is made here, not at import, so it holds the
    cmd_* functions bound when the parser is built."""
    signs = ["plus", "minus", "both"]
    sign = ("--sign", {"default": "both", "choices": signs})
    cover = (("--p", {"type": int, "help": "odd prime modulus"}),
             ("--d", {"type": int, "help": "half the base dimension"}),
             ("--heisenberg", {"action": "store_true", "help": "mod-2 cube cover instead"}),
             ("--sign", {"choices": signs}))  # None, not both, so --heisenberg can refuse it
    commands = {
        "build": ("write edge lists and the fiber map", cmd_build, cover + (
            ("--out", {"default": ".", "help": "output directory"}),
            ("--format", {"default": "edges", "choices": ["edges", "json"]}))),
        "verify": ("certify the covering axioms and cycle structure", cmd_verify, cover + (
            ("--girth", {"action": "store_true", "help": "also compute the girth"}),)),
        "bound": ("induced-subgraph degree bounds from twisted spectra", cmd_bound, (
            ("--p", {"type": int}),
            ("--dims", {"type": int, "help": "number of cycle factors in the base"}),
            sign,
            ("--twist", {"default": "all", "help": "a twist in [0, p) or 'all'"}),
            ("--ranking", {"default": "magnitude", "choices": ["magnitude", "eigenvalue"]}))),
        "spectrum": ("cover spectrum and its per-twist decomposition", cmd_spectrum, cover),
        "gain": ("export the cocycle gain graph", cmd_gain,
                 (("--p", {"type": int}), ("--d", {"type": int}), sign)),
        "convolve-check": ("convolution and lift identities", cmd_convolve_check,
                           (("--d", {"type": int}),)),
    }
    parser = _ArgumentParser(
        prog="cyclecovers",
        description="Build and certify 4-cycle-free p-fold covers of products of p-cycles.",
    )
    # Built with one subparser, the usage that errors print would list that
    # command alone; the metavar keeps the full list. The full parser leaves
    # it unset, because its "arguments are required" error names the dest.
    one = command in commands
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(commands) + "}" if one else None)
    for name in [command] if one else commands:
        help_text, func, options = commands[name]
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
