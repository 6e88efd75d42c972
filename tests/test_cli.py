import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclecovers.cli as cli
import cyclecovers.covers as covers
import cyclecovers.gains as gains
import cyclecovers.groups as groups
import cyclecovers.spectra as spectra
from cyclecovers.cli import main
from cyclecovers.covers import MAX_COVER_SIZE, heisenberg_cover
from cyclecovers.graphs import Graph
from cyclecovers.groups import SIGNS
from cyclecovers.reporting import round_sig, stable_text
from cyclecovers.spectra import MAX_EIGEN_SIZE

from helpers import dense_twisted_spectrum
from oracles import argparse_parser, cocycle_cover, cover_files

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- build

def test_build_edge_list_headers(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus",
                           "--out", str(tmp_path))
    assert code == 0
    total = (tmp_path / "cover_p3_d1_minus.total.edges").read_text()
    assert total.splitlines()[0] == "27 54"
    base = (tmp_path / "cover_p3_d1_minus.base.edges").read_text()
    assert base.splitlines()[0] == "9 18"
    fibers = (tmp_path / "cover_p3_d1_minus.fibers.txt").read_text()
    assert len(fibers.splitlines()) == 27
    assert str(tmp_path / "cover_p3_d1_minus.total.edges") in out


def test_build_heisenberg_header(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "build", "--heisenberg", "--d", "3", "--out", str(tmp_path))
    assert code == 0
    total = (tmp_path / "heisenberg_d3.total.edges").read_text()
    assert total.splitlines()[0] == "16 24"


def test_build_rejects_even_prime(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", "--p", "2", "--d", "1", "--sign", "plus",
                           "--out", str(tmp_path))
    assert code == 2
    assert "p must be odd for extraspecial covers" in err


def test_build_json_format(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "plus",
                         "--out", str(tmp_path), "--format", "json")
    assert code == 0
    doc = json.loads((tmp_path / "cover_p3_d1_plus.json").read_text())
    assert doc["total"]["n"] == 27
    assert len(doc["total"]["edges"]) == 54
    assert len(doc["fiber_map"]) == 27


def test_build_both_signs(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "both",
                         "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "cover_p3_d1_plus.total.edges").exists()
    assert (tmp_path / "cover_p3_d1_minus.total.edges").exists()


def test_build_holds_no_whole_cover(tmp_path, capsys, monkeypatch):
    # Every graph is held in CSR form through Graph._set; build writes from
    # row functions and makes no graph as large as the cover.
    sizes = []
    set_arrays = Graph._set

    def recorded(self, degrees, indices):
        sizes.append(len(degrees))
        set_arrays(self, degrees, indices)

    monkeypatch.setattr(Graph, "_set", recorded)
    for argv, n in ((("--p", "3", "--d", "2", "--sign", "both"), 3 ** 5),
                    (("--heisenberg", "--d", "8"), 2 ** 9)):
        for fmt in ("edges", "json"):
            code, _, _ = run_cli(capsys, "build", *argv, "--format", fmt, "--out", str(tmp_path))
            assert code == 0
            assert max(sizes, default=0) < n


# sha256 of the files build --heisenberg --d 16 writes, recorded before the
# Heisenberg group moved onto bit ids.
HEISENBERG_D16_DIGESTS = {
    "heisenberg_d16.total.edges":
        "43b1a91df0e963aa8acf9c17d55956642c363e2b407052ba835337191bd7f9ad",
    "heisenberg_d16.base.edges":
        "0e8abac56d7b4cbcc161294945caba4cb93be54b157a4cbbbc755f5e6a74460e",
    "heisenberg_d16.fibers.txt":
        "f81e57e01bdd65d86133b5877462ffe8a91103877ee9fc57e00499bed3ce9933",
}


def test_build_memory_is_a_block_of_rows(tmp_path, capsys):
    # The Heisenberg cover at d = 16 has 131072 vertices of degree 16: its
    # neighbour ids alone would take 16.8 MB if held whole.
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "build", "--heisenberg", "--d", "16", "--out", str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "heisenberg_d16.total.edges").read_text().count("\n") == 1 + 2 ** 16 * 16
    assert peak < 3 * 2 ** 20
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == HEISENBERG_D16_DIGESTS


def test_build_files_roundtrip_to_library_objects(tmp_path, capsys):
    from cyclecovers.covers import build_cover
    from helpers import graph_from_edge_list_text

    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus",
            "--out", str(tmp_path))
    cm = build_cover(3, 1, "minus")
    total = graph_from_edge_list_text(
        (tmp_path / "cover_p3_d1_minus.total.edges").read_text())
    base = graph_from_edge_list_text(
        (tmp_path / "cover_p3_d1_minus.base.edges").read_text())
    assert total == cm.total and base == cm.base
    fibers = tuple(
        int(line.split()[1])
        for line in (tmp_path / "cover_p3_d1_minus.fibers.txt").read_text().splitlines()
    )
    assert fibers == tuple(cm.fiber_map.tolist())


def test_build_out_naming_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "extraspecial_row_cover", _refuse_to_build)
    monkeypatch.setattr(cli, "heisenberg_row_cover", _refuse_to_build)
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(capsys, "build", "--p", "3", "--d", "1", "--out", str(taken))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "output directory" in err


@pytest.mark.parametrize("fmt,name", [("edges", "heisenberg_d2.total.edges"),
                                      ("json", "heisenberg_d2.json")])
def test_build_write_failure_is_a_usage_error(fmt, name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    code, out, err = run_cli(capsys, "build", "--heisenberg", "--d", "2", "--format", fmt,
                             "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path / name}:")


def test_build_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus", "--out", str(out1))
    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus", "--out", str(out2))
    for name in ("cover_p3_d1_minus.total.edges", "cover_p3_d1_minus.base.edges",
                 "cover_p3_d1_minus.fibers.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of every file these builds write, recorded before group elements
# became tuples and multiplication table lookups (the (3, 2) entry from the
# Cayley build, before build wrote cocycle lifts); a change to the element
# order, the edge order or the writers shows up here.
BUILD_DIGESTS = {
    ("--p", "3", "--d", "2", "--sign", "both"): {
        "cover_p3_d2_plus.total.edges":
            "b35c7310e1ef518c640c62ae10c4ded480fc02f316402c6a93c3beee25dfd5f7",
        "cover_p3_d2_plus.base.edges":
            "490337576983fb7fa26a222c41d769b483c71db3d8c412444de6b36920d201c6",
        "cover_p3_d2_plus.fibers.txt":
            "af11701cd0275c660adc1ad0c254c3cc45796d9b002c2629a2f25f5bcc692530",
        "cover_p3_d2_minus.total.edges":
            "ef099fe78b177ec5d0abaa3bbb3938d182a97d36603c49f39d3f6b24540f6618",
        "cover_p3_d2_minus.base.edges":
            "490337576983fb7fa26a222c41d769b483c71db3d8c412444de6b36920d201c6",
        "cover_p3_d2_minus.fibers.txt":
            "af11701cd0275c660adc1ad0c254c3cc45796d9b002c2629a2f25f5bcc692530",
    },
    ("--p", "3", "--d", "1", "--sign", "both"): {
        "cover_p3_d1_plus.total.edges":
            "e69a31b9f2c9aefbbf24abe8c0965071c94c544fd80753f59ebde5d9e648b26f",
        "cover_p3_d1_plus.base.edges":
            "dec2673a596945159aa37e62043bcf9aca76eff2b6a690cedd167cdfb08ed75a",
        "cover_p3_d1_plus.fibers.txt":
            "c0524fc67158046974e0e64a5f87fa7a9232227e338189998d7636df100c9762",
        "cover_p3_d1_minus.total.edges":
            "4bf66663f1009a572c900c2448a7c8b9dc67d2b545cb36f72a21c33057dc7da2",
        "cover_p3_d1_minus.base.edges":
            "dec2673a596945159aa37e62043bcf9aca76eff2b6a690cedd167cdfb08ed75a",
        "cover_p3_d1_minus.fibers.txt":
            "c0524fc67158046974e0e64a5f87fa7a9232227e338189998d7636df100c9762",
    },
    ("--p", "5", "--d", "1", "--sign", "minus", "--format", "json"): {
        "cover_p5_d1_minus.json":
            "4c4ecf14b3476a0b92d0296585ae20764bb92fa2c919932b10567db1895cddcc",
    },
    ("--heisenberg", "--d", "4"): {
        "heisenberg_d4.total.edges":
            "4b8b83e298f2ba0592355dff3c82d18b2e41159260b4c92a8223c7f9781c640b",
        "heisenberg_d4.base.edges":
            "257909609e2f80386f8ad65caedc2b4bfc3ac2bcf037e2ed46c74cca3e5e1819",
        "heisenberg_d4.fibers.txt":
            "5c30ba68ca2559343636e53c829fbf9d971399555a68c2496c3759f8f0f1deba",
    },
    # The benchmark's recorded digests (perfbench/recorded.json).
    ("--p", "7", "--d", "2", "--sign", "plus", "--format", "json"): {
        "cover_p7_d2_plus.json":
            "3e9db31eabdb5e264947006c24cbdf9dc8ec842501fee90c47a2037a13d95861",
    },
    ("--heisenberg", "--d", "12"): {
        "heisenberg_d12.total.edges":
            "bf4d6808b758c2320e9f3ba2594c516f9de64263687f968cf0078bd94c7a9950",
        "heisenberg_d12.base.edges":
            "4fc006fbebf0e59ca28d0889b92ec9eb8cf5b46312708a53183a6d31404d0811",
        "heisenberg_d12.fibers.txt":
            "7d9c6c12d654392262cb92a1724e5e8419c8a3477e55b3f5cc3187f48fcb7b39",
    },
    ("--p", "7", "--d", "2", "--sign", "minus"): {
        "cover_p7_d2_minus.total.edges":
            "a20921a04682449ba471f2bbd256ed7d9f7ecffe0dd8b691cc1014a7c2b6160c",
        "cover_p7_d2_minus.base.edges":
            "a87eb40855330a464e067e62e6a2162a7a3acc5006d482d953856f8ea9fba484",
        "cover_p7_d2_minus.fibers.txt":
            "ed580703b1f23df732001456a85b4e02041041fa82937baee5ef43fca81e764f",
    },
    ("--p", "3", "--d", "3", "--sign", "both"): {
        "cover_p3_d3_plus.total.edges":
            "b6232493f748442b0a628327c7ddf140357ebe81ced05aa23953eae996ce6f19",
        "cover_p3_d3_plus.base.edges":
            "a7fc4f0f711a197a74c6248ac85f885d87c65d147fe4e835fdb8202afb47610a",
        "cover_p3_d3_plus.fibers.txt":
            "6ab726e3a43aa970e453366a98f92328248aa34dbb5e6b5d8beeb81a7c0e4b76",
        "cover_p3_d3_minus.total.edges":
            "bfb2ea397dd6a68bf8ff46aecd6196ff6446fe4c0f630ec4d59c4f75e8257862",
        "cover_p3_d3_minus.base.edges":
            "a7fc4f0f711a197a74c6248ac85f885d87c65d147fe4e835fdb8202afb47610a",
        "cover_p3_d3_minus.fibers.txt":
            "6ab726e3a43aa970e453366a98f92328248aa34dbb5e6b5d8beeb81a7c0e4b76",
    },
    ("--p", "5", "--d", "2", "--sign", "both"): {
        "cover_p5_d2_plus.total.edges":
            "482d7d63c05edf8b9615daaa64503c094b1e0f9b362496ca319bf5a6cad48318",
        "cover_p5_d2_plus.base.edges":
            "e477a184272902398b2577d7d86dfe08226a7dd11a8ca06e1ff5033c59ace773",
        "cover_p5_d2_plus.fibers.txt":
            "5f329eed47008f65082074b145d32883c54bd814d4be48989073269e2d4349d8",
        "cover_p5_d2_minus.total.edges":
            "d2ea72b849f95d8fce51f88020788496e1b3616f5d550e30c37e9b7551a4da14",
        "cover_p5_d2_minus.base.edges":
            "e477a184272902398b2577d7d86dfe08226a7dd11a8ca06e1ff5033c59ace773",
        "cover_p5_d2_minus.fibers.txt":
            "5f329eed47008f65082074b145d32883c54bd814d4be48989073269e2d4349d8",
    },
}


@pytest.mark.parametrize("argv", list(BUILD_DIGESTS), ids=" ".join)
def test_build_bytes_match_recorded_digests(argv, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "build", *argv, "--out", str(tmp_path))
    assert code == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == BUILD_DIGESTS[argv]


def test_build_makes_no_group_products(tmp_path, capsys, monkeypatch):
    # build writes the extraspecial covers as cocycle lifts.
    def refuse(*args):
        raise AssertionError("build made a group product")

    monkeypatch.setattr(groups.ExtraspecialGroup, "mul", refuse)
    argv = ("--p", "3", "--d", "2", "--sign", "both")
    code, _, _ = run_cli(capsys, "build", *argv, "--out", str(tmp_path))
    assert code == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == BUILD_DIGESTS[argv]


@pytest.mark.parametrize("argv", [("--p", "13", "--d", "3"), ("--heisenberg", "--d", "19")],
                         ids=" ".join)
def test_build_refused_for_size_leaves_no_directory(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "extraspecial_row_cover", _refuse_to_build)
    monkeypatch.setattr(cli, "heisenberg_row_cover", _refuse_to_build)
    out_dir = tmp_path / "new"
    code, out, err = run_cli(capsys, "build", *argv, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == f"error: cover would exceed {MAX_COVER_SIZE} vertices\n"
    assert not out_dir.exists()


# Every (p, d) whose cover has at most 3125 vertices, and the Heisenberg
# covers up to d = 12: build's streamed files against the files of the whole
# graphs.
STREAMED_BUILDS = ([(("--p", str(p), "--d", str(d), "--sign", sign), partial(cocycle_cover, p, d, sign),
                     f"cover_p{p}_d{d}_{sign}")
                    for p, d in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1))
                    for sign in SIGNS]
                   + [(("--heisenberg", "--d", str(d)), partial(heisenberg_cover, d),
                       f"heisenberg_d{d}") for d in range(1, 13)])


@pytest.mark.parametrize("fmt", ["edges", "json"])
@pytest.mark.parametrize("argv,whole,stem", STREAMED_BUILDS, ids=[" ".join(b[0]) for b in STREAMED_BUILDS])
def test_build_streams_the_bytes_of_the_whole_graphs(argv, whole, stem, fmt, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "build", *argv, "--format", fmt, "--out", str(tmp_path))
    assert code == 0
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written == cover_files(whole(), stem, fmt)


# ---------------------------------------------------------------- verify

def test_verify_both_signs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--d", "1", "--sign", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    by_sign = {c["construction"]["sign"]: c for c in doc["constructions"]}
    assert by_sign["plus"]["fold"] == 3
    assert by_sign["minus"]["fold"] == 3
    assert by_sign["plus"]["four_cycle_free"] is True
    assert by_sign["minus"]["four_cycle_free"] is True
    assert by_sign["plus"]["p_cycle_present"] is True
    assert by_sign["minus"]["p_cycle_present"] is False


def test_verify_builds_each_group_once(capsys, monkeypatch):
    from cyclecovers import groups

    built = []
    init = groups.ExtraspecialGroup.__init__

    def counting_init(self, p, d, sign):
        built.append((p, d, sign))
        init(self, p, d, sign)

    monkeypatch.setattr(groups.ExtraspecialGroup, "__init__", counting_init)
    monkeypatch.setattr(groups, "_shared_groups", weakref.WeakValueDictionary())
    code, _, _ = run_cli(capsys, "verify", "--p", "3", "--d", "1", "--sign", "both")
    assert code == 0
    assert built == [(3, 1, "plus"), (3, 1, "minus")]


def test_verify_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "verify", "--heisenberg", "--d", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["constructions"][0]["fold"] == 2
    assert doc["constructions"][0]["four_cycle_free"] is True


def test_verify_girth_reported(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--d", "1", "--sign", "minus",
                           "--girth")
    assert code == 0
    doc = json.loads(out)
    assert doc["constructions"][0]["girth"] == 5


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--p", "3", "--d", "1", "--sign", "both")
    _, out2, _ = run_cli(capsys, "verify", "--p", "3", "--d", "1", "--sign", "both")
    assert out1 == out2


# ---------------------------------------------------------------- bound

def test_bound_dims2_best_row(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "3", "--dims", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["best"]["3"]["size"] == 4
    assert doc["best"]["3"]["sign"] == "minus"


def test_bound_untwisted_degenerates(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "3", "--dims", "2", "--twist", "0",
                           "--sign", "plus")
    assert code == 0
    doc = json.loads(out)
    # Only the full graph reaches the base degree; smaller sizes stay trivial.
    assert doc["best"]["4"]["size"] == 9
    assert doc["best"].get("3", {"size": 9})["size"] == 9
    assert doc["best"]["1"]["size"] < 9


@pytest.mark.parametrize("argv", [
    ("--p", "3", "--dims", "3"),
    ("--p", "3", "--dims", "4", "--ranking", "eigenvalue"),
    ("--p", "5", "--dims", "2", "--twist", "0"),
    ("--p", "5", "--dims", "2"),
], ids=" ".join)
def test_bound_best_tables_are_the_first_least_sizes(argv, capsys):
    code, out, _ = run_cli(capsys, "bound", *argv)
    assert code == 0
    doc = json.loads(out)
    pairs = doc["per_pair"]
    tables = [(doc["best"], pairs)] + [
        (best, [pair for pair in pairs if pair["sign"] == sign])
        for sign, best in doc["per_sign_best"].items()]
    for table, chosen in tables:
        found = [pair["minimal_size_by_degree"] for pair in chosen]
        degrees = {t for minimal in found for t in minimal}
        # min keeps the first of equal sizes, in per_pair order.
        assert table == {t: min((minimal[t] for minimal in found if t in minimal),
                                key=lambda entry: entry["size"]) for t in degrees}


def _assert_close(got, want):
    """got has want's keys, list lengths and values, floats within 1e-9."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            _assert_close(x, y)
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-9
    else:
        assert got == want


@pytest.mark.parametrize("ranking", ["magnitude", "eigenvalue"])
@pytest.mark.parametrize("twist", [(), ("--twist", "0")], ids=["all", "0"])
@pytest.mark.parametrize("p, dims", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1),
                                     (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (11, 1),
                                     (11, 2), (13, 1), (13, 2)])
def test_bound_block_reports_match_the_dense_reports(p, dims, twist, ranking, capsys,
                                                     monkeypatch):
    argv = ("bound", "--p", str(p), "--dims", str(dims), "--ranking", ranking) + twist
    code, out, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "twisted_spectra", lambda p, dims, sign, twists: (
        dense_twisted_spectrum(p, dims, sign, k) for k in twists))
    dense_code, dense_out, _ = run_cli(capsys, *argv)
    assert code == dense_code == 0
    _assert_close(json.loads(out), json.loads(dense_out))


def test_bound_odd_dims(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "3", "--dims", "1", "--sign", "minus")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3


def test_bound_rejects_oversize(capsys):
    code, _, err = run_cli(capsys, "bound", "--p", "3", "--dims", "7")
    assert code == 2
    assert "eigensolver limit" in err


def test_bound_rejects_bad_twist(capsys):
    code, _, _ = run_cli(capsys, "bound", "--p", "3", "--dims", "2", "--twist", "5")
    assert code == 2


# ---------------------------------------------------------------- spectrum / gain / convolve

def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--p", "3", "--d", "1", "--sign", "minus")
    assert code == 0
    doc = json.loads(out)
    block = doc["constructions"][0]
    assert block["decomposition_ok"] is True
    assert block["cover"]["n"] == 27
    assert len(block["twists"]) == 3


def test_spectrum_both_signs(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--p", "3", "--d", "1", "--sign", "both")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["constructions"]) == 2
    assert all(c["decomposition_ok"] for c in doc["constructions"])


def test_spectrum_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--heisenberg", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposition_ok"] is True


def test_spectrum_heisenberg_prints_exact_values_to_12_digits(capsys):
    # Q_7 has eigenvalues 7 - 2j with multiplicity C(7, j); its signing has
    # +-sqrt(7), each 64 times. Every printed eigenvalue must be the exact
    # value rounded to the 12 significant digits stable_text keeps.
    d = 7
    code, out, _ = run_cli(capsys, "spectrum", "--heisenberg", "--d", str(d))
    assert code == 0
    doc = json.loads(out)
    cube = sorted(round_sig(float(d - 2 * j)) for j in range(d + 1)
                  for _ in range(math.comb(d, j)))
    signing = [round_sig(-math.sqrt(d))] * 64 + [round_sig(math.sqrt(d))] * 64
    base_part, signing_part = doc["parts"]
    assert sorted(base_part["eigenvalues"]) == cube
    assert sorted(signing_part["eigenvalues"]) == signing
    assert sorted(doc["cover"]["eigenvalues"]) == sorted(cube + signing)


def test_spectrum_prints_zero_eigenvalues_as_zero(capsys):
    # Q_2 has eigenvalues 2, 0, 0, -2 and its signing +-sqrt(2); the solver
    # returns the zeros as roundoff, which must print as 0.
    code, out, _ = run_cli(capsys, "spectrum", "--heisenberg", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    base_part = doc["parts"][0]
    assert base_part["eigenvalues"] == [2.0, 0.0, 0.0, -2.0]
    assert [c["value"] for c in base_part["clusters"]] == [2.0, 0.0, -2.0]
    assert doc["cover"]["eigenvalues"][3:5] == [0.0, 0.0]


def test_gain_command(capsys):
    code, out, _ = run_cli(capsys, "gain", "--p", "3", "--d", "1", "--sign", "minus")
    assert code == 0
    doc = json.loads(out)
    block = doc["gains"][0]
    assert block["three_cycle_sums_nonzero"] is True
    assert block["four_cycle_sums_nonzero"] is True
    assert len(block["arcs"]) == 18


def test_convolve_check(capsys):
    code, out, _ = run_cli(capsys, "convolve-check", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"]["lift_intertwining"]["center_order"] == 2


# sha256 of the stdout of these commands. The gain and convolve-check
# digests were recorded before convolution moved onto group tables and gain
# began summing cycles from vertex 0 alone; the bound and spectrum digests
# before the gain graph was built from digit arrays, the bound minima were
# derived in one pass and spectrum checked its decomposition in one routine;
# the last five before the gain graph was held in rows. The four extraspecial
# spectrum digests were recorded again when spectrum took its twisted spectra
# from the Stone-von Neumann blocks of spectra.twisted_spectra, as bound does,
# in place of the dense twisted matrices: twist values moved in the 12th
# significant digit at most, and decomposition_max_error by less than 1e-14.
STDOUT_DIGESTS = {
    ("gain", "--p", "3", "--d", "3", "--sign", "both"):
        "52887345a14c0bfef07510c2c9e54f1052ace35c420aec5377cb7548f1f7eb31",
    ("gain", "--p", "5", "--d", "2", "--sign", "both"):
        "0916ffd034cc35f2bf7d4c23df120f01626a9eb03ba59684d05ed042174cc2e7",
    ("convolve-check", "--d", "1"):
        "41681482472a63a90464542edd11b838d1dace8e05a5fc00532d8b2e27a2cd73",
    ("convolve-check", "--d", "2"):
        "a4f1275425794d3eea9142c446aef2b501ff1a9575d82a600ab0c093833f7feb",
    ("convolve-check", "--d", "3"):
        "bd6b9ff96a4e8c80d33d4a2052d2ddf039e2ce0197c138106825fd640c97a76c",
    ("convolve-check", "--d", "4"):
        "195e96c50aefba4a221ff4e5d5ceb534245a8bb284f44655fbb6439e44a58d54",
    ("convolve-check", "--d", "5"):
        "c7f2e0d61d8150eec62f6165ccb2634a5b004d430e1707ce7da15f4780e774c4",
    ("convolve-check", "--d", "6"):
        "d89ecc4068911062aa184528c976022d3324192aebf1869b9261e58bb00fa65c",
    ("convolve-check", "--d", "7"):
        "017c16b804b0219ec2881244997071be766d593e1676458de058a13c284baed6",
    ("convolve-check", "--d", "8"):
        "4636c970d05bad0ac246349368445fd25cdd0912c4b1550f87ef8f7f38686f78",
    ("bound", "--p", "3", "--dims", "4", "--sign", "minus", "--twist", "1"):
        "10cf798fd0cd1b3061ac51e50834a2f6cd03c7d74f8cf29847b20fa16c7609fa",
    ("bound", "--p", "3", "--dims", "3"):
        "7997799e1b611e369962b8355a69fa57a14450726bc90f686ba1628ff18d505d",
    ("spectrum", "--p", "3", "--d", "1", "--sign", "both"):
        "eb65233ef909f14fea51e698c11f1178e0839a7cde1d528c8b8941b570b7fe1d",
    ("spectrum", "--heisenberg", "--d", "5"):
        "02423666da2b7caf2b3c9fceac298f0571ed3e22ec562c22d8c8a88a4497ad1d",
    ("bound", "--p", "3", "--dims", "2", "--ranking", "eigenvalue"):
        "53df8d5653059fbc066f9f0e50101db068d91f37c86b2df92faf6317a6402c25",
    ("bound", "--p", "3", "--dims", "2", "--twist", "0"):
        "97152d037181ad34a9ce028c9f3fa1304648ed7e171776a23b7c1fa6bb7f2f55",
    ("bound", "--p", "5", "--dims", "3", "--sign", "plus", "--twist", "1"):
        "3b76479eb5a6c5f685bdd405968d484f046770374a206d449a37b1213cbbf540",
    ("spectrum", "--p", "3", "--d", "2", "--sign", "minus"):
        "c00094d851f3872fa5df36f156c85d82ea2e8e0d1da47115076ba4175798df5b",
    ("spectrum", "--p", "5", "--d", "1"):
        "c8050a640dc13ce5a40782df8afb83ffde25dab59511bafe4ef1ee369d97b1c5",
    ("bound", "--p", "3", "--dims", "5"):
        "7ecf8e477aa67b2c8e52f220bd0cac0fb1295ba7ba2e1331c6ebdbfe322f96d2",
    ("bound", "--p", "7", "--dims", "3"):
        "ab350e648671f8de1703ab2002dc70484179cb36b584ee65af3bf6e03a0874e8",
    ("bound", "--p", "3", "--dims", "6", "--sign", "minus", "--twist", "1"):
        "dbba267d52b2d60a4f36fe14ad7e574671245843836e4028588a991b2c36e036",
    ("gain", "--p", "7", "--d", "2", "--sign", "minus"):
        "38ae1816df822205b0a887ed7de4f0340d5bccd1af47e7ec63a30177f80f2eb3",
    ("spectrum", "--p", "7", "--d", "1"):
        "b7b4dfe9d8e0e0ab16ef1f4736126787a91ae5410ec79677af01a4f1eb6fb91f",
    ("gain", "--p", "13", "--d", "2", "--sign", "plus"):
        "f5b324127446fe13ff06d06c2d7f5fbe3330fbc11477854699cc5b649b891e6a",
    ("verify", "--p", "3", "--d", "2", "--sign", "both", "--girth"):
        "8f02b9f4e2721f152ca561213bbebbd4a2e49db1f52c388ceea19ab6f6d7816f",
    ("verify", "--p", "5", "--d", "1", "--sign", "minus", "--girth"):
        "352f16f4a8f4dc224193f0bfb712dc2a0461493482e78d7e88524e2fe83490e6",
    ("verify", "--p", "7", "--d", "1", "--sign", "both", "--girth"):
        "213a428b3beff0b2a47f76849cbb1349321c1693c39be18cdc5fd8cffac4cf9f",
    ("verify", "--heisenberg", "--d", "8", "--girth"):
        "29e6587eefe292d82c735043fa776461de86d712a16470e6173f890e43fa56fb",
    ("verify", "--p", "5", "--d", "2", "--sign", "minus"):
        "72852b7e1f5304215cf2480b0693a54c334c1612cb1a86b61603d59d9783c0dd",
}


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS), ids=" ".join)
def test_stdout_bytes_match_recorded_digests(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


class _Reached(Exception):
    pass


@pytest.mark.parametrize("name", ["_gain_graph_for_dims", "gain_from_cocycle", "twisted_adjacency"])
def test_bound_builds_no_gain_graph_and_no_dense_matrix(name, capsys, monkeypatch):
    def reached(*args):
        raise _Reached(name)

    for module in (cli, gains, spectra):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, reached)
    for argv in (("bound", "--p", "3", "--dims", "4", "--sign", "minus", "--twist", "1"),
                 ("bound", "--p", "3", "--dims", "2", "--twist", "0"),
                 ("bound", "--p", "3", "--dims", "3"),
                 ("bound", "--p", "7", "--dims", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


def test_spectrum_builds_no_cayley_cover(capsys, monkeypatch):
    # spectrum builds the extraspecial cover from its rows, with no group
    # product, and keeps every recorded digest.
    def reached(*args):
        raise _Reached("Cayley build")

    monkeypatch.setattr(cli, "build_cover", reached)
    monkeypatch.setattr(groups.ExtraspecialGroup, "mul", reached)
    argvs = [argv for argv in STDOUT_DIGESTS if argv[0] == "spectrum"]
    assert len(argvs) == 5
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


@pytest.mark.parametrize("name", ["gain_from_cocycle", "twisted_adjacency"])
def test_spectrum_builds_no_gain_graph_and_no_dense_matrix(name, capsys, monkeypatch):
    # spectrum takes its twisted spectra from twisted_spectra's blocks.
    def reached(*args):
        raise _Reached(name)

    for module in (cli, gains, spectra):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, reached)
    for argv in [argv for argv in STDOUT_DIGESTS if argv[0] == "spectrum"]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]


@pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)])
def test_spectrum_twists_are_the_spectra_that_bound_ranks(p, d, capsys):
    # Every (p, d) within spectrum's eigensolver cap. Each twist report
    # spectrum prints is that of twisted_spectra, and bound --ranking
    # eigenvalue prints, for the same sign and twist, its top eigenvalue as
    # largest_bound and, for each degree, the (n - size + 1)-th largest as
    # the bound. Before, spectrum solved the dense twisted matrices, whose
    # digits differed from the blocks' at p = 11.
    code, out, _ = run_cli(capsys, "spectrum", "--p", str(p), "--d", str(d))
    assert code == 0
    constructions = json.loads(out)["constructions"]
    pairs = {}
    for twist in ("0", "all"):
        code, out, _ = run_cli(capsys, "bound", "--p", str(p), "--dims", str(2 * d),
                               "--ranking", "eigenvalue", "--twist", twist)
        assert code == 0
        pairs.update(((pair["sign"], pair["twist"]), pair) for pair in json.loads(out)["per_pair"])
    assert len(pairs) == 2 * p
    for construction in constructions:
        sign = construction["construction"]["sign"]
        assert [t["twist"] for t in construction["twists"]] == list(range(p))
        for twist in construction["twists"]:
            k = twist["twist"]
            block = next(spectra.twisted_spectra(p, 2 * d, sign, [k]))
            source = f"twist k={k} sign={sign}"
            assert twist["report"] == json.loads(stable_text(block._replace(source=source).to_json_dict()))
            values = twist["report"]["eigenvalues"]
            pair = pairs[sign, k]
            assert pair["largest_bound"] == values[0]
            for entry in pair["minimal_size_by_degree"].values():
                assert entry["bound"] == values[len(values) - entry["size"]]


def _one_thread_stdout(argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecovers", *argv], capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize("argv", [argv for argv in STDOUT_DIGESTS
                                  if argv[0] in ("bound", "convolve-check")], ids=" ".join)
def test_bound_and_convolve_check_digests_hold_on_one_thread(argv):
    # The digests were recorded on two BLAS threads (tests/conftest.py);
    # these reports print the same bytes on one.
    assert hashlib.sha256(_one_thread_stdout(argv).encode()).hexdigest() == STDOUT_DIGESTS[argv]


@pytest.mark.parametrize("argv", [argv for argv in STDOUT_DIGESTS
                                  if argv[0] == "spectrum" and "--heisenberg" not in argv],
                         ids=" ".join)
def test_spectrum_twists_hold_on_one_thread(argv, capsys):
    # The twist sections print the same bytes on one BLAS thread as on two;
    # the dense solve of the whole cover, its eigenvalues and
    # decomposition_max_error, need not.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    two = [c["twists"] for c in json.loads(out)["constructions"]]
    one = [c["twists"] for c in json.loads(_one_thread_stdout(argv))["constructions"]]
    assert stable_text(one) == stable_text(two)


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "bound", "--p", "3")[0] == 2
    assert run_cli(capsys, "convolve-check")[0] == 2


def _assert_usage_error(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecovers", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_over_size_cap_exits_2():
    _assert_usage_error("verify", "--p", "13", "--d", "3")


@pytest.mark.parametrize("argv", [
    ("bound", "--p", "3", "--dims", "10000"),
    ("verify", "--p", "13", "--d", "30000000"),
    ("verify", "--heisenberg", "--d", "3000000000"),
    ("gain", "--p", "3", "--d", str(10 ** 12)),
], ids=" ".join)
def test_huge_exponents_exit_2_within_10_s(argv):
    # The size checks compare exponents and never form the power.
    _assert_usage_error(*argv)


def test_gain_rejects_d0():
    _assert_usage_error("gain", "--p", "3", "--d", "0")


def test_spectrum_rejects_d0():
    _assert_usage_error("spectrum", "--p", "3", "--d", "0")


def _refuse_to_build(*args):
    raise AssertionError("built a cover that the size check must refuse")


def test_spectrum_size_checked_before_build(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_cover", _refuse_to_build)
    code, _, err = run_cli(capsys, "spectrum", "--p", "3", "--d", "3")
    assert code == 2
    assert "eigensolver" in err


def test_heisenberg_size_checked_before_build(capsys, monkeypatch):
    # 2**20 vertices is above MAX_COVER_SIZE.
    monkeypatch.setattr(cli, "heisenberg_cover", _refuse_to_build)
    monkeypatch.setattr(cli, "heisenberg_row_cover", _refuse_to_build)
    for command in ("build", "verify"):
        code, out, err = run_cli(capsys, command, "--heisenberg", "--d", "19")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exceed" in err


def test_gain_size_checked_before_build(capsys, monkeypatch):
    # C_13^6 has 13**6 vertices, above MAX_COVER_SIZE.
    monkeypatch.setattr(cli, "gain_from_cocycle", _refuse_to_build)
    code, out, err = run_cli(capsys, "gain", "--p", "13", "--d", "3", "--sign", "minus")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceed" in err


def test_spectrum_heisenberg_size_checked_before_build(capsys, monkeypatch):
    # 2**11 vertices is above MAX_EIGEN_SIZE.
    monkeypatch.setattr(cli, "heisenberg_cover", _refuse_to_build)
    code, out, err = run_cli(capsys, "spectrum", "--heisenberg", "--d", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "eigensolver" in err


@pytest.mark.parametrize("command", ["build", "verify", "spectrum"])
def test_heisenberg_rejects_p(command, tmp_path, capsys):
    out_args = ("--out", str(tmp_path)) if command == "build" else ()
    code, out, err = run_cli(capsys, command, "--heisenberg", "--p", "3", "--d", "2", *out_args)
    assert code == 2
    assert out == ""
    assert err == "error: --heisenberg does not take --p\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--heisenberg", "--d", "3", "--sign", "plus"),
    ("spectrum", "--heisenberg", "--d", "2", "--sign", "minus"),
    ("build", "--heisenberg", "--d", "2", "--sign", "plus"),
    ("verify", "--heisenberg", "--d", "1", "--sign", "both"),
], ids=" ".join)
def test_heisenberg_rejects_sign(argv, tmp_path):
    out = tmp_path / "out"
    _assert_usage_error(*argv, *(("--out", str(out)) if argv[0] == "build" else ()))
    assert not out.exists()


ODD_PRIMES = (3, 5, 7, 11, 13)
COMMANDS = ("build", "verify", "spectrum", "gain", "bound")
HEISENBERG_COMMANDS = ("build", "verify", "spectrum")
# Per command: the size cap and the vertex count it is checked against, as a
# function of p and the --d (--dims for bound) value.
SIZE_CHECKS = {
    "build": (MAX_COVER_SIZE, lambda p, d: p ** (1 + 2 * d)),
    "verify": (MAX_COVER_SIZE, lambda p, d: p ** (1 + 2 * d)),
    "spectrum": (MAX_EIGEN_SIZE, lambda p, d: p ** (1 + 2 * d)),
    "gain": (MAX_COVER_SIZE, lambda p, d: p ** (2 * d)),
    "bound": (MAX_EIGEN_SIZE, lambda p, dims: p ** dims),
}
HEISENBERG_CAPS = {"build": MAX_COVER_SIZE, "verify": MAX_COVER_SIZE, "spectrum": MAX_EIGEN_SIZE}


def _first_over(cap, size):
    n = 1
    while size(n) <= cap:
        n += 1
    return n


# How far past the first size over the cap: a step or two, or an exponent
# whose power no check may form.
_EXCESS = st.one_of(st.integers(0, 3), st.integers(4, 10 ** 12))


@st.composite
def out_of_range_argv(draw):
    """argv with one parameter out of range: p, d or dims, a size cap, or
    --heisenberg with --p."""
    kind = draw(st.sampled_from(("p", "d", "size", "heisenberg_d", "heisenberg_size",
                                 "heisenberg_p")))
    if kind.startswith("heisenberg"):
        command = draw(st.sampled_from(HEISENBERG_COMMANDS))
        if kind == "heisenberg_d":
            d = draw(st.integers(-5, 0))
        elif kind == "heisenberg_size":
            cap = HEISENBERG_CAPS[command]
            d = _first_over(cap, lambda d: 2 ** (d + 1)) + draw(_EXCESS)
        else:
            d = draw(st.integers(-3, 25))
        argv = [command, "--heisenberg", f"--d={d}"]
        if kind == "heisenberg_p":
            argv.append(f"--p={draw(st.integers(-20, 20))}")
        return argv
    command = draw(st.sampled_from(COMMANDS))
    if kind == "p":
        p = draw(st.integers(-20, 20).filter(lambda p: p not in ODD_PRIMES))
        n = draw(st.integers(1, 3))
    elif kind == "d":
        p = draw(st.sampled_from(ODD_PRIMES))
        n = draw(st.integers(-5, 0))
    else:
        p = draw(st.sampled_from(ODD_PRIMES))
        cap, size = SIZE_CHECKS[command]
        n = _first_over(cap, lambda n: size(p, n)) + draw(_EXCESS)
    size_flag = "--dims" if command == "bound" else "--d"
    sign = draw(st.sampled_from(("plus", "minus", "both")))
    return [command, f"--p={p}", f"{size_flag}={n}", f"--sign={sign}"]


@settings(max_examples=200, deadline=None)
@given(out_of_range_argv())
def test_out_of_range_input_exits_2_before_any_build(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, pytest.MonkeyPatch.context() as mp:
        for module, name in ((covers, "extraspecial_group"), (cli, "heisenberg_cover"),
                             (cli, "extraspecial_group"), (cli, "gain_from_cocycle"),
                             (cli, "heisenberg_row_cover"), (cli, "extraspecial_row_cover")):
            mp.setattr(module, name, _refuse_to_build)
        if argv[0] == "build":
            argv = argv + ["--out", out_dir]
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    assert code == 2, argv
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("error:")


def test_module_entry_point(capsys):
    # The process that imports cyclecovers.cli (and so freezes the heap)
    # prints the bytes that main prints in process.
    argv = ("verify", "--p", "3", "--d", "1", "--sign", "minus", "--girth")
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecovers", *argv],
        capture_output=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["passed"] is True
    assert proc.stdout == run_cli(capsys, *argv)[1].encode()


@pytest.mark.parametrize("module,frozen", [("cyclecovers", False), ("cyclecovers.cli", True)])
def test_only_the_cli_freezes_the_heap(module, frozen):
    proc = subprocess.run(
        [sys.executable, "-c", f"import gc, {module}; print(gc.get_freeze_count())"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert proc.returncode == 0
    assert (int(proc.stdout) > 0) is frozen


def test_the_cli_imports_no_dataclasses():
    # numpy does not import dataclasses, so only a record of ours could.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cyclecovers.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("verify", "--p", "3", "--d", "1", "--sign", "minus"),  # 1.2 kB, less than a buffer
    ("gain", "--p", "7", "--d", "2", "--sign", "plus"),  # 0.6 MB, many buffers
    ("--help",),  # printed by argparse inside parse_args
    ("build", "--help"),
], ids=" ".join)
def test_stdout_write_failure_exits_2(argv, unbuffered):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cyclecovers", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_closed_stdout_exits_2():
    proc = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" -m cyclecovers verify --p 3 --d 1 --sign minus >&-',
         sys.executable],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: it is closed\n"


# sha256 of the --help text of the tool and of each command. The text comes
# from cli.COMMANDS; a change to an option, its help or its default moves it.
HELP_DIGESTS = {
    ("--help",): "eb4a4d9fa6a3f1a5eae40592d9bb4b1ec39f8f2d1eb26f3748693bf0df9fd4f3",
    ("build", "--help"): "3987325c8bedcd7b6c9a54f90b18202ffe8f605d905b6af05eef076b9e7bd4a1",
    ("verify", "--help"): "a724e880b0613796730f455427228c3b294536a502e1cf0910338bf1fe672215",
    ("bound", "--help"): "1889208639d0e63a28d88511686f8d2a719987b4241232e796b84d93dcbea922",
    ("spectrum", "--help"): "9583a4182136366840d81e003fa22b60d785e18d330cd1a7cbc050ad2e7d4766",
    ("gain", "--help"): "0408a4f17d24232485d7c4dad93e0ec4dafbb1b11815a84c71002f6a83cb7f9f",
    ("convolve-check", "--help"): "7a9ab0f9ac8537e2adcce0d41842e54fe3e155ed340b2d316750acbf01843f37",
}


@pytest.mark.parametrize("argv", list(HELP_DIGESTS), ids=" ".join)
def test_help_to_a_working_stdout_exits_0(argv, capsys):
    proc = subprocess.run([sys.executable, "-m", "cyclecovers", *argv], capture_output=True,
                          text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(capsys, *argv) == (0, proc.stdout, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == HELP_DIGESTS[argv]
    usage = proc.stdout.splitlines()[0]
    assert usage.startswith(" ".join(("usage: cyclecovers", *argv[:-1], "[-h]")))
    # It names every command, or every option with its choices and default.
    if argv == ("--help",):
        named = list(cli.COMMANDS)
    else:
        named = []
        for flag, kwargs in cli.COMMANDS[argv[0]][1]:
            named += [flag, *kwargs.get("choices", ())]
            if "default" in kwargs:
                named.append(f"(default: {kwargs['default']})")
    assert all(word in proc.stdout for word in named)


# Option values for the argv that the oracle test draws: ints, negative
# numbers, each choice, and values neither reads as intended. "--" is not
# among the values after "=": argparse reads --out=-- as the empty list (it
# drops a "--" argument even after "="), where cli reads the text "--".
VALUES = ("3", "5", "1", "0", "-3", "-1", "-.5", "-3.", "x", "", "+3", " 7 ", "3_0", "1.5",
          "plus", "minus", "both", "sideways", "edges", "json", "magnitude", "eigenvalue", "all",
          ".", "a=b", "-", "--x y", "-x y", "-3 4")
# Tokens out of place: positionals, "--", options no command has, and
# option-like text that argparse reads as an argument.
JUNK = ("", "-", "--", "-x", "--nope", "foo", "3 4", "--x y", "-3 4", "---p", "-1e3", "--=3",
        "-p", "-d=3", "--p 3", "--d=3 4", "--x=3 4", "verify")


@st.composite
def command_argv(draw, name):
    """argv of the command: options, exact or as prefixes of at least three
    characters, with a value after them, after "=" or none, values and
    junk. No token asks for help: --h and --he are ambiguous where they
    occur, as prefixes of --heisenberg and --help."""
    options = dict(cli.COMMANDS[name][1]) if name in cli.COMMANDS else {}
    flags = sorted(options) or ["--p", "--d", "--dims", "--sign", "--out"]
    argv = [name]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("pair", "pair", "pair", "pair", "eq", "eq", "flag", "value",
                                     "junk")))
        if kind in ("pair", "eq", "flag"):
            flag = draw(st.sampled_from(flags))
            kwargs = options.get(flag, {})
            good = [str(v) for v in kwargs.get("choices", (3, 5, 1, 2, -3))]
            value = draw(st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(VALUES))
            flag = flag[:draw(st.integers(3, len(flag)))]
            if kind == "eq":
                argv.append(f"{flag}={value}")
            else:
                argv += [flag] if kind == "flag" or "action" in kwargs else [flag, value]
        else:
            argv.append(draw(st.sampled_from(VALUES if kind == "value" else JUNK)))
    return argv


def _argparse_reads(argv):
    """The fields argparse reads from argv, or None if it refuses it."""
    try:
        with redirect_stderr(io.StringIO()):
            return vars(argparse_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


@pytest.mark.parametrize("name", [*cli.COMMANDS, "no command"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_cli_reads_argv_as_argparse_does(name, data):
    if name == "no command":
        name = data.draw(st.sampled_from(("nope", "", "Verify", "--p", "-3", "--")))
    argv = data.draw(command_argv(name))
    expected = _argparse_reads(argv)
    if expected is not None:
        assert vars(cli._parse_args(argv)) == expected
        return
    with pytest.raises(cli.UsageError):
        cli._parse_args(argv)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        assert main(argv) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1


ACCEPTED_FORMS = [
    (("bound", "--p", "3", "--d", "2"), {"p": 3, "dims": 2}),
    (("bound", "--p=3", "--di=2", "--tw", "1", "--ra=eigenvalue"),
     {"p": 3, "dims": 2, "twist": "1", "ranking": "eigenvalue"}),
    (("verify", "--p", "5", "--p", "3", "--hei", "--g"), {"p": 3, "heisenberg": True, "girth": True}),
    (("bound", "--p", "-3", "--dims", "-1"), {"p": -3, "dims": -1}),
    (("build", "--out", "-", "--out", "a b", "--format", "json"), {"out": "a b", "format": "json"}),
    (("build", "--out=--", "--sign=both"), {"out": "--", "sign": "both"}),
    (("build", "--out", "-x y", "--format", "json"), {"out": "-x y", "format": "json"}),
    (("bound", "--twist", "--x y"), {"twist": "--x y"}),
]


@pytest.mark.parametrize("argv, fields", ACCEPTED_FORMS,
                         ids=[" ".join(argv) for argv, _ in ACCEPTED_FORMS])
def test_accepted_argv_forms(argv, fields):
    args = vars(cli._parse_args(list(argv)))
    assert {key: args[key] for key in fields} == fields


def test_a_negative_p_reaches_the_prime_check(capsys):
    assert run_cli(capsys, "bound", "--p", "-3", "--dims", "2") == (
        2, "", f"error: p must be a prime in {cli.SUPPORTED_PRIMES}\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--h"), ("verify", "--he"), ("build", "--he=3"),  # --heisenberg or --help
    ("bound", "--p"), ("bound", "--p", "--dims", "2"), ("bound", "--p", "--", "3"),
    ("build", "--out"), ("bound", "--twist"), ("build", "--out", "-x"),
    ("bound", "--p", "3", "--"), ("verify", "--girth=1"), ("spectrum", "--p", "3", "x"),
    ("build", "--format=--"), ("bound", "--sign", "sideways"), ("bound", "--ranking", "x"),
    ("bound", "--p", "x"), ("bound", "--p=3", "unrecognized"), ("--help=x",),
    ("build", "--help=x"), ("build", "-hx"), ("Bound",), ("--",), (),
], ids=lambda argv: " ".join(argv) or "no argv")
def test_refused_argv_exits_2_with_one_error_line(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_no_run_imports_argparse_gettext_or_locale():
    script = ("import sys\n"
              "from cyclecovers.cli import main\n"
              "assert main(['bound', '--p', '3', '--dims', '2']) == 0\n"
              "assert main(['--help']) == 0\n"
              "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
