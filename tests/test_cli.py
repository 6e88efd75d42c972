import json
import math
import subprocess
import sys
from pathlib import Path

from cyclecovers.cli import main
from cyclecovers.reporting import round_sig

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


def test_build_files_roundtrip_to_library_objects(tmp_path, capsys):
    from cyclecovers.covers import build_cover
    from cyclecovers.graphs import Graph

    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus",
            "--out", str(tmp_path))
    cm = build_cover(3, 1, "minus")
    total = Graph.from_edge_list_text(
        (tmp_path / "cover_p3_d1_minus.total.edges").read_text())
    base = Graph.from_edge_list_text(
        (tmp_path / "cover_p3_d1_minus.base.edges").read_text())
    assert total == cm.total and base == cm.base
    fibers = tuple(
        int(line.split()[1])
        for line in (tmp_path / "cover_p3_d1_minus.fibers.txt").read_text().splitlines()
    )
    assert fibers == cm.fiber_map


def test_build_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus", "--out", str(out1))
    run_cli(capsys, "build", "--p", "3", "--d", "1", "--sign", "minus", "--out", str(out2))
    for name in ("cover_p3_d1_minus.total.edges", "cover_p3_d1_minus.base.edges",
                 "cover_p3_d1_minus.fibers.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "bound", "--p", "3")[0] == 2
    assert run_cli(capsys, "convolve-check")[0] == 2


def _assert_usage_error(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecovers", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_over_size_cap_exits_2():
    _assert_usage_error("verify", "--p", "13", "--d", "3")


def test_gain_rejects_d0():
    _assert_usage_error("gain", "--p", "3", "--d", "0")


def test_spectrum_rejects_d0():
    _assert_usage_error("spectrum", "--p", "3", "--d", "0")


def _refuse_to_build(*args):
    raise AssertionError("built a cover that the size check must refuse")


def test_spectrum_size_checked_before_build(capsys, monkeypatch):
    import cyclecovers.cli as cli

    monkeypatch.setattr(cli, "build_cover", _refuse_to_build)
    code, _, err = run_cli(capsys, "spectrum", "--p", "3", "--d", "3")
    assert code == 2
    assert "eigensolver" in err


def test_heisenberg_size_checked_before_build(capsys, monkeypatch):
    import cyclecovers.covers as covers

    # 2**20 vertices is above MAX_COVER_SIZE.
    monkeypatch.setattr(covers, "HeisenbergGroup", _refuse_to_build)
    for command in ("build", "verify"):
        code, out, err = run_cli(capsys, command, "--heisenberg", "--d", "19")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exceed" in err


def test_gain_size_checked_before_build(capsys, monkeypatch):
    import cyclecovers.cli as cli

    # C_13^6 has 13**6 vertices, above MAX_COVER_SIZE.
    monkeypatch.setattr(cli, "gain_from_cocycle", _refuse_to_build)
    code, out, err = run_cli(capsys, "gain", "--p", "13", "--d", "3", "--sign", "minus")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceed" in err


def test_spectrum_heisenberg_size_checked_before_build(capsys, monkeypatch):
    import cyclecovers.cli as cli

    # 2**11 vertices is above MAX_EIGEN_SIZE.
    monkeypatch.setattr(cli, "heisenberg_cover", _refuse_to_build)
    code, out, err = run_cli(capsys, "spectrum", "--heisenberg", "--d", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "eigensolver" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecovers", "verify", "--heisenberg", "--d", "2"],
        capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
