import ast
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from satkit import hecke_satake as hs
from satkit import lattice_oracle as lo
from satkit import verlinde as vl
from satkit import weyl_rep as wr
from satkit.cli import _json, build_parser, main, run_certification
from satkit.errors import TooLarge
from satkit.finite_field import GF
from satkit.lattice_oracle import clamp_workers
from satkit.root_datum import RootDatum, make_root_datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geom(capsys):
    code, out, err = run(capsys, "geom", "--type", "GL", "--rank", "2",
                         "--mu", "2,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "satkit/1"
    assert payload["dim"] == 2
    assert payload["closure_cells"] == [[1, 1], [2, 0]]
    assert payload["mv_table"][0] == {"lambda": [2, 0], "dim": 2, "count": 1}
    assert "dimension 2" in err


def test_geom_zero(capsys):
    code, out, _ = run(capsys, "geom", "--type", "GL", "--rank", "2",
                       "--mu", "0,0")
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_geom_non_dominant_exits_2(capsys):
    code, _, err = run(capsys, "geom", "--type", "GL", "--rank", "2",
                       "--mu", "0,1")
    assert code == 2
    assert "not dominant" in err


def test_geom_simple_type(capsys):
    code, out, _ = run(capsys, "geom", "--type", "A", "--rank", "1",
                       "--mu", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_parse_error_exits_2(capsys):
    code, _, _ = run(capsys, "geom", "--type", "GL", "--rank", "2",
                     "--mu", "2;0")
    assert code == 2
    code, _, _ = run(capsys, "geom", "--type", "E", "--rank", "8",
                     "--mu", "1,0")
    assert code == 2


def test_qanalog(capsys):
    code, out, _ = run(capsys, "qanalog", "--type", "GL", "--rank", "2",
                       "--mu", "2,0", "--lam", "1,1", "--bk-oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["m_poly"] == [0, 1]
    assert payload["a_poly"] == [1]
    assert payload["bk_poly"] == [0, 1]
    assert payload["agree"] is True


def test_bk_oracle_sizes_its_module_by_block_keys(capsys):
    # 3^15 words of length 15, but 136 = C(3 + 15 - 1, 15) block keys
    code, out, _ = run(capsys, *"qanalog --type GL --rank 3 --mu 15,0,0 "
                                "--lam 5,5,5 --bk-oracle".split())
    assert code == 0
    payload = json.loads(out)
    assert payload["bk_poly"] == payload["m_poly"] == [0] * 15 + [1]
    assert payload["agree"] is True


def test_bk_oracle_over_the_block_key_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(wr, "_BLOCK_KEY_BUDGET", 135)
    wr._explicit_module.cache_clear()
    code, out, err = run(capsys, *"qanalog --type GL --rank 3 --mu 15,0,0 "
                                  "--lam 5,5,5 --bk-oracle".split())
    assert code == 3 and out == ""
    assert err.startswith("satkit: budget exceeded: 136 block keys")
    assert len(err.strip().splitlines()) == 1


def test_qanalog_equal_weights(capsys):
    code, out, _ = run(capsys, "qanalog", "--type", "GL", "--rank", "2",
                       "--mu", "2,0", "--lam", "2,0")
    payload = json.loads(out)
    assert code == 0 and payload["m_poly"] == [1] and payload["a_poly"] == [1]


def test_qanalog_walks_the_orbit_once(capsys, monkeypatch):
    calls = []
    walk = wr.lusztig_q_analog
    monkeypatch.setattr(wr, "lusztig_q_analog",
                        lambda *args: calls.append(args) or walk(*args))
    code, out, _ = run(capsys, "qanalog", "--type", "GL", "--rank", "3",
                       "--mu", "2,1,0", "--lam", "1,1,1")
    payload = json.loads(out)
    assert code == 0 and payload["m_poly"] == [0, 1, 1]
    assert payload["a_poly"] == [1, 1] and len(calls) == 1


def test_qanalog_component_mismatch(capsys):
    code, out, _ = run(capsys, "qanalog", "--type", "GL", "--rank", "2",
                       "--mu", "2,0", "--lam", "1,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["m_poly"] == [] and payload["note"] == "component mismatch"


def test_convolve(capsys):
    code, out, _ = run(capsys, "convolve", "--type", "GL", "--rank", "2",
                       "--lam", "1,0", "--mu", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert {"coweight": [2, 0], "v_low": 0, "coeffs_v": [1]} in payload["terms"]
    assert {"coweight": [1, 1], "v_low": 0, "coeffs_v": [1, 0, 1]} in \
        payload["terms"]


def test_convolve_central(capsys):
    code, out, _ = run(capsys, "convolve", "--type", "GL", "--rank", "2",
                       "--lam", "1,0", "--mu", "1,1")
    payload = json.loads(out)
    assert payload["terms"] == [
        {"coweight": [2, 1], "v_low": 0, "coeffs_v": [1]}]


def test_satake(capsys):
    code, out, _ = run(capsys, "satake", "--type", "GL", "--rank", "2",
                       "--mu", "2,0")
    payload = json.loads(out)
    assert code == 0
    assert {"coweight": [2, 0], "v_low": 2, "coeffs_v": [1]} in payload["terms"]
    assert {"coweight": [1, 1], "v_low": 0, "coeffs_v": [-1]} in \
        payload["terms"]


def test_oracle(capsys, tmp_path):
    prefix = str(tmp_path / "rep")
    code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "2",
                       "--window", "1", "--selftest", "--csv", prefix)
    assert code == 0
    payload = json.loads(out)
    assert sum(r["count"] for r in payload["cells"]) == 15
    assert payload["selftest"] == {"divisor_invariance": True,
                                   "duality": True}
    assert (tmp_path / "rep_cells.csv").exists()


def test_oracle_csv_unwritable_exits_2(capsys, tmp_path):
    prefix = tmp_path / "no_such_dir" / "x"
    code, out, err = run(capsys, "oracle", "--n", "2", "--q", "2",
                         "--window", "1", "--csv", str(prefix))
    assert code == 2 and out == ""
    assert err == f"satkit: {prefix}_cells.csv: No such file or directory\n"


def test_oracle_seed_before_or_after_subcommand(capsys):
    argv = ["oracle", "--n", "2", "--q", "2", "--window", "1", "--selftest"]
    code_before, out_before, _ = run(capsys, "--seed", "5", *argv)
    code_after, out_after, _ = run(capsys, *argv, "--seed", "5")
    assert code_before == code_after == 0
    assert out_before == out_after
    parser = build_parser()
    assert parser.parse_args(["--seed", "5", *argv]).seed == 5
    assert parser.parse_args([*argv, "--seed", "5"]).seed == 5
    assert parser.parse_args(argv).seed == 0


def test_oracle_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("SATKIT_BUDGET", "5")
    code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2",
                       "--window", "1")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("q", ["6", "1", "2000"])
def test_bad_q_is_a_usage_error_under_any_budget(capsys, monkeypatch, q):
    # the field is checked before the budget counts candidate forms at q
    monkeypatch.setenv("SATKIT_BUDGET", "1")
    oracle = run(capsys, "oracle", "--n", "2", "--q", q, "--window", "1")
    certify = run(capsys, "certify", "--n", "2", "--q", q,
                  "--coord-min", "-1", "--coord-max", "1")
    assert oracle == certify and oracle[:2] == (2, "")
    assert oracle[2].startswith("satkit: ") and oracle[2].count("\n") == 1
    assert "budget" not in oracle[2]


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_oracle_bad_budget_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("SATKIT_BUDGET", value)
    code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2",
                       "--window", "1")
    assert code == 2
    assert "SATKIT_BUDGET" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "2", "--q", "2", "--bound", "-1"],
    ["certify", "--n", "2", "--q", "2", "--coord-min", "2", "--coord-max", "-2"],
    ["oracle", "--n", "2", "--q", "2", "--window", "1", "--conv-bound", "-1"],
], ids=["bound_negative", "coord_min_above_max", "conv_bound_negative"])
def test_empty_box_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n,window", [("0", "1"), ("2", "-1"), ("4", "-1"),
                                      ("-3", "1")])
def test_oracle_bad_window_exits_2(capsys, n, window):
    code, out, err = run(capsys, "oracle", "--n", n, "--q", "2",
                         "--window", window)
    assert code == 2
    assert out == ""
    assert err == f"satkit: bad enumeration parameters n={n}, N={window}\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "2", "--q", "1031", "--bound", "0"],
    ["oracle", "--n", "1", "--q", "1031", "--window", "0"],
    # a bad field exits 2 even where the work estimate would also refuse
    ["certify", "--n", "2", "--q", "1031", "--bound", "1"],
], ids=["certify", "oracle", "certify_before_estimate"])
def test_field_too_large_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "q=1031" in err


def test_certify_cli(capsys):
    code, out, _ = run(capsys, "certify", "--n", "2", "--q", "2,3",
                       "--bound", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert len(payload["rows"]) > 0
    assert all(r["match"] for r in payload["rows"])


def test_certify_gl1(capsys):
    code, out, _ = run(capsys, "certify", "--n", "1", "--q", "2",
                       "--bound", "2")
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_certify_mismatch_exits_1(capsys, monkeypatch):
    import satkit.cli as cli_mod

    real = cli_mod.lo.convolution_table

    def corrupted(n, q_list, lo_, hi):
        plan, table = real(n, q_list, lo_, hi)
        return plan, [[[count + 1 for count in counts] for counts in by_entry]
                      for by_entry in table]

    monkeypatch.setattr(cli_mod.lo, "convolution_table", corrupted)
    code, out, _ = run(capsys, "certify", "--n", "2", "--q", "2",
                       "--bound", "0")
    assert code == 1
    assert json.loads(out)["all_match"] is False


def test_oracle_workers_flag(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "2",
                       "--window", "1", "--workers", "2")
    assert code == 0
    assert sum(r["count"] for r in json.loads(out)["cells"]) == 15


def test_import_leaves_out_what_no_request_runs():
    # against the modules the bare interpreter has loaded before it, with
    # -S, as a site hook may load some of them: no record class pulls in
    # dataclasses (and with it inspect), no value fractions (and with it
    # decimal); random, multiprocessing and csv load only for --selftest,
    # --workers > 1 and --csv
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; bare = set(sys.modules); import satkit.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "satkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal",
                         "random", "multiprocessing", "csv"}


@pytest.mark.parametrize("value", ["-3", "0"])
def test_oracle_workers_below_one_exits_2(capsys, value):
    code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2",
                       "--window", "1", "--workers", value)
    assert code == 2
    assert "--workers" in err


def test_clamp_workers():
    assert clamp_workers(10 ** 9, chunks=9, cpus=2) == 2
    assert clamp_workers(10 ** 9, chunks=3, cpus=64) == 3
    assert clamp_workers(1, chunks=9, cpus=2) == 1
    assert clamp_workers(4, chunks=0, cpus=2) == 1


def test_certify_includes_quasi_minuscule_row():
    report = run_certification(2, [2], -2, 2)
    row = next(r for r in report["rows"]
               if r["lambda"] == [1, -1] and r["mu"] == [1, -1]
               and r["nu"] == [0, 0])
    assert row["symbolic"] == row["brute"] == 6
    assert report["all_match"]


def test_verlinde_cli(capsys):
    code, out, _ = run(capsys, "verlinde", "--n", "2", "--g", "1", "--m", "3")
    payload = json.loads(out)
    assert code == 0 and payload["dimension"] == 4
    assert payload["residual"] < 1e-6


def test_verlinde_ade(capsys):
    code, out, _ = run(capsys, "verlinde", "--ade", "E8", "--g", "5")
    assert code == 0 and json.loads(out)["dimension"] == 1
    code, out, _ = run(capsys, "verlinde", "--n", "3", "--g", "2", "--m", "1")
    assert code == 0 and json.loads(out)["dimension"] == 9


def test_verlinde_values_beyond_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    expected = [vl.verlinde_sl(vl.VerlindeQuery(2, 7200, 2)), 2 ** 20000]
    outs = []
    for argv in (["--n", "2", "--g", "7200", "--m", "2"],
                 ["--ade", "A1", "--g", "20000"]):
        code, out, _ = run(capsys, "verlinde", *argv)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        outs.append(out)
    assert all(value > 10 ** 4300 for value in expected)
    sys.set_int_max_str_digits(0)   # to parse the printed values back
    try:
        assert [json.loads(out)["dimension"] for out in outs] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_verlinde_summary_gives_length_of_long_values(capsys):
    # 2**265 has 80 digits and 2**266 has 81
    for argv, summary in [
            (["--ade", "A1", "--g", "265"],
             f"level-one A1, genus 265: {2 ** 265}"),
            (["--ade", "A1", "--g", "266"],
             "level-one A1, genus 266: <81 digits>"),
            (["--n", "3", "--g", "2", "--m", "3"],
             "dim = 166 (residual 0.00e+00)"),
            (["--n", "2", "--g", "7200", "--m", "2"],
             "dim = <4335 digits> (residual 0.00e+00)")]:
        code, _, err = run(capsys, "verlinde", *argv)
        assert code == 0 and err == summary + "\n"


@pytest.mark.parametrize("argv", [["--n", "2", "--g", "200000", "--m", "2"],
                                  ["--n", "2", "--g", "2", "--m", "1412"],
                                  ["--n", "1000", "--g", "2", "--m", "1"]])
def test_verlinde_sum_work_exits_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "verlinde", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "sum work" in err and len(err.strip().splitlines()) == 1


def _csv(*entries):
    return ",".join(map(str, entries))


@pytest.mark.parametrize("argv,message", [
    (["qanalog", "--type", "GL", "--rank", "12", "--mu", _csv(12, *[0] * 11),
      "--lam", _csv(*[1] * 12)], "q-Kostant table"),
    (["qanalog", "--type", "GL", "--rank", "30", "--mu", _csv(30, *[0] * 29),
      "--lam", _csv(*[1] * 30)], "q-Kostant table"),
    (["geom", "--type", "GL", "--rank", "12",
      "--mu", _csv(6, 5, 4, 3, 2, 1, *[0] * 6)], "dim L_mu"),
    (["convolve", "--type", "GL", "--rank", "9", "--lam", _csv(3, 2, 1, *[0] * 6),
      "--mu", _csv(3, 2, 1, *[0] * 6)], "dim L_lam (x) L_mu"),
])
def test_symbolic_work_bound_exits_3(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    "geom --type GL --rank 2 --mu 99999999,0",
    "satake --type GL --rank 2 --mu 99999999,0",
    "convolve --type GL --rank 2 --lam 99999999,0 --mu 1,0",
])
def test_dominant_walk_bound_exits_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "dominant weights" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    "geom --type B --rank 3 --mu 99999999,0,0",
    "satake --type C --rank 3 --mu 99999999,0,0",
])
def test_long_dominant_chain_is_refused_before_the_walk(capsys, monkeypatch,
                                                        argv):
    calls = []
    real = RootDatum.is_dominant
    monkeypatch.setattr(RootDatum, "is_dominant",
                        lambda self, mu: calls.append(mu) or real(self, mu))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (3, "") and len(calls) <= 300
    assert err == ("satkit: budget exceeded: more than 100000 dominant "
                   "weights below mu=[99999999, 0, 0]\n")


def test_cli_imports_nothing_from_finite_field():
    # the oracle's self-test owns its GF(q)[t] matrices
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    imported = []
    for node in ast.walk(ast.parse((src / "satkit" / "cli.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [getattr(node, "module", None) or "",
                         *(alias.name for alias in node.names)]
    assert "errors" in imported
    assert not [name for name in imported if "finite_field" in name]


@pytest.mark.parametrize("argv", [
    "geom --type GL --rank 2 --mu 20000,0",
    "satake --type GL --rank 2 --mu 20000,0",
])
def test_large_gl2_weights_exit_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("satkit: budget exceeded: ")
    assert len(err.strip().splitlines()) == 1


def test_gl2_weights_below_the_ray_bound(capsys):
    code, out, err = run(capsys, *"geom --type GL --rank 2 --mu 1000,0".split())
    assert code == 0 and "501 strata" in err


# sha256 of stdout as recorded at an earlier commit: payloads stay byte-identical
@pytest.mark.parametrize("argv, digest", [
    ("qanalog --type GL --rank 4 --mu 2,1,1,0 --lam 1,1,1,1 --bk-oracle",
     "61acb5f759dcd9d0bd22711a9fd43044bccea9d18e594f6bdb7e3473ec55c8e6"),
    ("qanalog --type GL --rank 4 --mu 2,2,0,0 --lam 1,1,1,1 --bk-oracle",
     "7e07c8c1a40e7c399dcda1acbf207b8d0c061dd53d83b2cab69a4840125dc210"),
    ("qanalog --type GL --rank 3 --mu 3,1,0 --lam 2,1,1 --bk-oracle",
     "26ba5f6d3702134fa2d5af0b5e01744be869151ef8205894a87284e7efdf05bb"),
    ("qanalog --type GL --rank 8 --mu 4,2,1,1,0,0,0,0 --lam 1,1,1,1,1,1,1,1",
     "7e841c3f429dfa4e2b9176b2864ab9fe3eaf45bdbcd32e95e9bd6bcac70e3ecd"),
    ("qanalog --type B --rank 3 --mu 1,0,1 --lam 0,0,0",
     "a53a1d8d01f3995537a679e57458fe970d25425b7b0954ccd9ffd1a04d11695b"),
    ("convolve --type C --rank 4 --lam 1,0,0,0 --mu 1,0,0,0",
     "11a2914be9aa4fca62722f422307d1c4b20291e9134bb73aec5ca77ed0166b4f"),
    ("convolve --type G --rank 2 --lam 1,0 --mu 0,1",
     "11c8622c895b89af99e4d8a06fd795546d892b84ee3256b4b0e9e257684c8a00"),
    ("convolve --type GL --rank 2 --lam 1,-1 --mu 1,-1",
     "05f6bee294935da9b7c68d9856e38a52a0d16b6e7669afce85297bfa8c0e2289"),
    ("satake --type B --rank 4 --mu 1,0,0,0",
     "6fd83b6082b86d70f490814bfc3d13afb777d7c7f39a291ff2ed10b15ba6bb1d"),
    ("geom --type G --rank 2 --mu 2,1",
     "517501d49421b91e01896df32be87666ea3135a439fedcd29458e18081764885"),
    ("certify --n 2 --q 2,3 --coord-min -1 --coord-max 1",
     "9628b581d9454b8cd0806f6bae8d693a00f0f1b645b6acd910f1ca1084f1a8d1"),
    ("oracle --n 2 --q 3 --window 1 --conv-bound 2",
     "18eba6e5bec1449c0103fbbc7fc3eebf4ec7b88703f79fdcae7c4d8457daf6ec"),
    ("certify --n 3 --q 2 --coord-min -1 --coord-max 1",
     "230a7ae310500c42b7931dba57efa8bc6c0dda6951cb38c7b5ae0e24e7a92042"),
    ("certify --n 1 --q 2,3,5 --coord-min -3 --coord-max 3",
     "30e8d50aab757ab6533bb9a6a34b8d98e92f81e673a9f2bceafa15e55da1a5d0"),
    ("oracle --n 2 --q 9 --window 2",
     "441da8b53f0aa7a6ba3eab1819ffdbfa748864e7277e228da0fecec5209b9b81"),
    ("oracle --n 3 --q 5 --window 1",
     "f91558f2db346ad8f7cf2e07e156d6417ea368c1b984ae2ef8debb6899be3d00"),
    ("oracle --n 4 --q 2 --window 1",
     "7c2c84e7a427976a0154178058a6874bb06eada95af14aa92dc91c3674add761"),
])
def test_payload_bytes_are_pinned(argv, digest):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "satkit.cli", *argv.split()],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_verlinde_batch(capsys, tmp_path):
    batch = tmp_path / "queries.jsonl"
    batch.write_text('{"n": 2, "g": 1, "m": 1}\n{"n": 3, "g": 2, "m": 2}\n')
    code, out, _ = run(capsys, "verlinde", "--batch", str(batch))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [l["dimension"] for l in lines] == [2, 45]


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    (b'{"n": 2, "g": 1, "m": 1}\nnot json\n', "line 2: not JSON"),
    (b'{"n": 2, "g": 1, "m": 1}\n\n{"n": 3, "g": 2}\n',
     "line 3: missing key 'm'"),
    (b'{"n": 2, "g": 1, "m": 1.5}\n', "line 1: m must be an integer"),
    (b'\xff\xfe{"n": 2}\n', "cannot decode"),
    (b'[1, 2, 3]\n', "line 1: expected a JSON object"),
    (b'{"n": 2, "g": 1, "m": 1}\n{"n": 1, "g": 1, "m": 1}\n',
     "line 2: n=1 must be >= 2"),
], ids=["missing_file", "not_json", "missing_key", "not_integer",
        "undecodable", "not_an_object", "n_below_2"])
def test_verlinde_batch_bad_input_exits_2(capsys, tmp_path, content, message):
    batch = tmp_path / "queries.jsonl"
    if content is not None:
        batch.write_bytes(content)
    code, out, err = run(capsys, "verlinde", "--batch", str(batch))
    assert code == 2 and out == ""
    assert err.startswith(f"satkit: {batch}") and message in err
    assert len(err.strip().splitlines()) == 1


def test_verlinde_missing_args(capsys):
    code, _, err = run(capsys, "verlinde", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    ("certify --n 2 --q 2,x", "cannot parse q list '2,x'"),
    ("verlinde --ade A2", "--ade requires --g"),
    ("convolve --type GL --rank 2 --lam 0,1 --mu 0,1",
     "lam=(0, 1) is not dominant for GL(2)"),
    ("convolve --type GL --rank 2 --lam 1,0 --mu 0,1",
     "mu=(0, 1) is not dominant for GL(2)"),
    ("satake --type GL --rank 2 --mu 0,1",
     "mu=(0, 1) is not dominant for GL(2)"),
    ("certify --n 0 --q 2", "n=0 must be >= 1"),
    ("certify --n -1 --q 2", "n=-1 must be >= 1"),
    ("geom --type GL --rank 0 --mu 1", "rank=0 must be >= 1"),
    ("geom --type A --rank -1 --mu 1", "rank=-1 must be >= 1"),
    ("qanalog --type GL --rank 2 --mu 1,0 --lam 1",
     "lam=(1,) has length 1, not 2"),
    ("convolve --type GL --rank 2 --lam 1 --mu 1,0",
     "lam=(1,) has length 1, not 2"),
    ("geom --type GL --rank 2 --mu 1", "mu=(1,) has length 1, not 2"),
], ids=["q_list", "ade_without_g", "convolve_lam", "convolve_mu", "satake_mu",
        "certify_n_0", "certify_n_negative", "rank_0", "rank_negative",
        "qanalog_lam_length", "convolve_lam_length", "geom_mu_length"])
def test_bad_argument_is_named(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"satkit: {message}\n")


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--g", "2", "--m", "2", "--batch", "queries.jsonl"],
    ["--ade", "E8", "--g", "5", "--n", "3", "--m", "2"],
], ids=["n_m_with_batch", "n_m_with_ade"])
def test_verlinde_conflicting_modes_exit_2(capsys, tmp_path, monkeypatch,
                                           argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "queries.jsonl").write_text('{"n": 2, "g": 1, "m": 1}\n')
    code, out, err = run(capsys, "verlinde", *argv)
    assert code == 2 and out == ""
    assert err.startswith("satkit: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--n", "2", "--g", "2", "--m", "3"], "not rational"),
    (["--n", "2", "--g", "0", "--m", "2"], "not a positive integer"),
], ids=["irrational", "not_integer"])
def test_verlinde_integrality_failure_exits_1(capsys, monkeypatch, argv,
                                              message):
    # one subset class, {0, 1}, alone is not a whole orbit sum
    monkeypatch.setattr("satkit.verlinde._histograms",
                        lambda n, m: (((0, 1, 0), 1),))
    code, out, err = run(capsys, "verlinde", *argv)
    assert code == 1 and out == ""
    assert err.startswith("satkit: check failed") and message in err


def test_parser_built_once(capsys):
    build_parser.cache_clear()
    run(capsys, "verlinde", "--n", "2", "--g", "1", "--m", "1")
    run(capsys, "verlinde", "--ade", "E8", "--g", "2")
    assert build_parser.cache_info().misses == 1


def test_import_loads_no_mpmath():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, satkit.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "convolve", "--type", "GL", "--rank", "2",
                     "--lam", "1,-1", "--mu", "1,-1")
    _, out2, _ = run(capsys, "convolve", "--type", "GL", "--rank", "2",
                     "--lam", "1,-1", "--mu", "1,-1")
    assert out1 == out2


def test_writer_matches_json_dumps(monkeypatch):
    row = {"lambda": [1, -1], "q": 2, "brute": 3, "match": True}
    shapes = [[], {}, [[], [[1, [2, []]], [-3]]], {"a": {}, "b": [[0], []]},
              -7, 10 ** 60, -(10 ** 60), 0.0, True, False, None,
              "Gr\u00e4ssmann \u2113 \"q\"\n",
              {"rows": [{"match": True, "x": None, "r": 0.0, "s": "\u00e9"}]},
              {1: [2], None: True, 2.5: "x"}, (1, (2, 3)),
              # row-shaped lists: each later row breaks the first row's shape
              [row, {**row, "q": True}, {**row, "match": 1}],
              [row, dict(reversed(row.items())), row],
              [row, {**row, "lambda": []}, {**row, "lambda": [10 ** 5000]}],
              [row, {**row, "q": {"nested": [1, {"deep": False}]}}],
              [row, {**row, "lambda": [True, -1]}, {**row, "lambda": [1.0, -1]},
               {**row, "lambda": (1, -1)}, {**row, "x": 1}, row],
              [{"100%": [], "%s": 0, "%(k)d": False}, {"100%": [0], "%s": 1,
                                                       "%(k)d": True}],
              [{"q": 1}, {"q": 2}, {1: 3}, {"q": "4"}, 5, [6], None]]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)   # the 5,000-digit int, as main lifts it
    try:
        for x in shapes:
            assert "".join(_json(x)) == json.dumps(x, indent=2), x
    finally:
        sys.set_int_max_str_digits(limit)
    # the chunks of every pinned payload, joined, give the pinned bytes
    import satkit.cli as cli_mod
    payloads = []
    monkeypatch.setattr(cli_mod, "_emit",
                        lambda payload, summary="": payloads.append(payload))
    for argv, digest in test_payload_bytes_are_pinned.pytestmark[0].args[1]:
        assert main(argv.split()) == 0
        text = "".join(_json(payloads.pop())) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [
    "certify --n 2 --q 2,3,4,5,7 --coord-min -2 --coord-max 2",
    "geom --type A --rank 5 --mu 2,1,0,1,2",
    "verlinde --batch {queries}",   # 1,500 lines of 80 bytes
])
def test_closed_stdout_ends_cleanly(argv, tmp_path):
    # the reader leaves after 100 bytes of a payload larger than a pipe holds
    queries = tmp_path / "queries.jsonl"
    queries.write_text('{"n": 2, "g": 1, "m": 1}\n' * 1500)
    argv = argv.format(queries=queries).split()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen([sys.executable, "-m", "satkit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "Error" not in err, err


def test_only_the_guarded_writer_touches_stdout():
    # a write outside _write would miss its BrokenPipeError handler, and a
    # print without a file argument writes to stdout too
    import satkit.cli as cli_mod
    source = inspect.getsource(cli_mod)
    body = inspect.getsource(cli_mod._write)
    assert source.count("sys.stdout") == body.count("sys.stdout") > 0
    prints = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and getattr(node.func, "id", "")
              == "print"]
    assert prints and all(
        any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
            for kw in node.keywords) for node in prints)


@pytest.mark.parametrize("argv", [
    "geom --type GL --rank 2 --mu 2,0",
    "qanalog --type GL --rank 3 --mu 2,1,0 --lam 1,1,1 --bk-oracle",
    "convolve --type GL --rank 2 --lam 1,-1 --mu 1,-1",
    "satake --type G --rank 2 --mu 1,0",
    "oracle --n 2 --q 2 --window 1 --selftest",
    "certify --n 2 --q 2,3 --bound 1",
    "verlinde --n 2 --g 1 --m 3",
])
def test_payload_is_json_dumps_with_indent(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_certify_wide_box_exits_3(capsys):
    # every GL(1) pair, in windows up to N = 200: tens of seconds of brute
    # work below every other budget
    start = time.perf_counter()
    code, out, err = run(capsys, *"certify --n 1 --q 2,3 --coord-min -100 "
                                  "--coord-max 0".split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("satkit: budget exceeded: certify work estimate")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    "certify --n 1 --q 2 --coord-min -2000000 --coord-max 0",
    "certify --n 2 --q 2 --coord-min -3000 --coord-max 0",
    "certify --n 3 --q 2 --coord-min -300 --coord-max 0",
])
def test_certify_huge_box_exits_3_before_listing(capsys, argv):
    # C(w + n - 1, n)^2 |q_list| bounds the estimate below, w the box width
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("satkit: budget exceeded: certify work estimate")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n, q, bound", [(2, 3, 3), (2, 3, 4), (3, 2, 2),
                                         (3, 2, 3)])
@pytest.mark.parametrize("command", ["oracle", "certify"])
def test_oracle_and_certify_refuse_the_same_boxes(capsys, command, n, q,
                                                  bound):
    # one estimate for both: without it, oracle --conv-bound ran these boxes
    # for seconds to minutes
    argv = {"oracle": f"--window 1 --conv-bound {bound}",
            "certify": f"--coord-min -{bound} --coord-max {bound}"}[command]
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--n", str(n), "--q", str(q),
                         *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == "satkit: budget exceeded: certify work estimate exceeds " \
                  "2000000000\n"


@pytest.mark.parametrize("argv, most", [
    ("certify --n 2 --q 2,3 --coord-min -100 --coord-max 100", 101 * 2),
    # and one for the census of the window, before the plan
    ("oracle --n 2 --q 2 --window 1 --conv-bound 100", 101 + 1),
])
def test_wide_box_counts_forms_once_per_window(capsys, monkeypatch, argv,
                                               most):
    # 20,301 dominant lam in [-100, 100]^2 fall in 101 windows max |lam|;
    # counting the forms once per lam made this refusal take most of a second
    calls, count = [], lo.candidate_count
    monkeypatch.setattr(lo, "candidate_count",
                        lambda *args: calls.append(args) or count(*args))
    assert run(capsys, *argv.split()) == (
        3, "", "satkit: budget exceeded: certify work estimate exceeds "
               "2000000000\n")
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("n, q, bound", [(2, 2, 1), (2, 3, 2), (3, 2, 1)])
def test_oracle_convolutions_are_certify_brute_rows(n, q, bound):
    report = lo.oracle_report(n, q, 1, conv_bound=bound)
    rows = run_certification(n, [q], -bound, bound)["rows"]
    assert report["convolutions"] == [
        {"lambda": r["lambda"], "mu": r["mu"], "nu": r["nu"],
         "count": r["brute"]} for r in rows]


def _work_estimate(n, q_list, lo_, hi):
    """The brute-side work of a box, written out: per row (q, lam, mu, nu),
    lam's candidate forms (at n = 1, its one lattice) times (4N + 1)^2."""
    datum = make_root_datum(f"GL({n})")
    doms = [v for v in itertools.product(range(lo_, hi + 1), repeat=n)
            if datum.is_dominant(v)]
    work = 0
    for lam, mu in itertools.product(doms, repeat=2):
        forms = sum(lo.candidate_count(n, q, max(map(abs, lam))) if n > 1
                    else 1 for q in q_list)
        for nu in datum.dominant_below(tuple(a + b for a, b in zip(lam, mu))):
            work += forms * (4 * max(map(abs, lam + nu)) + 1) ** 2
    return work


@pytest.mark.parametrize("box", [(-1, 1), (0, 2), (-2, 1), (-3, -1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_work_estimate_is_pinned(monkeypatch, n, box):
    # the plan admits the box at its estimate and refuses it one below
    for q_list in ([2], [3, 5], [2, 3, 4, 5, 7]):
        work = _work_estimate(n, q_list, *box)
        monkeypatch.setattr(lo, "_CONVOLUTION_WORK", work)
        assert lo.convolution_plan(n, q_list, *box)
        monkeypatch.setattr(lo, "_CONVOLUTION_WORK", work - 1)
        with pytest.raises(TooLarge):
            lo.convolution_plan(n, q_list, *box)


def test_gl1_rows_are_charged_their_one_lattice(capsys):
    # charged 2N + 1 candidate forms a row, these boxes were refused
    assert lo.convolution_plan(1, [2], -78, 78)
    with pytest.raises(TooLarge):
        lo.convolution_plan(1, [2], -79, 79)
    code, out, _ = run(capsys, "oracle", "--n", "1", "--q", "2",
                       "--window", "1", "--conv-bound", "31")
    assert code == 0
    rows = json.loads(out)["convolutions"]
    assert len(rows) == 63 ** 2 and {r["count"] for r in rows} == {1}


def test_certify_builds_each_field_once_per_count():
    # the counts run q by q, so 17 fields cycle through the 16-field memo of
    # GF once, not once per row
    qs = [2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37]
    GF.cache_clear()
    assert run_certification(1, qs, -2, 2)["all_match"]
    assert GF.cache_info().misses <= 2 * len(qs)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_budget_refuses_a_later_lam_of_the_box(capsys, monkeypatch, warm):
    # lam = (0, 0) is one candidate form; (0, -1) is 39 at q = 3, 21 at q = 2
    argv = ["certify", "--n", "2", "--q", "3,2", "--coord-min", "-1",
            "--coord-max", "0"]
    for memo in (lo._window_cells, lo._convolution_histogram,
                 hs.convolve_basis):
        memo.cache_clear()
    if warm:
        assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("SATKIT_BUDGET", "1")
    assert run(capsys, *argv) == (
        3, "", "satkit: budget exceeded: 39 candidate forms exceed budget 1\n")


def test_certify_reads_the_budget_once_per_q_and_window(capsys, monkeypatch):
    # the 6 dominant lam of [-1, 1]^2 fall in the windows 0 and 1; cold or
    # warm, each (q, window) is read once, and the walks read it no more
    argv = "certify --n 2 --q 2,3 --coord-min -1 --coord-max 1".split()
    calls, budget = [], lo.enumeration_budget
    monkeypatch.setattr(lo, "enumeration_budget",
                        lambda: calls.append(None) or budget())
    for memo in (lo._window_cells, lo._convolution_histogram):
        memo.cache_clear()
    for state in ("cold", "warm"):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert 0 < len(calls) <= 2 * 2, state


@pytest.mark.parametrize("seed", [1, 2])
def test_certify_list_prints_the_same_bytes_warm(capsys, seed):
    # the benchmark's certify list: in a fresh process, then twice in this one
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    script = ("import contextlib, hashlib, io, sys, workloads, satkit.cli\n"
              "for argv in workloads.requests('certify', int(sys.argv[1])):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        code = satkit.cli.main(argv)\n"
              "    print(code, hashlib.sha256(out.getvalue().encode())"
              ".hexdigest())\n")
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", script, str(seed)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    fresh = proc.stdout.splitlines()
    assert len(fresh) == len(workloads.requests("certify", seed))
    for _ in range(2):
        here = []
        for argv in workloads.requests("certify", seed):
            code, out, _ = run(capsys, *argv)
            here.append(f"{code} {hashlib.sha256(out.encode()).hexdigest()}")
        assert here == fresh


def test_certify_refuses_a_listed_box_before_its_pairs(capsys):
    # the box bound admits this box; every pair adds at least the forms of
    # its lam, so the sum over the listed box refuses it before any pair
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "--n", "4", "--q", "2",
                         "--coord-min", "-20", "--coord-max", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("satkit: budget exceeded: certify work estimate")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n, q_list, box", [
    (2, (2, 3, 4, 5, 7), (-2, 2)),   # the ROADMAP baseline
    (3, (2, 3), (0, 1)),
])
def test_certify_work_estimate_admits(monkeypatch, n, q_list, box):
    import satkit.cli as cli_mod

    # with the brute side stubbed out, only the estimate could refuse
    def stub(n, q_list, lo_, hi):
        plan = lo.convolution_plan(n, q_list, lo_, hi)
        return plan, [[[0] * len(nus) for _, _, nus in plan] for _ in q_list]

    monkeypatch.setattr(cli_mod.lo, "convolution_table", stub)
    assert run_certification(n, q_list, *box)["rows"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# -- seeded awkward requests -----------------------------------------------------

_GOOD_DATA = [("GL", 1), ("GL", 2), ("GL", 3), ("A", 1), ("A", 2), ("B", 2),
              ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G", 2)]
_BAD_DATA = [("GL", 0), ("GL", -1), ("A", 0), ("A", -2), ("B", 1), ("D", 2),
             ("G", 3), ("E", 6), ("Q", 2), ("", 2)]
_HUGE = 99999999


def _awkward_argv(rng):
    """About 60 requests, each with at most one awkward argument: negative
    and zero n, windows and ranks; huge, wrong-length and non-dominant
    coweights; bad q lists; unsupported types."""
    def request(fields):
        odd = rng.randrange(2 * len(fields))   # half the requests are fine
        return [f"{flag}={rng.choice(bad if k == odd else good)}"
                for k, (flag, good, bad) in enumerate(fields)]

    def coweights(kind, rank):
        datum = make_root_datum(f"GL({rank})" if kind == "GL" else
                                f"{kind}{rank}")
        box = list(itertools.product(range(-1, 3), repeat=datum.dim))
        good = [v for v in box if datum.is_dominant(v)]
        bad = [v for v in box if not datum.is_dominant(v)]
        bad += [v[:-1] for v in good] + [v + (0,) for v in good]
        if kind == "GL":   # huge entries, close to central
            bad += [tuple(x + sign * _HUGE for x in v)
                    for v in good for sign in (1, -1)]
        words = [",".join(map(str, v)) for v in good]
        return words, [",".join(map(str, v)) for v in bad] + [
            "", "1,x", "1.5", "1,,0", "2;1"]

    out = []
    for _ in range(12):
        out.append(["oracle"] + request([
            ("--n", ["1", "2", "3"], ["-3", "-1", "0"]),
            ("--q", ["2", "3", "4"], ["1", "0", "6", "-4", "1031", "x"]),
            ("--window", ["0", "1"], ["-2", "-1"]),
            ("--workers", ["1"], ["0", "-1"]),
            ("--conv-bound", ["0"], ["-1"])]))
    for _ in range(3):   # at n = 1 a wide window holds only 2N + 1 lattices
        out.append(["oracle", "--n=1", f"--q={rng.choice(['2', '1021'])}",
                    f"--window={rng.choice(['2', '30', '400'])}"])
    for cmd, weights in [("geom", ["mu"]), ("satake", ["mu"]),
                         ("qanalog", ["mu", "lam"]),
                         ("convolve", ["lam", "mu"])]:
        for _ in range(8):
            kind, rank = rng.choice(_GOOD_DATA)
            good, bad = coweights(kind, rank)
            fields = [(f"--{w}", good, bad) for w in weights]
            if rng.random() < 0.2:
                kind, rank = rng.choice(_BAD_DATA)
                fields = [(f"--{w}", good, good) for w in weights]
            out.append([cmd, f"--type={kind}", f"--rank={rank}"]
                       + request(fields))
    for _ in range(8):
        low = rng.choice([-1, 0])
        out.append(["certify"] + request([
            ("--n", ["1", "2"], ["-1", "0"]),
            ("--q", ["2", "2,3", "4"],
             ["1", "0", "-2", "6", "2,2", "2,x", "", "1031", ","]),
            ("--coord-min", [str(low)], ["3", "99"]),
            ("--coord-max", [str(low + 1)], [str(low - 1), "-5"])]))
    for _ in range(8):
        genus = ("--g", ["0", "2"], ["-1", "x"])
        out.append(["verlinde"] + rng.choice([
            request([("--n", ["2", "3"], ["-1", "0", "1"]), genus,
                     ("--m", ["1", "3"], ["-1", "0"])]),
            request([("--ade", ["E6", "A2", "D4"], ["E9", "A0", "D2", "X1"]),
                     genus])]))
    return out


def _own_stderr_lines(err):
    """stderr lines other than argparse's usage block."""
    lines, usage = [], False
    for line in err.splitlines():
        usage = line.startswith("usage:") or (usage and line[:1].isspace())
        if not usage:
            lines.append(line)
    return lines


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_awkward_requests_end_cleanly(capsys, seed):
    for argv in _awkward_argv(random.Random(seed)):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the syntax
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        assert len(_own_stderr_lines(err)) <= 1, (argv, err)
        assert elapsed < 1.5, (argv, elapsed)
