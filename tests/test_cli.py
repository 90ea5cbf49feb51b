import json
import os
import subprocess
import sys

from bethestates.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_ts_text(capsys):
    rc, out = run_cli(capsys, ["ts", "--p0", "16/7"])
    assert rc == 0
    assert "p0 = 16/7 = [2, 3, 2]" in out
    assert "m = [0, 2, 5, 7]" in out
    assert "y = [1, 2, 7, 16]" in out
    assert "z = [1, 3, 7]" in out
    assert "p0_bar = 7/3" in out


def test_ts_json_roundtrip(capsys):
    rc, out = run_cli(capsys, ["ts", "--p0", "16/7", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["schema"] == "v1"
    assert data["quotients"] == [2, 3, 2]
    assert data["string_lengths"] == [1, 1, 3, 5, 2, 9, 7]


def test_theta_json(capsys):
    rc, out = run_cli(capsys, ["theta", "--p0", "16/7", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["det_abs"] == "16"
    assert data["coupling_inverse"][0][:2] == ["1", "1"]
    assert data["theta"][0][0] == "9/16"


def test_count_example3(capsys):
    rc, out = run_cli(capsys, ["count", "--p0", "6", "--chain", "3x5", "--l", "5"])
    assert rc == 0
    assert "Z(l=5) = 101 with 12 summands" in out


def test_enumerate_with_diagrams(capsys):
    rc, out = run_cli(capsys, ["enumerate", "--p0", "6", "--chain", "3x5",
                               "--l", "5", "--diagrams"])
    assert rc == 0
    assert "12 configurations, total 101" in out
    assert "♣" in out


def test_identity_ok(capsys):
    rc, out = run_cli(capsys, ["identity", "--p0", "7/3", "--cutoff", "12"])
    assert rc == 0
    assert "agree=True" in out


def test_completeness_ok(capsys):
    rc, out = run_cli(capsys, ["completeness", "--p0", "6", "--chain", "3x5"])
    assert rc == 0
    assert "dimension 1024 vs level sum 1024: matched=True" in out


def test_completeness_mismatch_exit_code(capsys, monkeypatch):
    # moving one state from level 1 to level 2 keeps the level sum equal to
    # the dimension; the per-level comparison must still catch it
    from bethestates import configs
    count = configs.count_xxz_general
    monkeypatch.setattr(configs, "count_xxz_general",
                        lambda ts, chain, l: count(ts, chain, l) + {1: -1, 2: 1}.get(l, 0))
    rc, out = run_cli(capsys, ["completeness", "--p0", "6", "--chain", "3x5"])
    assert rc == 1
    assert "dimension 1024 vs level sum 1024: matched=False" in out


def test_inadmissible_spin_exits_3(capsys):
    # a spin outside the string classification has no Bethe states; the
    # counting commands refuse it and name the admissible 2s
    for argv, msg in [(["completeness", "--p0", "5/2", "--chain", "2x1"],
                       "2s = 2 outside the string classification at p0 = 5/2; "
                       "admissible 2s: 1\n"),
                      (["count", "--p0", "27/11", "--chain", "8x2", "--l", "3"],
                       "2s = 8 outside the string classification at p0 = 27/11; "
                       "admissible 2s: 1, 6, 11, 16, 21, 26\n")]:
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == ""
        assert captured.err.endswith(msg), captured.err


def test_inadmissible_spin_message_names_runs(capsys):
    # 997 admissible 2s at 1997/2 are one run, printed as a range
    rc = main(["count", "--p0", "1997/2", "--chain", "1000x1", "--l", "1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.endswith(
        "2s = 1000 outside the string classification at p0 = 1997/2; "
        "admissible 2s: 1..997\n"), captured.err
    assert len(captured.err.encode()) < 200


def test_bijection_ok_and_guard(capsys):
    rc, out = run_cli(capsys, ["bijection", "--p0", "6", "--chain", "2x5"])
    assert rc == 0
    assert "all_passed=True" in out
    rc2, _ = run_cli(capsys, ["bijection", "--p0", "6", "--chain", "3x5"])
    assert rc2 == 3


def test_theta_dim_one(capsys):
    rc, out = run_cli(capsys, ["theta", "--p0", "1"])
    assert rc == 0
    assert "dim = 1, |det| = 1" in out


def test_count_rational_p0(capsys):
    rc, out = run_cli(capsys, ["count", "--p0", "16/7", "--chain", "1x3", "--l", "2"])
    assert rc == 0
    assert "Z(l=2) = 3 with 2 summands" in out


def test_parse_errors(capsys):
    rc, _ = run_cli(capsys, ["ts", "--p0", "0.5"])
    assert rc == 2
    rc, _ = run_cli(capsys, ["count", "--p0", "6", "--chain", "bogus", "--l", "1"])
    assert rc == 2


def test_precondition_exit(capsys):
    rc, _ = run_cli(capsys, ["ts", "--p0", "1/2"])
    assert rc == 3
    rc, _ = run_cli(capsys, ["enumerate", "--p0", "16/7", "--chain", "1x3", "--l", "1"])
    assert rc == 3


def test_enumerate_level_past_the_recursion_limit(capsys):
    # at p0 = 2 every string has length 1: level 1200 asks for partitions
    # with up to 1200 parts
    rc, out = run_cli(capsys, ["enumerate", "--p0", "2", "--chain", "1x3", "--l", "1200"])
    assert rc == 0
    assert out == "0 configurations, total 0\n"


def test_identity_negative_cutoff_rejected(capsys, monkeypatch):
    from bethestates import identities

    def no_series_work(*args):
        raise AssertionError("series work started")

    for name in ("fermionic_sum", "bosonic_sum", "bosonic_sum_collapsed"):
        monkeypatch.setattr(identities, name, no_series_work)
    rc = main(["identity", "--p0", "3", "--cutoff", "-5"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "cutoff must be nonnegative" in captured.err


def test_too_wide_string_data_rejected(capsys, monkeypatch):
    # 1000001/1000000 has a million string types; compute_ts is cheap there,
    # but building Theta or the linear form would not be
    from bethestates import spectral

    def no_theta(*args):
        raise AssertionError("Theta construction started")

    monkeypatch.setattr(spectral, "tridiagonal_adjugate", no_theta)
    monkeypatch.setattr(spectral, "offset_vector", no_theta)
    wide = "1000001/1000000"
    for argv in (["theta", "--p0", wide], ["theta", "--p0", wide, "--json"],
                 ["count", "--p0", wide, "--chain", "1x2", "--l", "1"],
                 ["completeness", "--p0", wide, "--chain", "1x2"],
                 ["identity", "--p0", wide, "--cutoff", "3"]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == ""
        assert "dim 1000001 exceeds the ceiling of 1000" in captured.err


def test_widest_string_data_counts(capsys):
    # dim 1000 is the ceiling; the lambda enumeration has no recursion depth
    rc, out = run_cli(capsys, ["count", "--p0", "1997/2", "--chain", "1x2", "--l", "1"])
    assert rc == 0
    assert "Z(l=1) = 2 with 2 summands" in out
    rc, out = run_cli(capsys, ["completeness", "--p0", "1997/2", "--chain", "1x2"])
    assert rc == 0
    assert "dimension 4 vs level sum 4: matched=True" in out


def test_output_determinism(capsys):
    argvs = [
        ["ts", "--p0", "16/7", "--json"],
        ["count", "--p0", "6", "--chain", "3x5", "--l", "5", "--json"],
        ["identity", "--p0", "2", "--cutoff", "10", "--json"],
        ["completeness", "--p0", "6", "--chain", "2x3", "--json"],
        ["bijection", "--p0", "7", "--chain", "1x4", "--json"],
    ]
    for argv in argvs:
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


def test_cli_import_loads_no_process_machinery():
    # counting runs in one process; a fresh interpreter shows what the CLI
    # import pulls in (pytest itself may already hold these modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    code = ("import sys, bethestates.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
