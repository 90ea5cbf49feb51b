import hashlib
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


def test_census_commands_reject_inadmissible_spins(capsys):
    # the census route of enumerate and bijection refuses such a chain as
    # count does, with its message, before any configuration is listed
    for argv in (["enumerate", "--p0", "3", "--chain", "5x2", "--l", "1"],
                 ["bijection", "--p0", "4", "--chain", "5x1"]):
        assert main(["count", "--p0", argv[2], "--chain", argv[4], "--l", "1"]) == 3
        count_err = capsys.readouterr().err
        assert "2s = 5 outside the string classification" in count_err
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == ""
        assert captured.err == count_err


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
    # but the string lengths, the continuants of the bands, Theta or the
    # linear form would not be
    from bethestates import spectral

    def no_theta(*args):
        raise AssertionError("Theta construction started")

    monkeypatch.setattr(spectral, "leading_minors", no_theta)
    monkeypatch.setattr(spectral, "tridiagonal_adjugate", no_theta)
    monkeypatch.setattr(spectral, "offset_vector", no_theta)
    monkeypatch.setattr(spectral, "_level_zero_form", no_theta)
    wide = "1000001/1000000"
    for argv in (["ts", "--p0", wide], ["ts", "--p0", wide, "--json"],
                 ["theta", "--p0", wide], ["theta", "--p0", wide, "--json"],
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


def test_closed_stdout_keeps_the_exit_code():
    # a reader that takes one byte and closes the pipe, as | head -c 1 does,
    # ends the output, not the run: theta at 201/2 writes 146 kB, more than
    # a pipe holds, yet stderr stays empty and the exit code is 0, not the
    # mismatch code 1 of a BrokenPipeError traceback
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "bethestates.cli", "theta", "--p0", "201/2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"d"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


# exit code and sha256 of the one stream each invocation writes (stdout on
# exit 0, stderr on exit 2 and 3), frozen from the output of commit 270609b
CLI_FROZEN = {
    "ts --p0 16/7":
        (0, "14ac73ac5f2ccbf00ce5b96d1a512601343b320c250b77298de22a83a3c03b6a"),
    "ts --p0 16/7 --json":
        (0, "e33165e79447b02203766c7b8324498797454032d06f61627382b1e05c2cea6a"),
    "ts --p0 1":
        (0, "b912bd99f918b066b53b8b87cd6be21ca99e08ab38b8f4309a323440656e6ac6"),
    "ts --p0 1 --json":
        (0, "d02329a9e963ca12e8427a597d424f3498bbba9fc9b0c48cc50c1cc5e0915241"),
    "theta --p0 16/7":
        (0, "86a6f0b72fe048db793880c5c80c70da3c60c7171c5a1652af58859c8b7f69a9"),
    "theta --p0 16/7 --json":
        (0, "6e96e589f48daa89b790d2294e62c15d2445978b401a2c418933c2f2887b0ac8"),
    "theta --p0 1":
        (0, "7adfee6b06243e5ef5c8d30353958e308a49ff6714f6f1fc0694353eb1b12fbe"),
    "count --p0 6 --chain 3x5 --l 5":
        (0, "be7f3ea246602c2914e15f19cd1eba0bee25eca4d3ca3c6e59497a290e89ff18"),
    "count --p0 6 --chain 3x5 --l 5 --json":
        (0, "800e81ad7fc25d43565adcec3b54d1cae4b90833c1ad6ac0dbd56b9f722a1dba"),
    "count --p0 16/7 --chain 1x3,8x1 --l 2":
        (0, "b4ffaad1b831277e2e9ca83529e454e490a4249627abeba931fa1e7db5bcbcb3"),
    "count --p0 16/7 --chain 1x3,2x1 --l 2":
        (3, "fcb9b40b20e0368bf39fdfd50f039dad9534a7a7769e964dfd646598a7d1fdb0"),
    "enumerate --p0 6 --chain 3x5 --l 5":
        (0, "f28e68eb270e74c506b0e1b8be21072e3ca5594f3580b13a3c24942feab525de"),
    "enumerate --p0 6 --chain 3x5 --l 5 --diagrams":
        (0, "5b8a2f972f6854151b392e0ccd6c238636bb38088bade56f6631c6fcd0286af8"),
    "enumerate --p0 6 --chain 3x5 --l 5 --json":
        (0, "d4652b71b872873e639fd2e8e225960553ac61dcbb018ea45e70939f46623432"),
    "enumerate --p0 6 --chain 3x5 --l 5 --json --diagrams":
        (0, "d4652b71b872873e639fd2e8e225960553ac61dcbb018ea45e70939f46623432"),
    "identity --p0 7/3 --cutoff 30":
        (0, "61a19af8aa59dd2e5607422bb49587b7c6dfed496efa55955d9008431e8b7f48"),
    "identity --p0 7/3 --cutoff 30 --json":
        (0, "cee7801f4d93bcf678cde7933ffeb24ea53291c260cab810c9127571508109f7"),
    "identity --p0 2 --cutoff 10/3":
        (0, "5d4a69a0811be66d5469aad8edd72347b13c1feef068f86a7dc103a67ee92d72"),
    "completeness --p0 6 --chain 3x5":
        (0, "8b9d7584649e4817a7e04b37180a5ad45b3e291e854d5c7b36f139691c590aa0"),
    "completeness --p0 6 --chain 3x5 --json":
        (0, "e47a9ba42f48483ede8510f3b3917c1b0baf56b8d224e8a5bb38277c0b8d5493"),
    "completeness --p0 16/7 --chain 1x6,8x1":
        (0, "333fa3fcc1f52f8adbb24e08f1001e5f609d419c08273543c5bd7421599bfb69"),
    "bijection --p0 6 --chain 2x5":
        (0, "fcc69624497ee4a8469ee0e7188bdf289575991a6cd402676076609dd751b6c8"),
    "bijection --p0 6 --chain 2x5 --json":
        (0, "8285f1a6490d9282651c479f54e74e99fc3a3e420b093ee12ad2a2c418544424"),
    "bijection --p0 7 --chain 1x4,3x1":
        (0, "d57a6f6de7634495b560d1895520dff8a28c2a9d5fc83233baeb341f707205b4"),
    "ts --p0 2.2":
        (2, "eeb882a03ba17e9f4d3daee8ee092d0f408869b3228973966de24f408665e6e5"),
    "count --p0 6 --chain bogus --l 1":
        (2, "3a9030313b338fcb9163d764ee0d75b73f074f95ff4f0d0ef4235b1e0b2d046a"),
    "completeness --p0 6 --chain 3xa":
        (2, "cc6e1f40bdb8e6dead5378d4f9c4a5a2cfe5caa40c2155d2fdfdefa213c847b4"),
    "ts --p0 3/0":
        (2, "9de34a05913eba5a97721897ff4f88011329d0af151adfa3cae709348546dc68"),
    "identity --p0 3 --cutoff 1.5":
        (2, "dbd4c47ab8a9399ffb825cb8268688f2bc87677d90e24b7d9485e1fc849557d6"),
    "count --p0 1/2 --chain bogus --l 1":
        (3, "9eaeccd2bbece6d6459fa1b9627be2688ec8d7f0de63d4c8f047409e5160042b"),
    "count --p0 6 --chain 3x5 --l -1":
        (3, "e5d71f1dd28fe2ea3a28d62265dfc5c7c6c64110aa5c8fb7ace6b82f165ba3af"),
    "count --p0 5/2 --chain 2x1 --l -1":
        (3, "e5d71f1dd28fe2ea3a28d62265dfc5c7c6c64110aa5c8fb7ace6b82f165ba3af"),
    "enumerate --p0 6 --chain 3x5 --l -1":
        (3, "e5d71f1dd28fe2ea3a28d62265dfc5c7c6c64110aa5c8fb7ace6b82f165ba3af"),
    "count --p0 6 --chain bogus --l -1":
        (3, "e5d71f1dd28fe2ea3a28d62265dfc5c7c6c64110aa5c8fb7ace6b82f165ba3af"),
    "identity --p0 3 --cutoff -5":
        (3, "bab029bab899c7691fcdd075551ad37a6206a5ec5980cba2b09d18ea3055b462"),
    "identity --p0 3/0 --cutoff -5":
        (2, "9de34a05913eba5a97721897ff4f88011329d0af151adfa3cae709348546dc68"),
    "completeness --p0 5/2 --chain 2x1":
        (3, "9b5beccff234568db5015c15d31f7418a80cdab0dd844abf2c68071072ec0d36"),
    "count --p0 27/11 --chain 8x2 --l 3":
        (3, "8e34bd6c463d7ae47d58bc8e83bc244f7f01bc2931e7238062cbf5ba3fbdd10f"),
    "theta --p0 1000001/1000000":
        (3, "93ef0dc2b6bea1153b17c76190b6eed0384d0bfa46a72544557c479d374afcf9"),
    "identity --p0 1000001/1000000 --cutoff 3 --json":
        (3, "93ef0dc2b6bea1153b17c76190b6eed0384d0bfa46a72544557c479d374afcf9"),
    "count --p0 1997/2 --chain 1000x1 --l 1":
        (3, "89d55e698315925ffd9b6827b8b539e6a895aafdf691a53e1ebd04e0fb76598f"),
    "ts --p0 1/2":
        (3, "9eaeccd2bbece6d6459fa1b9627be2688ec8d7f0de63d4c8f047409e5160042b"),
    "ts --p0 -3":
        (3, "541e2342330bde8ebcf8d85d758b24f59587382977b7f5f23f303e7f539c3589"),
    "enumerate --p0 16/7 --chain 1x3 --l 1":
        (3, "3fa3a12684c3d4b04c87b6739e712840e0237dfa63e700f47a9bcb1325f1beaa"),
    "bijection --p0 6 --chain 3x5":
        (3, "36e34e5a8cf2bbc40c8dfbb1fd2d5f50fb80bfd039e24be5756c9649da8d7d23"),
    "count --p0 6 --chain 0x5 --l 1":
        (3, "9df38405501f1d32477eeec747589bce181da73ff85acbf6af10aee32a7573de"),
    "completeness --p0 6 --chain 1x0":
        (3, "9df38405501f1d32477eeec747589bce181da73ff85acbf6af10aee32a7573de"),
}
# argparse's own errors: their text differs across Python versions
ARGPARSE_ERRORS = ("", "ts", "frobnicate", "ts --p0 16/7 --chain 1x2", "count --p0 6 --l 1",
                   "count --p0 6 --chain 3x5 --l x")


def test_cli_output_and_exit_codes_are_frozen(capsys):
    for cmd, (code, digest) in CLI_FROZEN.items():
        rc = main(cmd.split())
        captured = capsys.readouterr()
        shown, silent = (captured.out, captured.err) if code == 0 else \
            (captured.err, captured.out)
        assert (rc, silent) == (code, ""), cmd
        assert hashlib.sha256(shown.encode("utf-8")).hexdigest() == digest, cmd
    for cmd in ARGPARSE_ERRORS:
        assert main(cmd.split()) == 2, cmd
        capsys.readouterr()
