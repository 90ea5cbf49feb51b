"""Mutation harness: every listed check must be able to fail.

Each mutant replaces one snippet, which must occur exactly once in its file,
in a fresh temporary copy of src/ and tests/, and runs only the tests named
for it, one child process at a time, under limits on address space, CPU
time and wall time.  A mutant is caught when a named test fails; a limit
hit (the child killed, or a MemoryError in its output) is reported as a
hang, never as a catch.  The control replaces every snippet by itself and
runs every named test, which must all pass, so a catch is never a failure
that was there before the mutation.

    python3 tools/mutants.py

Exit status 0 when the control passes and every mutant is caught, 1
otherwise; the last line gives the total wall time.  Stdlib only.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30         # bytes per child
CPU_SECONDS = 120
WALL_SECONDS = 180

CRITERION_04 = "tests/test_acceptance.py::test_criterion_04_xxz_example_both_routes"
CRITERION_05 = "tests/test_acceptance.py::test_criterion_05_completeness_xxz_sweep"
CRITERION_07 = "tests/test_acceptance.py::test_criterion_07_identity_rational_sweep"

# (name, file under src/bethestates, snippet, replacement, tests of which one must fail)
MUTANTS = [
    ("positivity check without the r_k = 0, s_k > 0 clause", "spectral.py",
     "if r_k < 0 or (r_k == 0 and s_k > 0):", "if r_k < 0:",
     ("tests/test_identities.py::test_positivity_check_agrees_with_the_column_scan",)),
    ("div_steps' block loop stops one entry short", "qalg.py",
     "for k in range(s, n, s):", "for k in range(s, n - 1, s):", (CRITERION_07,)),
    ("census club bound off by one", "configs.py",
     "for clubs in range(l, max(-(r + f), 0) - 1, -1):",
     "for clubs in range(l, max(-(r + f), 0), -1):", (CRITERION_04,)),
    ("kernel_offset 1 instead of 0 at k = m", "identities.py",
     "return comb(k - m, 2) if k - m >= 0 else 0",
     "return comb(k - m, 2) if k - m > 0 else 1", (CRITERION_07,)),
    ("count drops at 0 < t instead of 0 <= t", "configs.py",
     "return None if 0 <= t < x else acc * signed_binom(t, x)",
     "return None if 0 < t < x else acc * signed_binom(t, x)",
     ("tests/test_cli.py::test_count_example3",)),
    ("walk without E's corner -lam_dim", "configs.py",
     "zip(corner, (y, -x))", "zip(corner, (y, 0))", (CRITERION_05,)),
    ("walk reads B after lowering it", "configs.py",
     "g = r * b + n * rs", "g = r * (b - n * x) + n * rs", (CRITERION_04,)),
    # gauss_general(0, x) is zero, so the output cannot show this one; the
    # count of terms and polynomials that reach sum_of_products does
    ("q_count drops at 0 < t instead of 0 <= t", "identities.py",
     "return None if 0 <= t < x else acc + ((t, x, signs[i]),)",
     "return None if 0 < t < x else acc + ((t, x, signs[i]),)",
     ("tests/test_identities.py::test_q_count_multiplies_only_the_kept_vectors",)),
    ("linear_form's level step one level on", "spectral.py",
     "(big_n - 2 * l) * q // p", "(big_n - 2 * l - 2) * q // p",
     ("tests/test_configs.py::test_linear_form_is_the_fraction_definition_at_every_level",)),
    # the stall guard turns an endless pass into a failed test
    ("live_levels' step without the [s_k < 0] c term", "identities.py",
     "e += 2 * gamma + g_kk * (2 * c - 1) + half * c",
     "e += 2 * gamma + g_kk * (2 * c - 1)", (CRITERION_07,)),
    ("gauss_general's negation shift b (b + 1)/2", "qalg.py",
     "b * (b - 1) // 2", "b * (b + 1) // 2",
     ("tests/test_identities.py::test_gauss_general_negative_top",
      "tests/test_qalg.py::test_gauss_general_negative_tops_follow_q_pascal_downward")),
    ("sum_of_products' slot width without its spare sign bit", "qalg.py",
     "(bound.bit_length() + 8) // 8", "(bound.bit_length() + 7) // 8",
     ("tests/test_qalg.py::test_sum_of_products_matches_a_dict_schoolbook",)),
    ("fold entry without the sign (-1)**x of base q**-1", "qalg.py",
     "-sign if x % 2 else sign", "sign",
     ("tests/test_qalg.py::test_qfactorial_sum_matches_each_term_divided_on_its_own",
      CRITERION_07)),
    ("global count reads the XXX prefix one level short", "bijection.py",
     "below = list(accumulate(", "below = [0] + list(accumulate(",
     ("tests/test_bijection.py::test_global_count_fails_on_a_wrong_level",
      "tests/test_bijection.py::test_verify_pairing_acceptance_chains")),
    ("vacancy dominance reads the XXZ vacancy one type late", "bijection.py",
     "xxx[min(j, len(xxx)) - 1] < vac[j - 1]", "xxx[min(j, len(xxx)) - 1] < vac[j]",
     ("tests/test_bijection.py::test_vacancy_dominance_fails_on_a_raised_xxz_vacancy",)),
    ("downward closure looks up the configuration itself", "bijection.py",
     "XXZConfig(cfg.lam, cfg.clubs - 1) not in census",
     "XXZConfig(cfg.lam, cfg.clubs) not in census",
     ("tests/test_bijection.py::test_downward_closure_fails_on_a_dropped_club_count",)),
    ("window equality checks one side only", "bijection.py",
     "if vac[j - 1] != xxx[min(j, len(xxx)) - 1]:",
     "if vac[j - 1] > xxx[min(j, len(xxx)) - 1]:",
     ("tests/test_bijection.py::test_window_equality_fails_on_a_lowered_xxz_vacancy",)),
    ("coupling bands without type dim among the zone ends", "spectral.py",
     "ends = {m - 1 for m in ts.bounds[1:]} | {dim}", "ends = {m - 1 for m in ts.bounds[1:]}",
     ("tests/test_spectral.py::test_coupling_inverse_16_7_matches_printed",)),
    ("phase_shift's half term with its sign flipped", "tsdata.py",
     "- Fraction(ts.signs[k - 1], 2)", "+ Fraction(ts.signs[k - 1], 2)",
     ("tests/test_tsdata.py::test_phase_matches_integer_closed_forms",)),
]


def _limits():
    """Run in the child before exec: cap its address space and CPU time."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_tests(tests, edit) -> tuple:
    """(outcome, seconds, output tail) of pytest on the named tests in a
    fresh copy of src/ and tests/, after edit(copy_root).  The outcome is
    'passed', 'failed', 'hang' or 'error'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        edit(copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-W", "error", "-m", "pytest", "-q", "-x",
                "-p", "no:cacheprovider", *tests]
        start = time.monotonic()
        child = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 preexec_fn=_limits, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=WALL_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            out, _ = child.communicate()
        seconds = time.monotonic() - start
    tail = "\n".join(out.strip().splitlines()[-5:])
    if child.returncode < 0 or "MemoryError" in out:      # killed, or out of memory
        return "hang", seconds, tail
    outcome = {0: "passed", 1: "failed"}.get(child.returncode, "error")
    return outcome, seconds, tail


def replacer(path: str, snippet: str, replacement: str):
    """An edit that puts replacement for the one occurrence of snippet in
    src/bethestates/path; it raises if snippet occurs other than once."""
    def edit(copy: Path):
        target = copy / "src" / "bethestates" / path
        text = target.read_text()
        found = text.count(snippet)
        if found != 1:
            raise ValueError(f"{path}: snippet {snippet!r} occurs {found} times, not once")
        target.write_text(text.replace(snippet, replacement))
    return edit


def control(copy: Path):
    """The no-op mutant: every snippet replaced by itself."""
    for _, path, snippet, _, _ in MUTANTS:
        replacer(path, snippet, snippet)(copy)


def main() -> int:
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    runs = [("control, every snippet replaced by itself", control, named, "passed")]
    runs += [(name, replacer(path, snippet, replacement), tests, "failed")
             for name, path, snippet, replacement, tests in MUTANTS]
    ok, start = True, time.monotonic()
    for name, edit, tests, want in runs:
        try:
            outcome, seconds, tail = run_tests(tests, edit)
        except ValueError as exc:          # a snippet that does not occur once
            outcome, seconds, tail = "error", 0.0, str(exc)
        verdict = "ok" if outcome == want else f"FAIL, expected {want}"
        print(f"{name}: tests {outcome} in {seconds:.1f} s, {verdict}", flush=True)
        if outcome != want:
            print(tail)
            ok = False
    print("control passed and every mutant caught" if ok else "mutation harness failed",
          f"in {time.monotonic() - start:.1f} s in total")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
