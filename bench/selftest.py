"""Self-tests for the benchmark harness: ``python3 bench/selftest.py``.

Covers the self-time arithmetic on synthetic spans, that every gate can
fail, and that traced work counts repeat exactly across two fresh runs.
"""

import copy
import json
import time
import unittest

import run
import spans
from workloads import WORKLOADS, gate

KIND = {name: spec["kind"] for name, spec in WORKLOADS.items()}

# Small instances of each kind, so the repeat test takes seconds.
SMALL = (
    {"kind": "identity", "p0": "16/7", "cutoff": "30"},
    {"kind": "completeness", "p0": "16/7", "chain": "1x14"},
    {"kind": "qcount", "p0": "21/2", "chain": "1x8"},
)


def perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return "x" + value
    if isinstance(value, list):
        return value[:-1] + [perturb(value[-1])]
    raise TypeError(value)


class SelfTime(unittest.TestCase):
    # (parent, name, start, end) in opening order; times in ns.
    SPANS = [
        (-1, "cli.main", 0, 100),
        (0, "identities.fermionic_sum", 10, 90),
        (1, "qalg.QSeries.div_cyclotomic", 20, 50),
        (2, "qalg.QSeries.div_cyclotomic", 25, 30),   # recursive call
        (1, "configs.enumerate_lambda", 60, 70),
        (-1, "identities.bosonic_sum", 100, 120),
        (5, "configs.enumerate_lambda", 105, 108),    # not under fermionic_sum
    ]

    def test_nested_spans(self):
        out = spans.aggregate(self.SPANS, ["util.parallel_map"])
        expect_self = {"cli": 20, "identities": 40 + 17, "qalg": 25 + 5,
                       "configs": 10 + 3, "tsdata": 0}
        for layer, ns in expect_self.items():
            self.assertAlmostEqual(out[f"{layer}.self_s"], ns / 1e9, places=15)
        self.assertAlmostEqual(out["trace.self_sum_s"], 120 / 1e9, places=15)
        self.assertAlmostEqual(out["qalg.QSeries.div_cyclotomic.s"], 30 / 1e9, places=15)
        self.assertEqual(out["qalg.QSeries.div_cyclotomic.calls"], 2)
        self.assertAlmostEqual(out["configs.enumerate_lambda.s"], 13 / 1e9, places=15)
        self.assertEqual(out["identities.levels_visited"], 1)
        self.assertEqual(out["trace.spans"], 7)
        self.assertEqual(out["util.parallel_map.s"], 0)
        self.assertEqual(out["util.parallel_map.calls"], 0)


class Gates(unittest.TestCase):
    def setUp(self):
        with open(run.HERE / "expected.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def test_frozen_outputs_pass(self):
        for name, expected in self.expected.items():
            self.assertEqual(gate(KIND[name], dict(expected), expected), [], name)

    def test_each_perturbed_expected_value_fails(self):
        for name, expected in self.expected.items():
            for key in expected:
                wrong = copy.deepcopy(expected)
                wrong[key] = perturb(wrong[key])
                with self.subTest(workload=name, key=key):
                    self.assertTrue(gate(KIND[name], dict(expected), wrong))

    def test_checks_beyond_the_frozen_values(self):
        identity = dict(self.expected["identity-16_7"], rhs_first_nontrivial=None)
        self.assertTrue(gate("identity", identity, {}))
        completeness = dict(self.expected["completeness-16_7"])
        completeness["per_l"] = completeness["per_l"][:-1]
        self.assertTrue(gate("completeness", completeness, {}))
        qcount = dict(self.expected["qcount-201_2"], eval_at_one_sum=2 ** 16 - 1)
        self.assertTrue(gate("qcount", qcount, {}))


class RepeatableCounts(unittest.TestCase):
    def test_counts_equal_across_two_runs(self):
        run.OUT.mkdir(exist_ok=True)
        path = str(run.OUT / "selftest-spans.csv.gz")
        env = run.child_env()
        for spec in SMALL:
            with self.subTest(kind=spec["kind"]):
                summaries = []
                for rep in range(2):
                    result, error = run.spawn(spec, env, "--spans", path, f"selftest-{rep}",
                                              stop_by=time.monotonic() + run.HARD_LIMIT_S)
                    self.assertIsNone(error)
                    self.assertLessEqual(result["trace"]["trace.self_sum_s"], result["run_s"])
                    summaries.append(run.counts_of(result["trace"]))
                self.assertGreater(summaries[0]["trace.spans"], 0)
                self.assertEqual(summaries[0], summaries[1])
                # identities calls enumerate_lambda through its own by-name
                # import; every level of the fermionic loop must be seen.
                levels = summaries[0]["configs.enumerate_lambda.calls"]
                self.assertGreater(levels, 0)
                if spec["kind"] == "identity":
                    self.assertEqual(summaries[0]["identities.levels_visited"], levels)


if __name__ == "__main__":
    unittest.main()
