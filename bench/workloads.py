"""The benchmark's workloads: fixed exact instances, their runners and gates.

There is no randomness in any input.  A runner executes inside the child
interpreter and returns the outputs its gate needs; the gate runs in the
parent and compares them with the program's outputs frozen when the
benchmark was added (``expected.json``).  See ``run.py`` for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

WORKLOADS = {
    "identity-16_7": {"kind": "identity", "p0": "16/7", "cutoff": "120"},
    "completeness-16_7": {"kind": "completeness", "p0": "16/7", "chain": "1x50"},
    "qcount-201_2": {"kind": "qcount", "p0": "201/2", "chain": "1x16"},
}


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _cli(argv):
    from bethestates import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _chain(ts, text):
    from bethestates.spectral import ChainSpec
    return ChainSpec(ts.p0, [tuple(int(x) for x in part.split("x"))
                             for part in text.split(",")])


def run_identity(spec, ts) -> dict:
    code, payload = _cli(["identity", "--p0", spec["p0"], "--cutoff", spec["cutoff"],
                          "--json"])
    nontrivial = next(([e, c] for e, c in payload["rhs"] if e != "0" and c), None)
    return {
        "exit": code,
        "agree": payload["agree"],
        "collapsed_agrees": payload["collapsed_agrees"],
        "rhs_first_nontrivial": nontrivial,
        "lhs_sha256": _digest(payload["lhs"]),
        "rhs_sha256": _digest(payload["rhs"]),
    }


def run_completeness(spec, ts) -> dict:
    code, payload = _cli(["completeness", "--p0", spec["p0"], "--chain", spec["chain"],
                          "--json"])
    return {
        "exit": code,
        "matched": payload["matched"],
        "lhs_total": payload["lhs_total"],
        "per_l": [row["count"] for row in payload["per_l"]],
    }


def run_qcount(spec, ts) -> dict:
    from bethestates import identities
    chain = _chain(ts, spec["chain"])
    polys = [identities.q_count(ts, chain, l) for l in range(chain.n_total + 1)]
    rows = [[[str(e), c] for e, c in sorted(p.terms.items())] for p in polys]
    return {
        "eval_at_one_sum": sum(p.eval_at_one() for p in polys),
        "dimension": chain.dimension(),
        "polys_sha256": _digest(rows),
    }


RUNNERS = {"identity": run_identity, "completeness": run_completeness,
           "qcount": run_qcount}


def gate(kind: str, outputs: dict, expected: dict) -> list:
    """Failure messages for one repetition's outputs; empty when correct.

    Every frozen value must match.  On top, the checks that do not depend on
    a frozen value: the identity compares a real bosonic term, not 1 with 1;
    the q-counts summed at q = 1 give the weight-space dimension, which the
    oracle side computes independently of the counting formula.
    """
    failures = [f"{key}: got {outputs.get(key)!r}, expected {value!r}"
                for key, value in expected.items() if outputs.get(key) != value]
    if kind == "identity":
        if not (outputs.get("rhs_first_nontrivial") or [None, 0])[1]:
            failures.append("identity is vacuous: rhs has no nonzero term past q^0")
    elif kind == "completeness":
        if outputs.get("lhs_total") != sum(outputs.get("per_l") or []):
            failures.append("level counts do not sum to the dimension")
    elif kind == "qcount":
        if outputs.get("eval_at_one_sum") != outputs.get("dimension"):
            failures.append("q-counts at q = 1 do not sum to the dimension")
    return failures
