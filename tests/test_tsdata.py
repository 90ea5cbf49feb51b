from fractions import Fraction

import pytest

from bethestates.tsdata import (admissible_spin, cf_remainder, compute_ts,
                                phase_shift, string_length, string_position, zone)
from bethestates.util import PreconditionError

F = Fraction


def convergents(quotients):
    """Standard continued-fraction convergents (test oracle)."""
    a_prev, a = 1, quotients[0]
    b_prev, b = 0, 1
    out = [(a, b)]
    for nu in quotients[1:]:
        a, a_prev = nu * a + a_prev, a
        b, b_prev = nu * b + b_prev, b
        out.append((a, b))
    return out


def test_example_16_7():
    ts = compute_ts(F(16, 7))
    assert ts.quotients == (2, 3, 2)
    assert ts.alpha == 2
    assert ts.bounds == (0, 2, 5, 7)
    assert ts.ys == (0, 1, 2, 7, 16)
    assert ts.zs == (0, 1, 3, 7)
    assert ts.p0_bar == F(7, 3)
    assert ts.remainders == (F(16, 7), 1, F(2, 7), F(1, 7), 0)


def test_example_16_7_length_branches():
    ts = compute_ts(F(16, 7))
    # one probe inside each linear piece, plus the endpoints
    assert string_length(ts, 1) == 1
    assert string_length(ts, F(3, 2)) == F(3, 2)
    assert string_length(ts, 2) == 1
    assert string_length(ts, 3) == 3
    assert string_length(ts, 4) == 5
    assert string_length(ts, 5) == 2
    assert string_length(ts, 6) == 9
    assert string_length(ts, 7) == 7
    assert string_length(ts, 8) == 23


def test_integer_p0():
    ts = compute_ts(3)
    assert ts.alpha == 0
    assert ts.quotients == (3,)
    assert ts.bounds == (0, 3)
    assert ts.ys == (0, 1, 3)
    assert ts.zs == (0, 1)
    assert ts.p0_bar is None


def test_p0_one_boundary():
    ts = compute_ts(1)
    assert ts.alpha == 0
    assert ts.quotients == (1,)
    assert ts.bounds == (0, 1)
    assert ts.ys == (0, 1, 1)


def test_rejects_below_one():
    with pytest.raises(PreconditionError):
        compute_ts(F(1, 2))


def test_float_p0_is_rejected():
    # the float 2.2 is 2476979795053773/1125899906842624, whose string data
    # has quotients (2, 4, 1, 225179981368524); an integral float is refused
    # too, while ints, Fractions and strings are taken as before
    for p0 in (2.2, 2.0, 16 / 7):
        with pytest.raises(PreconditionError, match="not a float: "):
            compute_ts(p0)
    ts = compute_ts(F(11, 5))
    assert (ts.p0, ts.alpha, ts.quotients, ts.remainders) == \
        (F(11, 5), 1, (2, 5), (F(11, 5), 1, F(1, 5), 0))
    assert (ts.ys, ts.zs, ts.bounds, ts.p0_bar) == ((0, 1, 2, 11), (0, 1, 5), (0, 2, 7), 2)
    assert compute_ts("11/5") == ts
    assert compute_ts(6) == compute_ts(F(6)) == compute_ts("6")


def test_convergent_determinant_law():
    for p0 in [F(16, 7), F(5, 2), F(7, 3), F(9, 4), F(27, 11), F(6)]:
        ts = compute_ts(p0)
        conv = convergents(ts.quotients)
        assert [a for a, _ in conv] == [ts.y(i + 1) for i in range(ts.alpha + 1)]
        assert [b for _, b in conv] == [ts.z(i) for i in range(ts.alpha + 1)]
        for i in range(1, len(conv)):
            a1, b1 = conv[i - 1]
            a2, b2 = conv[i]
            assert abs(a2 * b1 - a1 * b2) == 1


def test_sequence_monotonicity():
    for p0 in [F(16, 7), F(5, 2), F(9, 4), F(27, 11)]:
        ts = compute_ts(p0)
        assert all(ts.bounds[i] < ts.bounds[i + 1] for i in range(len(ts.bounds) - 1))
        assert all(ts.ys[i] < ts.ys[i + 1] for i in range(2, len(ts.ys) - 1))
        assert all(ts.zs[i] < ts.zs[i + 1] for i in range(2, len(ts.zs) - 1))


def test_length_segment_endpoints_and_recurrence():
    for p0 in [F(16, 7), F(5, 2), F(7, 3), F(6)]:
        ts = compute_ts(p0)
        for i in range(ts.alpha + 1):
            assert string_length(ts, ts.m(i)) == ts.y(i - 1)
            # left limit of piece i at m_{i+1} reproduces the recurrence value
            left = ts.y(i - 1) + (ts.m(i + 1) - ts.m(i)) * ts.y(i)
            assert left == ts.y(i + 1)


def test_remainder_values_16_7():
    ts = compute_ts(F(16, 7))
    assert cf_remainder(ts, 0) == F(16, 7)
    assert cf_remainder(ts, 1) == F(9, 7)
    assert cf_remainder(ts, 2) == -1
    assert cf_remainder(ts, 3) == F(-5, 7)
    assert cf_remainder(ts, 5) == F(2, 7)
    assert cf_remainder(ts, 7) == F(-1, 7)


def test_remainder_endpoints_and_sign_positivity():
    for p0 in [F(16, 7), F(5, 2), F(7, 3), F(6)]:
        ts = compute_ts(p0)
        for i in range(ts.alpha + 1):
            sign = -1 if i % 2 else 1
            assert cf_remainder(ts, ts.m(i)) == sign * ts.remainders[i]
        for k in range(4 * ts.dim):
            j = F(k, 4)
            if j >= ts.dim:
                break
            adj = ((-1) ** zone(ts, j)) * cf_remainder(ts, j)
            assert adj > 0


def test_remainder_integer_p0():
    ts = compute_ts(6)
    for j in range(6):
        assert cf_remainder(ts, j) == 6 - j
    assert cf_remainder(ts, 6) == -1


def test_remainder_domain():
    ts = compute_ts(F(16, 7))
    with pytest.raises(PreconditionError):
        cf_remainder(ts, 8)
    with pytest.raises(PreconditionError):
        cf_remainder(ts, -1)


def test_zone_probes():
    ts = compute_ts(F(16, 7))
    assert zone(ts, 0) == 0
    assert zone(ts, 3) == 1
    assert zone(ts, 7) == 3
    ts6 = compute_ts(6)
    assert zone(ts6, 6) == 1


def test_string_position_probes():
    ts = compute_ts(F(16, 7))
    assert string_position(ts, 2) == 5
    # interior positions sit on even zones; the half-open length matches there
    assert string_position(ts, 3) == F(36, 7)
    assert string_position(ts, 4) == F(37, 7)
    assert string_position(ts, 9) == 6
    ts6 = compute_ts(6)
    assert string_position(ts6, 4) == 4
    assert string_position(ts6, 2) == 2
    # boundary length p0 resolves to the zone-0 closure
    assert string_position(ts6, 6) == 6


def test_string_position_roundtrip():
    for p0 in [F(16, 7), F(5, 2), F(7, 3), F(6), F(9, 4)]:
        ts = compute_ts(p0)
        boundary = {ts.y(i + 1) for i in range(-1, ts.alpha + 1)}
        for n in range(2, 51):
            try:
                t = string_position(ts, n)
            except PreconditionError:
                continue
            if n in boundary and t == ts.dim:
                # closure of the last even zone: the half-open reading differs
                continue
            assert string_length(ts, t) == n


def test_string_position_rejects():
    ts = compute_ts(F(16, 7))
    with pytest.raises(PreconditionError):
        string_position(ts, 1)
    ts2 = compute_ts(2)
    with pytest.raises(PreconditionError):
        string_position(ts2, 3)  # odd-zone only: not a positive-parity length


def test_admissible_spins():
    assert [s for s in range(1, 13) if admissible_spin(compute_ts(6), s)] == [1, 2, 3, 4, 5]
    assert [s for s in range(1, 13) if admissible_spin(compute_ts(F(16, 7)), s)] == [1, 8]
    assert [s for s in range(1, 13) if admissible_spin(compute_ts(F(5, 2)), s)] == [1]
    assert not any(admissible_spin(compute_ts(1), s) for s in range(1, 13))


def test_phase_matches_integer_closed_forms():
    # 2*Phi = 2s*k/p0 - min(k, 2s) for k < p0, and 2s/p0 at k = p0,
    # for every integer p0 and every spin with 2s + 1 < p0.
    for p0 in range(2, 13):
        ts = compute_ts(p0)
        for two_s in range(1, p0 - 1):
            for k in range(1, p0):
                want = F(two_s * k, p0) - min(k, two_s)
                assert 2 * phase_shift(ts, k, two_s) == want, (p0, k, two_s)
            assert 2 * phase_shift(ts, p0, two_s) == F(two_s, p0)


def test_phase_boundary_spin():
    # 2s + 1 = p0: the closed forms extend through the zone-0 closure
    for p0 in range(2, 9):
        ts = compute_ts(p0)
        two_s = p0 - 1
        for k in range(1, p0):
            assert 2 * phase_shift(ts, k, two_s) == F(two_s * k, p0) - min(k, two_s)
        assert 2 * phase_shift(ts, p0, two_s) == F(two_s, p0)


def test_phase_probe_value():
    # p0 = 6, k = 3, 2s = 3: the closed form gives 2*Phi = 9/6 - 3 = -3/2
    ts = compute_ts(6)
    assert 2 * phase_shift(ts, 3, 3) == F(-3, 2)


def test_phase_shift_rejects_a_non_int_index():
    # k indexes the per-type lengths and parities, so an integral Fraction
    # or float is rejected rather than evaluated
    ts = compute_ts(6)
    for k in (F(3), 3.0):
        with pytest.raises(PreconditionError, match="string index must be an integer"):
            phase_shift(ts, k, 3)
