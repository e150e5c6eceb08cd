import numpy as np
import pytest

import qddsim as q
from qddsim.linalg import PauliAxis, pauli
from qddsim.metrics import _unit_profile

from reference import sign_at


def _times(schedule, axis):
    return np.array([ev.time for ev in schedule.events if ev.axis is axis])


def test_pulse_times_1_1():
    s = q.qdd_schedule(1, 1, 1.0)
    got = [(ev.time, ev.axis) for ev in s.events]
    times = [t for t, _ in got]
    assert np.allclose(times, [0.25, 0.5, 0.75])
    assert [a for _, a in got] == [PauliAxis.Z, PauliAxis.X, PauliAxis.Z]


def test_outer_times_3_0():
    outer = _times(q.qdd_schedule(3, 0, 1.0), PauliAxis.X)
    expected = [np.sin(np.pi / 8) ** 2, 0.5, np.sin(3 * np.pi / 8) ** 2]
    assert np.allclose(outer, expected, atol=1e-15)
    assert np.allclose(outer, [0.146447, 0.5, 0.853553], atol=1e-6)


@pytest.mark.parametrize("count", [2.5, 1.0, np.float64(2.0), "2", None, True])
def test_pulse_counts_must_be_integers(count):
    # a fractional count used to place its pulses at the wrong fractions
    calls = [
        lambda: q.uhrig_times(count, 1.0),
        lambda: q.qdd_schedule(count, 0, 1.0),
        lambda: q.qdd_schedule(1, count, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="nonnegative integers"):
            call()


def test_numpy_integer_pulse_counts_are_accepted():
    two = np.int64(2)
    assert np.array_equal(q.uhrig_times(two, 1.0), q.uhrig_times(2, 1.0))
    assert q.qdd_schedule(two, np.int32(1), 1.0).events == q.qdd_schedule(2, 1, 1.0).events


@pytest.mark.parametrize("n_x", range(9))
@pytest.mark.parametrize("n_z", range(9))
def test_pulse_count_identity(n_x, n_z):
    s = q.qdd_schedule(n_x, n_z, 0.7)
    assert len(s.events) == n_x + n_z + n_x * n_z


def test_outer_times_time_reversal_symmetric():
    for n_x in range(1, 9):
        t = _times(q.qdd_schedule(n_x, 0, 1.0), PauliAxis.X)
        assert np.abs(t + t[::-1] - 1.0).max() <= 1e-15


def test_inner_times_inside_blocks():
    s = q.qdd_schedule(2, 3, 1.0)
    edges = np.concatenate(([0.0], _times(s, PauliAxis.X), [1.0]))
    inner = _times(s, PauliAxis.Z)
    for j in range(3):
        block = inner[(inner > edges[j]) & (inner < edges[j + 1])]
        assert np.allclose(block, edges[j] + (edges[j + 1] - edges[j]) * q.uhrig_times(3, 1.0))


def test_tau_must_be_positive():
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            q.qdd_schedule(1, 1, tau)


def test_uhrig_times_need_a_positive_finite_tau():
    # an array of durations used to broadcast, and a numeric string to fail later
    for tau in (-1.0, 0.0, np.nan, np.inf, np.array([1.0, 2.0]), "1.0"):
        with pytest.raises(ValueError, match="positive and finite"):
            q.uhrig_times(2, tau)


def test_pulse_counts_must_be_nonnegative():
    calls = [
        lambda: q.qdd_schedule(-1, 0, 1.0),
        lambda: q.qdd_schedule(1, -1, 1.0),
        lambda: q.uhrig_times(-2, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="nonnegative"):
            call()


X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z


# each case gives a profile's breakpoints and, as `values`, its pulse axes
@pytest.mark.parametrize(
    "breakpoints,values,match",
    [
        ([0.0, 0.6, 0.3], [X], "degenerate"),  # unsorted
        ([0.0, 0.3, 0.3], [X], "degenerate"),  # coincident
        ([0.1, 0.3, 0.6], [X], "degenerate"),  # not from 0
        ([0.0, 0.3, np.nan], [X], "degenerate"),
        ([0.0, 0.3, np.inf], [X], "degenerate"),
        ([0.0], [], "degenerate"),
        ([[0.0, 0.3, 0.6]], [X], "degenerate"),
        ([0.0, 0.3, 0.6], [Y], "sign triple"),  # a Y pulse
        ([0.0, 0.3, 0.6], [], "sign triple"),  # a pulse without an axis
        ([0.0, 0.3, 0.6], [X, Z], "sign triple"),  # an axis without a pulse
        ([0.0, 0.3, 0.6], ["x"], "sign triple"),  # not a PauliAxis
    ],
)
def test_switching_profile_checks_itself(breakpoints, values, match):
    # a plain list is read as its array, so it fails the same way
    for form in (np.array(breakpoints), breakpoints):
        with pytest.raises(ValueError, match=match):
            q.SwitchingProfile(breakpoints=form, axes=values)


def test_profiles_compare_by_their_arrays():
    # the generated == compared the arrays elementwise and raised on the
    # ambiguous truth value of the result
    profile = q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    assert profile == q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    assert not profile != q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    for other in (
        q.switching_profile(q.qdd_schedule(1, 1, 2.0)),  # other breakpoints
        q.switching_profile(q.qdd_schedule(2, 1, 1.0)),  # more intervals
        q.SwitchingProfile(profile.breakpoints, (X, Z, Z)),  # other pulses
    ):
        assert profile != other and not profile == other
    # breakpoints given as a list are kept as their float array; a list used
    # to raise AttributeError
    as_list = q.SwitchingProfile([0.0, 0.5, 1.0], [X])
    assert as_list == q.SwitchingProfile(np.array([0.0, 0.5, 1.0]), [X])
    assert as_list.breakpoints.dtype == float


def test_net_rotation_is_the_blockwise_product():
    # N_x + 1 blocks sigma_z^{N_z}, each outer sigma_x between two of them
    sx, sz = pauli(X), pauli(Z)
    for n_x in range(6):
        for n_z in range(6):
            block = np.linalg.matrix_power(sz, n_z)
            expected = block
            for _ in range(n_x):
                expected = block @ sx @ expected
            profile = q.switching_profile(q.qdd_schedule(n_x, n_z, 1.0))
            assert np.array_equal(profile.net_rotation, expected), (n_x, n_z)


def test_net_rotation_even_inner_collapses():
    sx = pauli(PauliAxis.X)
    for n_x in range(4):
        expected = np.linalg.matrix_power(sx, n_x)
        for n_z in (2, 0):
            profile = q.switching_profile(q.qdd_schedule(n_x, n_z, 1.0))
            assert np.allclose(profile.net_rotation, expected)


def test_net_rotation_single_block():
    profile = q.switching_profile(q.qdd_schedule(0, 1, 1.0))
    assert np.allclose(profile.net_rotation, pauli(PauliAxis.Z))


def test_net_rotation_1_1():
    profile = q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    assert np.allclose(profile.net_rotation, -pauli(PauliAxis.X))


def test_profile_1_1_sign_quadruple():
    # flip rules applied event by event; the boundary values f_y(0) = +1 and
    # f_y(tau) = -1 pin the pattern
    prof = q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    assert prof.values.tolist() == [
        [1, 1, 1],
        [-1, -1, 1],
        [-1, 1, -1],
        [1, -1, -1],
    ]
    assert prof.values[0, 1] == 1 and prof.values[-1, 1] == -1


def test_profile_1_1_zero_means():
    prof = q.switching_profile(q.qdd_schedule(1, 1, 1.0))
    means = prof.durations @ prof.values
    assert np.abs(means).max() <= 1e-15


def test_profile_2_0_flips_only_at_x():
    prof = q.switching_profile(q.qdd_schedule(2, 0, 1.0))
    assert prof.values[:, 2].tolist() == [1, -1, 1]
    assert np.array_equal(prof.values[:, 1], prof.values[:, 2])


@pytest.mark.parametrize("n_x", range(5))
@pytest.mark.parametrize("n_z", range(5))
def test_fx_is_product_fz_fy(n_x, n_z):
    prof = q.switching_profile(q.qdd_schedule(n_x, n_z, 0.9))
    assert np.array_equal(prof.values[:, 0], prof.values[:, 1] * prof.values[:, 2])


@pytest.mark.parametrize("shared", [False, True])
def test_values_are_derived_on_first_read_and_read_only(shared):
    # the unit profile of a cell is shared between callers, so its signs must not be writable
    profile = _unit_profile(2, 1) if shared else q.switching_profile(q.qdd_schedule(2, 1, 0.8))
    twin = q.switching_profile(q.qdd_schedule(2, 1, 1.0 if shared else 0.8))
    assert "values" not in vars(twin)
    assert profile == twin  # whether or not either has read its signs
    values = profile.values
    assert values is profile.values and not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = -1
    # f_z flips at every X pulse and f_y at every pulse, f_x = f_y f_z
    x_pulses = np.cumsum([0] + [axis is X for axis in profile.axes])
    pulses = np.arange(len(profile.axes) + 1)
    f_z, f_y = (-1) ** x_pulses, (-1) ** pulses
    assert values.tolist() == np.column_stack((f_y * f_z, f_y, f_z)).tolist()
    assert profile == twin and "values" not in vars(twin)


def test_profile_matches_flip_counting_at_sample_times():
    # independent evaluation: f_z = (-1)^(outer pulses so far),
    # f_y = (-1)^(all pulses so far)
    rng = np.random.default_rng(11)
    for n_x, n_z in [(1, 1), (2, 3), (4, 2), (0, 3), (3, 0)]:
        s = q.qdd_schedule(n_x, n_z, 1.0)
        prof = q.switching_profile(s)
        x_times = np.array([ev.time for ev in s.events if ev.axis is PauliAxis.X])
        all_times = np.array([ev.time for ev in s.events])
        for t in rng.uniform(0, 1, 200):
            f = sign_at(prof, t)
            fz = (-1) ** int(np.sum(x_times < t))
            fy = (-1) ** int(np.sum(all_times < t))
            assert f[2] == fz and f[1] == fy and f[0] == fz * fy


def test_schedule_json_shape():
    import json

    doc = json.loads(q.qdd_schedule(2, 1, 0.5).to_json())
    assert doc["N_x"] == 2 and doc["N_z"] == 1 and doc["tau"] == 0.5
    assert len(doc["events"]) == 5
    assert all(set(e) == {"t", "axis"} for e in doc["events"])
    times = [e["t"] for e in doc["events"]]
    assert times == sorted(times)
