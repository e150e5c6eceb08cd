import numpy as np
import pytest

import qddsim as q
from qddsim.linalg import PauliAxis, pauli

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


def test_pulse_counts_must_be_nonnegative():
    calls = [
        lambda: q.qdd_schedule(-1, 0, 1.0),
        lambda: q.qdd_schedule(1, -1, 1.0),
        lambda: q.uhrig_times(-2, 1.0),
        lambda: q.pulse_operator(-1, 0),
        lambda: q.pulse_operator(0, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="nonnegative"):
            call()


@pytest.mark.parametrize(
    "breakpoints,values,match",
    [
        ([0.0, 0.6, 0.3], [(1, 1, 1), (1, -1, -1)], "degenerate"),  # unsorted
        ([0.0, 0.3, 0.3], [(1, 1, 1), (1, -1, -1)], "degenerate"),  # coincident
        ([0.1, 0.3, 0.6], [(1, 1, 1), (1, -1, -1)], "degenerate"),  # not from 0
        ([0.0, 0.3, np.nan], [(1, 1, 1), (1, -1, -1)], "degenerate"),
        ([0.0, 0.3, np.inf], [(1, 1, 1), (1, -1, -1)], "degenerate"),
        ([0.0], np.empty((0, 3)), "degenerate"),
        ([[0.0, 0.3, 0.6]], [(1, 1, 1), (1, -1, -1)], "degenerate"),
        ([0.0, 0.3, 0.6], [(1, 1, 1), (2, -1, -2)], "sign triple"),  # not +-1
        ([0.0, 0.3, 0.6], [(1, 1, 1)], "sign triple"),  # an interval without signs
        ([0.0, 0.3, 0.6], [(1, 1), (1, -1)], "sign triple"),
    ],
)
def test_switching_profile_checks_itself(breakpoints, values, match):
    with pytest.raises(ValueError, match=match):
        q.SwitchingProfile(breakpoints=np.array(breakpoints), values=np.array(values))


def test_pulse_operator_even_inner_collapses():
    sx = pauli(PauliAxis.X)
    for n_x in range(4):
        expected = np.linalg.matrix_power(sx, n_x)
        assert np.allclose(q.pulse_operator(n_x, 2), expected)
        assert np.allclose(q.pulse_operator(n_x, 0), expected)


def test_pulse_operator_single_block():
    assert np.allclose(q.pulse_operator(0, 1), pauli(PauliAxis.Z))


def test_pulse_operator_1_1():
    assert np.allclose(q.pulse_operator(1, 1), -pauli(PauliAxis.X))


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
