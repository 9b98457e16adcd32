import dataclasses

import numpy as np
import pytest

from ctgp import inputs, prior, scenario, simulate
from ctgp.errors import DegenerateInputError, DomainError


def vx(val):
    out = np.zeros(6)
    out[0] = val
    return out


def ramp_profile():
    # velocity ramps 0 -> 1 on [0, 0.4], holds on [0.4, 0.8] after a jump to 2
    s1 = inputs.InputSegment(0.0, 0.4, vx(0.0), vx(1.0), np.zeros(6), np.zeros(6))
    s2 = inputs.InputSegment(0.4, 0.8, vx(2.0), vx(2.0), np.zeros(6), np.zeros(6))
    return inputs.InputProfile((s1, s2))


def test_segment_validation():
    with pytest.raises(DegenerateInputError):
        inputs.InputSegment(0.0, 0.0, vx(1.0), vx(1.0), np.zeros(6), np.zeros(6))
    with pytest.raises(DegenerateInputError):
        inputs.InputSegment(0.0, 1.0, np.zeros(5), np.zeros(6), np.zeros(6), np.zeros(6))
    with pytest.raises(DegenerateInputError):
        inputs.InputSegment(0.0, 1.0, np.full(6, np.nan), np.zeros(6), np.zeros(6), np.zeros(6))


def test_profile_requires_contiguity_and_accepts_long_segments():
    s1 = inputs.InputSegment(0.0, 0.4, vx(1.0), vx(1.0), np.zeros(6), np.zeros(6))
    s2 = inputs.InputSegment(0.5, 0.9, vx(1.0), vx(1.0), np.zeros(6), np.zeros(6))
    with pytest.raises(DegenerateInputError):
        inputs.InputProfile((s1, s2))
    with pytest.raises(DegenerateInputError, match="at least one segment"):
        inputs.InputProfile(())
    long_seg = inputs.InputSegment(0.0, 2.0, vx(1.0), vx(1.0), np.zeros(6), np.zeros(6))
    assert_same_segments(inputs.InputProfile((long_seg,)).segments, [long_seg])


def assert_same_segments(got, want):
    """Two sequences of InputSegments agree field by field, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(w):
            assert np.array_equal(getattr(g, f.name), getattr(w, f.name)), f.name


def jumpy_segments(rng, n=7):
    """n contiguous random segments whose values jump at every knot."""
    t = 0.3 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.7, n))])
    return [inputs.InputSegment(t[i], t[i + 1], *rng.standard_normal((4, 6)))
            for i in range(n)]


def test_profile_gives_back_its_segments():
    segs = jumpy_segments(np.random.default_rng(1))
    assert_same_segments(inputs.InputProfile(segs).segments, segs)


def test_evaluate_is_the_per_row_lerp_bit_for_bit():
    rng = np.random.default_rng(2)
    segs = jumpy_segments(rng)
    p = inputs.InputProfile(segs)
    inside = [rng.uniform(s.t0, s.t1) for s in segs]
    knots = [s.t0 for s in segs]
    times = inside + knots + [p.end]
    # right-continuous: a knot belongs to the segment it starts, the end to the last
    want = [segs[k].values_at(t) for k, t in enumerate(inside)]
    want += [s.values_at(s.t0) for s in segs] + [segs[-1].values_at(p.end)]
    v, a = p.evaluate(np.array(times))
    for i, (t, (v_ref, a_ref)) in enumerate(zip(times, want)):
        v_one, a_one = p.evaluate(t)
        assert np.array_equal(v_one, v_ref) and np.array_equal(a_one, a_ref), t
        assert np.array_equal(v[i], v_ref) and np.array_equal(a[i], a_ref), t


def per_row_split(segs, t0, t1):
    """The segments clipped to [t0, t1], ends read through each one's values_at."""
    want = []
    for s in segs:
        lo, hi = max(s.t0, t0), min(s.t1, t1)
        if hi - lo > 1e-9:
            (v_lo, a_lo), (v_hi, a_hi) = s.values_at(lo), s.values_at(hi)
            want.append(inputs.InputSegment(lo, hi, v_lo, v_hi, a_lo, a_hi))
    return want


@pytest.mark.parametrize("window", ["straddling", "knot-aligned", "inside-one-row"])
def test_slice_is_the_per_row_split_bit_for_bit(window):
    # each interval's slice of the profile, cut at the node times by
    # precompute_intervals, is the per-row split of its window
    rng = np.random.default_rng(3)
    segs = jumpy_segments(rng)
    t0, t1 = {"straddling": (rng.uniform(segs[1].t0, segs[1].t1),
                             rng.uniform(segs[4].t0, segs[4].t1)),
              "knot-aligned": (segs[2].t0, segs[5].t0),
              "inside-one-row": tuple(np.sort(rng.uniform(segs[3].t0, segs[3].t1, 2)))}[window]
    profile = inputs.InputProfile(segs)
    times = [profile.start, t0, t1, profile.end]
    intervals = prior.precompute_intervals(profile, times, prior.PriorHyper(np.ones(6)))
    assert len(intervals) == 3
    for row, a, b in zip(intervals, times[:-1], times[1:]):
        assert_same_segments(row.profile.segments, per_row_split(segs, a, b))


def test_builders_and_consumers_construct_no_segment(monkeypatch):
    calls = []
    post_init = inputs.InputSegment.__post_init__
    monkeypatch.setattr(inputs.InputSegment, "__post_init__",
                        lambda seg: calls.append(seg) or post_init(seg))
    times = np.linspace(0.0, 2.0, 21)
    rng = np.random.default_rng(4)
    p = inputs.from_samples(times, rng.standard_normal((21, 6)), rng.standard_normal((21, 6)))
    assert calls == []
    # a closed-form interval at the end, whose segments are made before counting again
    tail = p.segments + inputs.InputProfile.zero(2.0, 2.5).segments
    calls.clear()
    hyper = prior.PriorHyper(np.ones(6))
    fine = prior.precompute_intervals(inputs.InputProfile(tail), np.append(times[::4], 2.5),
                                      hyper)
    coarse = fine.coarsen(len(fine))[0]
    coarse.at(0.77), coarse.at(2.2), p.evaluate(times), p.is_zero()
    sc = scenario.bundled_scenario("continuum_bench")
    _, _, tendons, disturbance = sc.configs()[-1]
    simulate.simulate_rod(sc.rod, tendons, np.linspace(0.0, sc.rod.length, sc.node_count),
                          [sc.rod.length], disturbance=disturbance, step=1e-3)
    assert calls == []
    segs = coarse.profile.segments  # the counter sees the rows that segments rebuilds
    assert len(segs) == len(calls) == 21


def test_evaluate_linear_interpolation_and_right_continuity():
    p = ramp_profile()
    v, a = p.evaluate(0.2)
    assert np.isclose(v[0], 0.5)
    assert np.allclose(a, 0.0)
    # right-continuous at the interior knot: later segment's start value wins
    v_knot, _ = p.evaluate(0.4)
    assert np.isclose(v_knot[0], 2.0)
    v_before, _ = p.evaluate(0.4 - 1e-9)
    assert np.isclose(v_before[0], 1.0, atol=1e-7)
    # final knot returns the last segment's end values
    v_end, _ = p.evaluate(0.8)
    assert np.isclose(v_end[0], 2.0)


def test_evaluate_batched_and_domain():
    p = ramp_profile()
    ts = np.array([0.0, 0.1, 0.4, 0.8])
    v, a = p.evaluate(ts)
    assert v.shape == (4, 6) and a.shape == (4, 6)
    assert np.allclose(v[:, 0], [0.0, 0.25, 2.0, 2.0])
    with pytest.raises(DomainError):
        p.evaluate(-0.1)
    with pytest.raises(DomainError):
        p.evaluate(0.9)


def test_from_samples_keeps_the_sample_knots_and_interpolates():
    times = np.array([0.0, 1.0, 2.0])
    vels = np.stack([vx(0.0), vx(2.0), vx(2.0)])
    p = inputs.from_samples(times, vels)
    assert [(s.t0, s.t1) for s in p.segments] == [(0.0, 1.0), (1.0, 2.0)]
    for seg, i in zip(p.segments, (0, 1)):
        assert np.array_equal(seg.v0, vels[i]) and np.array_equal(seg.v1, vels[i + 1])
    # the segments keep no view of the caller's samples
    vels[:] = 7.0
    v, _ = p.evaluate(0.75)
    assert np.isclose(v[0], 1.5)
    v, _ = p.evaluate(1.25)
    assert np.isclose(v[0], 2.0)


def test_from_samples_validation():
    with pytest.raises(DegenerateInputError):
        inputs.from_samples([0.0], [vx(1.0)])
    with pytest.raises(DegenerateInputError):
        inputs.from_samples([0.0, 0.0], np.stack([vx(1.0), vx(1.0)]))
    with pytest.raises(DegenerateInputError):
        inputs.from_samples([0.0, 1.0], np.ones((2, 5)))
    with pytest.raises(DegenerateInputError):
        inputs.from_samples([0.0, np.inf], np.stack([vx(1.0), vx(1.0)]))
    for odd in ("fast", {}, None):
        with pytest.raises(DegenerateInputError):
            inputs.from_samples([0.0, 1.0], [vx(1.0), odd])
        with pytest.raises(DegenerateInputError):
            inputs.from_samples([0.0, odd], np.stack([vx(1.0), vx(1.0)]))


def test_slice_clips_with_interpolated_endpoints():
    # the node times cut one segment into three interval slices
    times = np.array([0.0, 1.0])
    vels = np.stack([vx(0.0), vx(4.0)])
    p = inputs.from_samples(times, vels)
    intervals = prior.precompute_intervals(p, [0.0, 0.25, 0.75, 1.0],
                                           prior.PriorHyper(np.ones(6)))
    sub = intervals[1].profile
    assert np.isclose(sub.start, 0.25) and np.isclose(sub.end, 0.75)
    v0, _ = sub.evaluate(0.25)
    v1, _ = sub.evaluate(0.75)
    assert np.isclose(v0[0], 1.0) and np.isclose(v1[0], 3.0)
    assert len(intervals.profile) == 3


def test_zero_profile():
    p = inputs.InputProfile.zero(0.0, 5.0)
    assert p.is_zero()
    v, a = p.evaluate(2.5)
    assert np.allclose(v, 0.0) and np.allclose(a, 0.0)
    assert not ramp_profile().is_zero()
    with pytest.raises(DegenerateInputError):
        inputs.InputProfile.zero(1.0, 1.0)
    for odd in ("soon", {}, None):
        with pytest.raises(DegenerateInputError):
            inputs.InputProfile.zero(odd, 1.0)


def test_read_input_log_with_and_without_accelerations(tmp_path):
    times = np.linspace(0.0, 1.0, 11)
    vels = np.outer(np.sin(times), np.ones(6))
    accs = np.outer(np.cos(times), np.ones(6))

    full = np.column_stack([times, vels, accs])
    path13 = tmp_path / "log13.csv"
    np.savetxt(path13, full, delimiter=",")
    p = inputs.read_input_log(path13)
    v, a = p.evaluate(0.35)
    assert np.allclose(v, np.interp(0.35, times, vels[:, 0]), atol=1e-12)
    assert np.allclose(a, np.interp(0.35, times, accs[:, 0]), atol=1e-12)

    path7 = tmp_path / "log7.csv"
    np.savetxt(path7, np.column_stack([times, vels]), delimiter=",")
    p7 = inputs.read_input_log(path7)
    _, a7 = p7.evaluate(0.35)
    assert np.allclose(a7, 0.0)

    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.column_stack([times, vels[:, :3]]), delimiter=",")
    with pytest.raises(DegenerateInputError):
        inputs.read_input_log(bad)
