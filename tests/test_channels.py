"""Channels on party B, flip dynamics, ancilla laws, monotonicity audit."""

import functools

import numpy as np
import pytest

from minkit.channels import (
    MONOTONICITY_TOL,
    apply_channel_a,
    apply_channel_b,
    attach_ancilla,
    classify_freezing,
    dynamics_sweep,
    flip_channel,
    freezing_region,
    freezing_vertices,
    kraus_channel,
    monotonicity_audit,
    random_channel,
)
from minkit.linalg import dagger, partial_trace
from minkit.nonlocality import (
    METHOD_SPHERE,
    OptimizerConfig,
    hs_min_numeric,
    hs_min_two_qubit,
    trace_min_numeric,
    trace_min_two_qubit,
)
from minkit.states import (
    StateInvariantError,
    bloch_decompose,
    in_tetrahedron,
    make_bell_diagonal,
    random_density,
    validate,
)


def _product_state(rng, da=2, db=2):
    return validate(
        np.kron(random_density((1, da), da, rng).mat, random_density((1, db), db, rng).mat),
        (da, db),
    )


class TestKrausChannel:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="completeness"):
            kraus_channel([np.eye(2, dtype=complex) / 2])

    def test_random_channel_complete_and_deterministic(self):
        a = random_channel(2, 3, seed=4)
        b = random_channel(2, 3, seed=4)
        total = sum(dagger(k) @ k for k in a.ops)
        assert np.abs(total - np.eye(2)).max() <= 1e-10
        for ka, kb in zip(a.ops, b.ops):
            np.testing.assert_array_equal(ka, kb)

    def test_single_kraus_is_unitary(self):
        ch = random_channel(3, 1, seed=5)
        u = ch.ops[0]
        assert np.abs(dagger(u) @ u - np.eye(3)).max() <= 1e-10


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density((2, 2), 3, 6)
        out = apply_channel_b(rho, kraus_channel([np.eye(2, dtype=complex)], "id"))
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_depolarizing_on_product(self):
        rng = np.random.default_rng(7)
        rho = _product_state(rng)
        # K_(i, j) = |i><j| / sqrt(2) maps every state of B to I/2
        depolarizing = kraus_channel(np.eye(4, dtype=complex).reshape(4, 2, 2) / np.sqrt(2))
        out = apply_channel_b(rho, depolarizing)
        expected = np.kron(partial_trace(rho.mat, rho.dims, "B"), np.eye(2) / 2)
        np.testing.assert_allclose(out.mat, expected, atol=1e-12)

    def test_marginal_of_a_untouched(self):
        rng = np.random.default_rng(8)
        rho = random_density((2, 3), 4, rng)
        out = apply_channel_b(rho, random_channel(3, 2, rng))
        before, after = (partial_trace(r.mat, r.dims, "B") for r in (rho, out))
        assert np.abs(after - before).max() <= 1e-10

    def test_dimension_mismatch(self):
        rho = random_density((2, 3), 2, 0)
        with pytest.raises(ValueError, match="dimension"):
            apply_channel_b(rho, flip_channel(3, 0.5))


class TestFlipChannel:
    def test_unit_p_is_identity(self):
        rho = random_density((2, 2), 4, 9)
        out = apply_channel_b(rho, flip_channel(1, 1.0))
        np.testing.assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            flip_channel(3, 1.5)
        with pytest.raises(ValueError):
            flip_channel(0, 0.5)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_bloch_multiplier_rule(self, axis):
        c0 = np.array([0.2, 0.3, 0.45])
        rho = make_bell_diagonal(c0)
        p = 0.37
        out = apply_channel_b(rho, flip_channel(axis, p))
        expected = c0 * p
        expected[axis - 1] = c0[axis - 1]
        np.testing.assert_allclose(np.diagonal(bloch_decompose(out).t), expected, atol=1e-12)

    def test_two_sided_multiplier(self):
        c0 = np.array([0.2, 0.3, 0.45])
        rho = make_bell_diagonal(c0)
        p = np.exp(-0.5)
        ch = flip_channel(3, p)
        out = apply_channel_a(apply_channel_b(rho, ch), ch)
        expected = c0 * np.exp(-1.0)
        expected[2] = c0[2]
        np.testing.assert_allclose(np.diagonal(bloch_decompose(out).t), expected, atol=1e-12)


class TestAttachAncilla:
    def test_hs_min_scales_with_purity(self):
        rng = np.random.default_rng(10)
        rho = random_density((2, 2), 3, rng)
        base = hs_min_numeric(rho).value
        for dc, rank in ((2, 2), (3, 3)):
            anc = random_density((1, dc), rank, rng).mat
            big = attach_ancilla(rho, anc)
            purity = float(np.trace(anc @ anc).real)
            assert abs(hs_min_numeric(big).value - base * purity) <= 1e-10

    def test_maximally_mixed_ancilla_divides_by_dimension(self):
        rng = np.random.default_rng(11)
        rho = random_density((2, 2), 2, rng)
        base = hs_min_numeric(rho).value
        big = attach_ancilla(rho, np.eye(3, dtype=complex) / 3)
        assert abs(hs_min_numeric(big).value - base / 3) <= 1e-10

    def test_pure_ancilla_leaves_hs_min_alone(self):
        rng = np.random.default_rng(12)
        rho = random_density((2, 2), 4, rng)
        anc = random_density((1, 2), 1, rng).mat
        big = attach_ancilla(rho, anc)
        assert abs(hs_min_numeric(big).value - hs_min_numeric(rho).value) <= 1e-10

    def test_trace_min_unchanged(self):
        rng = np.random.default_rng(13)
        rho = random_density((2, 2), 3, rng)
        anc = random_density((1, 3), 2, rng).mat
        big = attach_ancilla(rho, anc)
        assert abs(trace_min_numeric(big).value - trace_min_numeric(rho).value) <= 1e-8

    def test_rejects_invalid_ancilla(self):
        rho = random_density((2, 2), 2, 0)
        with pytest.raises(StateInvariantError):
            attach_ancilla(rho, np.eye(2, dtype=complex))


class TestDynamicsSweep:
    def test_freezing_reference_trajectory(self):
        times = np.linspace(0.0, 5.0, 41)
        trace = dynamics_sweep([0.2, 0.3, 0.45], 3, "one", times)
        np.testing.assert_allclose(trace.n1_t, 0.45, atol=1e-9)
        assert np.all(np.diff(trace.n2_t) < 0.0)

    def test_decay_then_freeze(self):
        times = np.linspace(0.0, 5.0, 21)
        trace = dynamics_sweep([0.45, 0.3, 0.2], 3, "one", times)
        p = np.exp(-times)
        expected = np.maximum(0.45 * p, 0.2)
        np.testing.assert_allclose(trace.n1_t, expected, atol=1e-9)

    def test_initial_point_is_triple_maximum(self):
        trace = dynamics_sweep([0.1, -0.35, 0.2], 2, "one", np.array([0.0]))
        assert trace.n1_t[0] == pytest.approx(0.35, abs=1e-9)

    def test_two_sided_decays_faster(self):
        times = np.linspace(0.0, 2.0, 9)
        one = dynamics_sweep([0.2, 0.3, 0.45], 3, "one", times)
        two = dynamics_sweep([0.2, 0.3, 0.45], 3, "two", times)
        assert np.all(two.n2_t[1:] < one.n2_t[1:])

    def test_joint_freeze_and_decay_assertion(self):
        times = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        trace = dynamics_sweep([0.2, 0.3, 0.45], 3, "one", times)
        np.testing.assert_allclose(trace.n1_t, 0.45, atol=1e-9)
        assert np.all(np.diff(trace.n2_t) < 0.0)

    def test_rejects_unphysical_start(self):
        # a state-invariant violation, as in make_bell_diagonal; the message
        # prints plain floats, not numpy reprs
        message = r"initial triple \(1\.0, 1\.0, 1\.0\) is not physical"
        with pytest.raises(StateInvariantError, match=message):
            dynamics_sweep([1.0, 1.0, 1.0], 3, "one", np.array([0.0]))

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_values_match_the_two_qubit_closed_forms(self, sided):
        times = np.linspace(0.0, 5.0, 41)
        for c0, axis in (([0.2, 0.3, 0.45], 3), ([0.1, -0.35, 0.2], 2), ([-0.5, 0.1, 0.3], 1)):
            trace = dynamics_sweep(c0, axis, sided, times)
            for c, n1, n2 in zip(trace.c_t, trace.n1_t, trace.n2_t):
                rho = make_bell_diagonal(c)
                assert abs(n1 - trace_min_two_qubit(rho).value) <= 1e-15
                assert abs(n2 - hs_min_two_qubit(rho).value) <= 1e-15


class TestFreezingRegion:
    def test_reference_points(self):
        assert classify_freezing([0.2, 0.3, 0.45], 3) == "inside"
        assert classify_freezing([0.45, 0.3, 0.2], 3) == "outside"
        assert classify_freezing([1 / 3, 1 / 3, 1 / 3], 3) == "boundary"
        assert classify_freezing([0.0, 0.0, 0.0], 3) == "boundary"

    def test_axis3_vertices_exact(self):
        pos, neg = freezing_vertices(3)
        expected_pos = [
            (0.0, 0.0, 0.0),
            (1.0, -1.0, 1.0),
            (-1.0, 1.0, 1.0),
            (1 / 3, 1 / 3, 1 / 3),
            (-1 / 3, -1 / 3, 1 / 3),
        ]
        expected_neg = [
            (0.0, 0.0, 0.0),
            (1.0, 1.0, -1.0),
            (-1.0, -1.0, -1.0),
            (1 / 3, -1 / 3, -1 / 3),
            (-1 / 3, 1 / 3, -1 / 3),
        ]
        assert np.abs(np.array(pos) - np.array(expected_pos)).max() <= 1e-12
        assert np.abs(np.array(neg) - np.array(expected_neg)).max() <= 1e-12

    def test_other_axes_swap_roles(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            from minkit.states import random_bell_triple

            c = random_bell_triple(rng)
            swapped = np.array([c[2], c[1], c[0]])
            assert classify_freezing(c, 1) == classify_freezing(swapped, 3)
            swapped2 = np.array([c[0], c[2], c[1]])
            assert classify_freezing(c, 2) == classify_freezing(swapped2, 3)

    def test_vertices_lie_on_region_boundary_and_tetrahedron(self):
        from minkit.states import in_tetrahedron

        for axis in (1, 2, 3):
            pos, neg = freezing_vertices(axis)
            for v in (*pos, *neg):
                assert in_tetrahedron(np.array(v))
                assert classify_freezing(v, axis) in ("inside", "boundary")

    def test_sampled_report(self):
        report = freezing_region(3, resolution=9)
        assert report["channel"] == "phase_flip"
        assert len(report["points"]) == len(report["flags"]) > 0
        for c, flag in zip(report["points"], report["flags"]):
            assert flag == classify_freezing(c, 3)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_batched_labels_match_row_by_row(self, axis):
        rng = np.random.default_rng(15)
        grid = np.linspace(-1.0, 1.0, 9)
        lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
        for stack in (lattice, rng.uniform(-1.0, 1.0, (40, 3))):
            flags = classify_freezing(stack, axis)
            assert flags.shape == stack.shape[:-1]
            rows = [classify_freezing(c, axis) for c in stack.reshape(-1, 3)]
            assert flags.reshape(-1).tolist() == rows
        assert type(classify_freezing(lattice[0, 0, 0], axis)) is str

    @pytest.mark.parametrize("resolution", [2, 5, 21, 33, 81])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_rows_match_per_point_loop(self, axis, resolution):
        points = _physical_lattice(resolution)
        report = freezing_region(axis, resolution=resolution)
        assert report["points"].dtype == np.float64 and report["points"].shape == (len(points), 3)
        assert list(map(tuple, report["points"].tolist())) == list(points)
        assert report["flags"].tolist() == [classify_freezing(np.array(c), axis) for c in points]

    def test_empty_without_resolution(self):
        report = freezing_region(3)
        assert report["points"].shape == (0, 3) and report["flags"].shape == (0,)

    def test_rejects_a_non_integer_resolution(self):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            freezing_region(3, 2.5)


@functools.lru_cache(maxsize=None)
def _physical_lattice(resolution):
    """Physical triples of the [-1, 1]^3 lattice, one point at a time."""
    grid = np.linspace(-1.0, 1.0, resolution)
    points = []
    for c1 in grid:
        for c2 in grid:
            for c3 in grid:
                if in_tetrahedron(np.array([c1, c2, c3])):
                    points.append((float(c1), float(c2), float(c3)))
    return tuple(points)


class TestMonotonicityAudit:
    def test_identity_channel_exact_equality(self):
        rho = random_density((2, 2), 3, 15)
        before = trace_min_numeric(rho).value
        after = trace_min_numeric(
            apply_channel_b(rho, kraus_channel([np.eye(2, dtype=complex)], "id"))
        ).value
        assert after == before

    def test_no_violations_on_seeded_pairs(self):
        report = monotonicity_audit(10, 4, seed=16)
        assert report["pairs"] == 40
        assert report["n_violations"] == 0
        assert report["max_increase"] <= 1e-8
        assert report["passed"] is True

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            monotonicity_audit(0, 1, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((1.5, 1, 0), "n_states must be an integer"),
        ((2, 1.5, 0), "n_channels must be an integer"),
    ])
    def test_rejects_a_non_integer_count(self, args, message):
        with pytest.raises(ValueError, match=message):
            monotonicity_audit(*args)

    def test_rejects_a_non_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            monotonicity_audit(1, 1, 1.5)

    @pytest.mark.parametrize(
        "args", [(50, 4, 42, None), (30, 3, 7, OptimizerConfig(degeneracy_tol=0.2))])
    def test_matches_the_pair_by_pair_audit(self, args):
        n_states, n_channels, seed, cfg = args
        report = monotonicity_audit(*args)
        expected, sphere = _pairwise_audit(*args)
        assert report["cases"] == expected
        assert report["pairs"] == n_states * n_channels
        assert report["max_increase"] == max(c["increase"] for c in expected)
        assert report["violations"] == [c for c in expected if c["violation"]]
        # at degeneracy_tol 0.2 some states take the qubit sphere
        assert (sphere > 0) == (cfg is not None)


def _pairwise_audit(n_states, n_channels, seed, cfg):
    """The audit's cases, one ``apply_channel_b`` and one ``trace_min_numeric``
    call per pair, and the number of sphere-branch values among them."""
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    states = [random_density((2, 2), rank=1 + (i % 4), seed=rng) for i in range(n_states)]
    channels = [random_channel(2, 1 + (j % 4), rng) for j in range(n_channels)]
    befores = [trace_min_numeric(s, cfg) for s in states]
    cases, sphere = [], sum(b.method == METHOD_SPHERE for b in befores)
    for i, (state, before) in enumerate(zip(states, befores)):
        for ch in channels:
            after = trace_min_numeric(apply_channel_b(state, ch), cfg)
            sphere += after.method == METHOD_SPHERE
            increase = after.value - before.value
            cases.append({
                "state": i,
                "channel": ch.label,
                "before": before.value,
                "after": after.value,
                "increase": increase,
                "tolerance": MONOTONICITY_TOL,
                "violation": bool(increase > MONOTONICITY_TOL),
            })
    return cases, sphere


class TestArgumentChecks:
    """A malformed axis, dimension, Kraus count or operator list raises
    ``ValueError`` naming the argument."""

    AXIS_CALLS = {
        "flip_channel": lambda axis: flip_channel(axis, 0.5),
        "dynamics_sweep": lambda axis: dynamics_sweep([0.2, 0.3, 0.45], axis, "one", [0.0, 1.0]),
        "freezing_vertices": freezing_vertices,
        "freezing_region": freezing_region,
        "classify_freezing": lambda axis: classify_freezing([0.2, 0.3, 0.45], axis),
    }

    @pytest.mark.parametrize("name", AXIS_CALLS)
    def test_axis_must_be_an_integer(self, name):
        with pytest.raises(ValueError, match="axis must be an integer"):
            self.AXIS_CALLS[name](1.0)

    @pytest.mark.parametrize("axis", [0, 4])
    def test_classify_freezing_rejects_an_axis_out_of_range(self, axis):
        with pytest.raises(ValueError, match="axis must be 1, 2 or 3"):
            classify_freezing([0.2, 0.3, 0.45], axis)

    @pytest.mark.parametrize("args, message", [
        ((2, 1.5, 0), "kraus_count must be an integer"),
        ((0, 1, 0), "d must be >= 1"),
    ])
    def test_random_channel_rejects_bad_sizes(self, args, message):
        with pytest.raises(ValueError, match=message):
            random_channel(*args)

    def test_random_channel_rejects_a_non_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            random_channel(2, 1, 1.5)

    def test_kraus_channel_rejects_an_empty_list(self):
        with pytest.raises(ValueError, match="ops must not be empty"):
            kraus_channel([])
