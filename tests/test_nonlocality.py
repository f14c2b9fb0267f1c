"""Closed-form MIN evaluators and the numeric optimizers that back them."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar import random_unitary
from minkit import fidelity, nonlocality
from minkit.channels import apply_channel_b, random_channel
from minkit.linalg import PAULIS, dagger, partial_trace, support_roots
from minkit.measurements import (
    _rank_one_projectors,
    _turned,
    apply_projectors,
    invariant_family,
    local_measurement,
    sphere_measurement,
)
from minkit.nonlocality import (
    METHOD_BLOCK,
    METHOD_SPHERE,
    METHOD_UNIQUE,
    DimensionLimitError,
    OptimizerConfig,
    _SMOOTHING,
    _BlockSearch,
    _canonical_axis,
    _haar_starts,
    _optimize,
    _pair_rotation,
    bures_min_numeric,
    closed_form,
    direction_objective,
    hs_min_isotropic,
    hs_min_numeric,
    hs_min_pure,
    hs_min_two_qubit,
    hs_min_werner,
    max_entangled_trace_min,
    oracle_audit,
    relation_audit,
    relation_report,
    sphere_directions,
    trace_min_isotropic,
    trace_min_numeric,
    trace_min_pure,
    trace_min_two_qubit,
    trace_min_werner,
)
from minkit.states import (
    _ginibre,
    _ginibre_density,
    _haar_q,
    bloch_decompose,
    bloch_matrix,
    canonicalize,
    density_from_pure,
    detect_family,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    max_entangled,
    pure_state,
    random_bell_triple,
    random_density,
    schmidt,
    validate,
)


def _family(rho):
    """The invariant-measurement family of rho_A."""
    return invariant_family(partial_trace(rho.mat, rho.dims, "B"))


def _member(fam, unitaries=()):
    """The member of ``fam`` turned by one unitary per degenerate block, as
    ``_optimize`` builds it, with the projector axioms checked."""
    return local_measurement(_rank_one_projectors(_turned(fam.basis, fam.blocks, unitaries)))


def _pure_two_level(l1: float, dims=(2, 2)):
    v = np.zeros(dims[0] * dims[1], dtype=complex)
    v[0] = math.sqrt(l1)
    v[dims[1] + 1] = math.sqrt(1.0 - l1)
    return pure_state(v, dims)


class TestPureClosedForms:
    def test_balanced(self):
        form = schmidt(_pure_two_level(0.5))
        assert trace_min_pure(form) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        form = schmidt(_pure_two_level(1.0))
        assert trace_min_pure(form) == pytest.approx(0.0, abs=1e-9)

    def test_skewed_against_numeric_oracle(self):
        psi = _pure_two_level(0.9)
        form = schmidt(psi)
        assert trace_min_pure(form) == pytest.approx(0.6, abs=1e-12)
        numeric = trace_min_numeric(density_from_pure(psi))
        assert numeric.value == pytest.approx(0.6, abs=1e-9)

    def test_rejects_higher_schmidt_rank(self):
        psi = pure_state(max_entangled(3), (3, 3))
        with pytest.raises(ValueError, match="Schmidt"):
            trace_min_pure(schmidt(psi))

    def test_hs_value(self):
        form = schmidt(_pure_two_level(0.9))
        assert hs_min_pure(form) == pytest.approx(2 * 0.9 * 0.1, abs=1e-12)


class TestMaxEntangled:
    def test_values(self):
        assert max_entangled_trace_min(2) == pytest.approx(1.0)
        assert max_entangled_trace_min(3) == pytest.approx(4.0 / 3.0)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            max_entangled_trace_min(1)

    def test_numeric_cross_check_3x3(self):
        rho = density_from_pure(pure_state(max_entangled(3), (3, 3)))
        numeric = trace_min_numeric(rho)
        assert abs(numeric.value - 4.0 / 3.0) <= 1e-3


class TestTwoQubitClosedForm:
    def test_reference_bell_diagonal(self):
        rho = make_bell_diagonal([0.45, 0.3, 0.2])
        assert trace_min_two_qubit(rho).value == pytest.approx(0.45, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(30)
        rho = validate(
            np.kron(random_density((1, 2), 2, rng).mat, random_density((1, 2), 2, rng).mat),
            (2, 2),
        )
        assert trace_min_two_qubit(rho).value <= 1e-9

    def test_oracle_equivalence_nondegenerate(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            rho = random_density((2, 2), 1 + checked % 4, rng)
            if np.linalg.norm(bloch_decompose(rho).x) <= 0.1:
                continue
            checked += 1
            closed = trace_min_two_qubit(rho).value
            numeric = trace_min_numeric(rho)
            assert numeric.method == METHOD_UNIQUE
            assert abs(closed - numeric.value) <= 1e-8

    def test_axis_aligned_marginal_reduces_to_transverse_max(self):
        # with the local vector on a tensor axis, the unique measurement
        # preserves that axis and the value is the larger transverse entry
        c = np.array([0.2, 0.3, 0.45])
        # the perturbation shifts eigenvalues by eps/4; the smallest Bell
        # weight here is 0.0125, so eps must stay below 0.05
        for eps in (0.04, 1e-2, 1e-4):
            mat = bloch_matrix(np.array([eps, 0.0, 0.0]), np.zeros(3), np.diag(c))
            rho = validate(mat, (2, 2))
            assert trace_min_two_qubit(rho).value == pytest.approx(0.45, abs=1e-10)

    def test_degenerate_branch_discontinuity_probe(self):
        c = np.array([0.2, 0.3, 0.45])
        eps = 1e-4
        mat = bloch_matrix(np.array([eps, 0.0, 0.0]), np.zeros(3), np.diag(c))
        rho = validate(mat, (2, 2))
        numeric = trace_min_numeric(rho)
        assert numeric.method == METHOD_UNIQUE
        limit = max(abs(c[1]), abs(c[2]))
        assert abs(numeric.value - limit) <= 1e-6
        # the x = 0 branch on the same tensor gives the overall maximum
        assert trace_min_two_qubit(make_bell_diagonal(c)).value == pytest.approx(0.45)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError, match="dims"):
            trace_min_two_qubit(random_density((2, 3), 2, 0))


class TestTwoQubitHs:
    def test_reference_bell_diagonal(self):
        rho = make_bell_diagonal([0.45, 0.3, 0.2])
        assert hs_min_two_qubit(rho).value == pytest.approx(0.073125, abs=1e-12)

    def test_maximally_mixed(self):
        rho = validate(np.eye(4, dtype=complex) / 4, (2, 2))
        assert hs_min_two_qubit(rho).value <= 1e-15

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(32)
        for k in range(10):
            rho = random_density((2, 2), 1 + k % 4, rng)
            fam = _family(rho)
            if fam.kind != "unique":
                continue
            post = apply_projectors(rho.mat, _member(fam), 2)
            direct = float((np.abs(rho.mat - post) ** 2).sum())
            assert abs(hs_min_two_qubit(rho).value - direct) <= 1e-12

    def test_ordering_disagreement_between_measures(self):
        wide = make_bell_diagonal([0.45, 0.3, 0.2])
        narrow = make_bell_diagonal([0.45, 0.1, 0.1])
        assert trace_min_two_qubit(wide).value == pytest.approx(
            trace_min_two_qubit(narrow).value, abs=1e-12
        )
        assert abs(hs_min_two_qubit(wide).value - hs_min_two_qubit(narrow).value) > 1e-3


def _old_two_qubit_closed_forms(rho, degenerate_tol=1e-8):
    """The closed forms that the singular values of the projected tensor
    replaced, kept as a reference: the state is rotated to a diagonal
    tensor by ``canonicalize`` and the trace value of the nondegenerate
    branch, (sqrt(chi+) + sqrt(chi-)) / (2|x|), takes the discriminant
    chi+ chi- in exact rational arithmetic.  Returns (trace, HS)."""
    _, form = canonicalize(rho)
    c, x = form.c, form.x
    xn = float(np.linalg.norm(x))
    if xn <= degenerate_tol:
        a = np.sort(np.abs(c))[::-1]
        return float(a[0]), float(a[0] ** 2 + a[1] ** 2) / 4.0
    hs = float((c**2).sum() - ((c * x / xn) ** 2).sum()) / 4.0
    q = [Fraction(float(v)) ** 2 for v in c]
    u = [Fraction(float(v)) ** 2 for v in x]
    xsq = u[0] + u[1] + u[2]
    alpha = q[0] * (u[1] + u[2]) + q[1] * (u[2] + u[0]) + q[2] * (u[0] + u[1])
    beta = u[0] * q[1] * q[2] + u[1] * q[2] * q[0] + u[2] * q[0] * q[1]
    disc = alpha * alpha - 4 * xsq * beta
    chi_p = float(alpha) + 2.0 * math.sqrt(max(float(xsq * beta), 0.0))
    if chi_p <= 0.0:
        return 0.0, hs
    chi_m = max(float(disc), 0.0) / chi_p
    return (math.sqrt(chi_p) + math.sqrt(chi_m)) / (2.0 * math.sqrt(float(xsq))), hs


class TestTwoQubitReference:
    def test_matches_old_closed_forms(self):
        rng = np.random.default_rng(35)
        states = [random_density((2, 2), 1 + k % 4, rng) for k in range(200)]
        states += [_rotated_bell_diagonal(rng) for _ in range(20)]
        states += [_filtered((2, 2), 2 + k % 3, rng) for k in range(20)]
        for rho in states:
            trace, hs = _old_two_qubit_closed_forms(rho)
            assert abs(trace_min_two_qubit(rho).value - trace) <= 2e-15
            assert abs(hs_min_two_qubit(rho).value - hs) <= 2e-15

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 1e-12, 0.0])
    def test_near_product_pure_states(self, eps):
        # the lesser singular value of the disturbance nearly vanishes here:
        # the cancellation the exact-rational discriminant guarded against
        rng = np.random.default_rng(36)
        for _ in range(10):
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            psi = pure_state(u @ _pure_two_level(1.0 - eps).amplitudes, (2, 2))
            l1, l2 = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False) ** 2
            rho = density_from_pure(psi)
            assert abs(trace_min_two_qubit(rho).value - 2.0 * math.sqrt(l1 * l2)) <= 1e-15
            assert abs(hs_min_two_qubit(rho).value - 2.0 * l1 * l2) <= 1e-15


class TestWernerIsotropicClosedForms:
    def test_werner_values(self):
        assert trace_min_werner(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        for d in (2, 3, 4):
            assert trace_min_werner(d, 1.0 / d) == 0.0

    def test_werner_numeric_cross_check(self):
        for d, x in ((2, 1.0), (3, -1.0)):
            numeric = trace_min_numeric(make_werner(d, x))
            assert abs(trace_min_werner(d, x) - numeric.value) <= 1e-3

    def test_isotropic_values(self):
        for d in (2, 3):
            assert trace_min_isotropic(d, 1.0) == pytest.approx(2.0 * (d - 1) / d, abs=1e-12)
            assert trace_min_isotropic(d, 1.0 / d**2) <= 1e-15

    def test_isotropic_numeric_cross_check(self):
        numeric = trace_min_numeric(make_isotropic(2, 0.8))
        assert abs(trace_min_isotropic(2, 0.8) - numeric.value) <= 1e-3

    def test_range_errors(self):
        with pytest.raises(ValueError):
            trace_min_werner(2, 2.0)
        with pytest.raises(ValueError):
            trace_min_isotropic(2, -0.5)
        with pytest.raises(ValueError):
            hs_min_werner(1, 0.0)
        with pytest.raises(ValueError):
            hs_min_isotropic(2, 1.5)


class TestDirectionObjective:
    def test_sorted_frame_mid_axis_reaches_maximum(self):
        c = np.array([0.45, 0.3, 0.2])
        # sorted-frame (theta=pi/2, phi=pi/2) is the mid-magnitude axis
        h = direction_objective([0.0, 1.0, 0.0], c)
        assert h == pytest.approx(2 * 0.45**2, abs=1e-12)

    def test_isotropic_triple_direction_independent(self):
        rng = np.random.default_rng(33)
        c = np.array([0.3, 0.3, 0.3])
        vals = []
        for _ in range(10):
            e = rng.standard_normal(3)
            vals.append(direction_objective(e / np.linalg.norm(e), c))
        assert np.ptp(vals) <= 1e-12

    def test_matches_direct_trace_norm_route(self):
        rng = np.random.default_rng(34)
        c = np.array([0.45, 0.3, 0.2])
        rho = make_bell_diagonal(c)
        for _ in range(25):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            post = apply_projectors(rho.mat, sphere_measurement(e), 2)
            direct = float(np.abs(np.linalg.eigvalsh(rho.mat - post)).sum())
            h = direction_objective(e, c)
            assert abs(0.5 * math.sqrt(2.0 * h) - direct) <= 1e-10

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            direction_objective([1.0, 1.0, 1.0], [0.3, 0.2, 0.1])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="unit"):
                direction_objective([bad, 0.0, 0.0], [0.3, 0.2, 0.1])
            with pytest.raises(ValueError, match="unit"):
                direction_objective([0.0, 1.0, bad], [0.3, 0.2, 0.1])

    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(37)
        c = np.array([0.45, -0.3, 0.2])
        e = rng.standard_normal((50, 3))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        stacked = direction_objective(e, c)
        assert stacked.shape == (50,)
        rows = [direction_objective(v, c) for v in e]
        assert all(isinstance(v, float) for v in rows)
        np.testing.assert_allclose(stacked, rows, rtol=0.0, atol=1e-15)

    def test_stack_with_one_bad_row_raises(self):
        e = np.array([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unit"):
            direction_objective(e, [0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="unit"):
            direction_objective(np.array([[1.0, 0.0, 0.0], [0.6, 0.6, 0.0]]), [0.3, 0.2, 0.1])


class TestOptimizerConfig:
    def test_validation(self):
        for tol in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                OptimizerConfig(tol=tol)
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=0)
        for tol in (-1e-8, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="degeneracy_tol"):
                OptimizerConfig(degeneracy_tol=tol)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(seed=0).seed == 0
        # a float would fail later inside numpy with a TypeError
        with pytest.raises(ValueError, match="restarts must be an integer"):
            OptimizerConfig(restarts=2.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            OptimizerConfig(seed=1.5)
        cfg = OptimizerConfig(restarts=np.int64(3), seed=np.uint32(7))
        assert (cfg.restarts, cfg.seed) == (3, 7)

    def test_sphere_grid_contains_coordinate_axes(self):
        _, vecs = sphere_directions(64)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.min(np.linalg.norm(vecs - axis, axis=1)) <= 1e-15

    def test_sphere_grid_rejects_a_bad_size(self):
        # n = 0 divided by zero, n = -1 gave an empty grid
        for n in (0, -1, np.int64(-4)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                sphere_directions(n)
        for n in (4.0, 2.5, "8", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                sphere_directions(n)
        angles, vecs = sphere_directions(np.int64(1))
        assert angles.shape == (2, 2) and vecs.shape == (2, 3)


class TestNumericOptimizers:
    def test_product_state_zero(self):
        # rho_A x rho_B takes the unique branch, I/dA x rho_B the sphere or
        # block branch; no measurement disturbs either, and the value stays
        # non-negative: on about a third of these states the unclipped fidelity
        # rounds above 1
        rng = np.random.default_rng(35)
        for da, db in ((2, 2), (2, 3), (3, 2), (4, 2)) * 4:
            rho_b = random_density((1, db), db - 1, rng).mat
            wide = METHOD_SPHERE if da == 2 else METHOD_BLOCK
            for rho_a, method in ((random_density((1, da), da, rng).mat, METHOD_UNIQUE),
                                  (np.eye(da) / da, wide)):
                rho = validate(np.kron(rho_a, rho_b), (da, db))
                for numeric_min in _NUMERIC_MIN.values():
                    res = numeric_min(rho)
                    assert res.method == method
                    assert 0.0 <= res.value <= 2e-12

    def test_sphere_oracle_on_bell_diagonal(self):
        rng = np.random.default_rng(36)
        for _ in range(15):
            c = random_bell_triple(rng)
            numeric = trace_min_numeric(make_bell_diagonal(c))
            assert numeric.method == METHOD_SPHERE
            assert abs(numeric.value - np.abs(c).max()) <= 1e-4

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        for rho in (random_density((2, 2), 3, rng), make_bell_diagonal([0.4, -0.2, 0.1])):
            base = trace_min_numeric(rho).value
            for _ in range(10):
                u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
                rotated = validate(u @ rho.mat @ dagger(u), (2, 2))
                assert abs(trace_min_numeric(rotated).value - base) <= 2e-4

    def test_two_by_n_bounded_by_one(self):
        rng = np.random.default_rng(38)
        for k in range(8):
            rho = random_density((2, 3), 1 + k % 6, rng)
            val = trace_min_numeric(rho).value
            assert -1e-12 <= val <= 1.0 + 1e-9

    def test_bures_range(self):
        rng = np.random.default_rng(39)
        for k in range(5):
            rho = random_density((2, 2), 1 + k % 4, rng)
            val = bures_min_numeric(rho).value
            assert -1e-12 <= val <= 2.0

    def test_dimension_bound(self):
        rho = random_density((3, 27), 2, 0)
        with pytest.raises(DimensionLimitError):
            trace_min_numeric(rho)

    def test_seed_determinism(self):
        rho = make_bell_diagonal([0.31, 0.22, 0.4])
        cfg = OptimizerConfig(seed=123)
        a = trace_min_numeric(rho, cfg)
        b = trace_min_numeric(rho, cfg)
        assert a.value == b.value
        np.testing.assert_array_equal(a.axis, b.axis)


class TestBatchedOptimize:
    """``_optimize`` on a list of states against one call per state."""

    @staticmethod
    def _mixed_states():
        """Two-qubit states of ranks 1-4 with |x| > 0.05, a Bell-diagonal state
        and an x = 0 state that is not Bell-diagonal, interleaved."""
        rng = np.random.default_rng(2015)
        states = []
        while len(states) < 8:
            rho = random_density((2, 2), 1 + len(states) % 4, rng)
            if np.linalg.norm(bloch_decompose(rho).x) > 0.05:
                states.append(rho)
        t = np.array([[0.3, 0.1, 0.0], [0.0, -0.2, 0.05], [0.1, 0.0, 0.25]])
        odd = validate(bloch_matrix(np.zeros(3), np.array([0.0, 0.1, 0.2]), t), (2, 2))
        assert detect_family(odd)[0] == "generic"
        states.insert(2, make_bell_diagonal([0.45, -0.3, 0.2]))
        states.insert(6, odd)
        return states

    @staticmethod
    def _assert_same(got, one):
        """``got`` is bitwise ``one``: value, method, iterations, axis and projectors."""
        assert got.value == one.value
        assert (got.method, got.iterations) == (one.method, one.iterations)
        if one.axis is None:
            assert got.axis is None
        else:
            np.testing.assert_array_equal(got.axis, one.axis)
        assert len(got.measurement.projectors) == len(one.measurement.projectors)
        for p, q in zip(got.measurement.projectors, one.measurement.projectors):
            np.testing.assert_array_equal(p, q)

    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_matches_one_call_per_state(self, which):
        states = self._mixed_states()
        batch = _optimize(states, OptimizerConfig(), which)
        assert [r.method for r in batch] == [METHOD_UNIQUE] * 2 + [METHOD_SPHERE] + \
            [METHOD_UNIQUE] * 3 + [METHOD_SPHERE] + [METHOD_UNIQUE] * 3
        for rho, got in zip(states, batch):
            self._assert_same(got, _NUMERIC_MIN[which](rho))

    @staticmethod
    def _calls():
        """One state list per dims, with unique-branch states interleaved:
        2x2 Bell-diagonal states of rank 4 and 3, one under local unitaries
        and an x = 0 state that is not Bell-diagonal (the qubit sphere), and
        one whose start U = I is a critical point below its maximum, so that
        its pick is not the first start and its best sits below the others';
        filtered 2x3 states of ranks 3 and 6, so that Bures mixes support
        ranks; 3x3 Werner and isotropic states (one block of size 3) and
        split marginals (blocks of size 2 and 1)."""
        rng = np.random.default_rng(2017)
        t = np.array([[0.3, 0.1, 0.0], [0.0, -0.2, 0.05], [0.1, 0.0, 0.25]])
        odd = validate(bloch_matrix(np.zeros(3), np.array([0.0, 0.1, 0.2]), t), (2, 2))
        two = [make_bell_diagonal([0.45, -0.3, 0.2]), random_density((2, 2), 3, rng),
               _rotated_bell_diagonal(rng), make_bell_diagonal([0.4, 0.0, 0.6]),
               random_density((2, 2), 1, rng), odd, random_density((2, 2), 4, rng),
               make_bell_diagonal([0.05, -0.1, 0.3])]
        three = [_filtered((2, 3), 3, rng), random_density((2, 3), 4, rng), _filtered((2, 3), 6, rng),
                 _filtered((2, 3), 3, rng), random_density((2, 3), 2, rng), _filtered((2, 3), 6, rng)]
        nine = [make_werner(3, 0.3), random_density((3, 3), 4, rng),
                _split_state((3, 3), (0.4, 0.4, 0.2), 9, rng), make_isotropic(3, 0.6),
                random_density((3, 3), 9, rng), _split_state((3, 3), (0.4, 0.4, 0.2), 5, rng)]
        return two, three, nine

    @pytest.mark.parametrize("cfg", [OptimizerConfig(), OptimizerConfig(restarts=2, seed=11)],
                             ids=["default", "restarts2-seed11"])
    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_every_search_shape_matches_one_call_per_state(self, which, cfg):
        two, three, nine = self._calls()
        assert {np.linalg.matrix_rank(rho.mat, tol=1e-10) for rho in (two[0], two[3])} == {4, 3}
        assert {np.linalg.matrix_rank(rho.mat, tol=1e-10) for rho in three[::3]} == {3}
        assert {np.linalg.matrix_rank(rho.mat, tol=1e-10) for rho in three[2::3]} == {6}
        shapes = {_family(rho).blocks for rho in nine}
        assert {((0, 3),), ((0, 2), (2, 1)), ((0, 1), (1, 1), (2, 1))} <= shapes
        for states, branch in ((two, METHOD_SPHERE), (three, METHOD_SPHERE), (nine, METHOD_BLOCK)):
            batch = _optimize(states, cfg, which)
            assert {r.method for r in batch} == {METHOD_UNIQUE, branch}
            for rho, got in zip(states, batch):
                self._assert_same(got, _NUMERIC_MIN[which](rho, cfg))

    @pytest.mark.parametrize("audit, args, calls", [
        (oracle_audit, (6, 3), [(6, "trace"), (3, "trace")]),
        # Werner d = 2 and isotropic d = 2, Bell-diagonal and 2x2 pure states;
        # Werner and isotropic d = 3; Werner d = 4; 2x3 pure states
        (relation_audit, (4, 5), [(27, "hs"), (22, "hs"), (11, "hs"), (1, "hs")]),
    ], ids=["oracle_audit", "relation_audit"])
    def test_audits_take_one_call_per_case_set(self, audit, args, calls, monkeypatch):
        seen = []

        def spy(rhos, cfg, which):
            seen.append((len(rhos), which))
            return _optimize(rhos, cfg, which)

        monkeypatch.setattr(nonlocality, "_optimize", spy)
        assert audit(*args)["passed"] is True
        assert seen == calls

    def test_rejects_mixed_dims(self):
        rng = np.random.default_rng(2016)
        with pytest.raises(ValueError, match="share their dims"):
            _optimize([random_density((2, 2), 2, rng), random_density((2, 3), 2, rng)],
                      OptimizerConfig(), "trace")


class TestHaarStarts:
    def test_match_the_per_start_loop(self):
        # blocks of two sizes, the size-2 ones apart: the draws go start by
        # start and block by block, as one random_unitary call each did
        # from default_rng(seed); memoized, so one read-only array per key
        blocks, da, count = ((0, 2), (2, 3), (5, 1), (6, 2)), 8, 6
        got = _haar_starts(blocks, da, count, 77)
        again = np.random.default_rng(77)
        expected = np.tile(np.eye(da, dtype=complex), (count, 1, 1))
        for start in expected:
            for off, size in blocks:
                if size >= 2:
                    start[off : off + size, off : off + size] = random_unitary(size, again)
        assert got.tobytes() == expected.tobytes()
        assert _haar_starts(blocks, da, count, 77) is got and not got.flags.writeable
        assert _haar_starts(blocks, da, count, 78).tobytes() != got.tobytes()


class TestRelationReport:
    def test_pure(self):
        rep = relation_report(density_from_pure(_pure_two_level(0.9)))
        assert rep["family"] == "pure"
        assert rep["residual"] <= 1e-10

    def test_bell_diagonal_reference(self):
        rep = relation_report(make_bell_diagonal([0.45, 0.3, 0.2]))
        assert rep["lhs"] == pytest.approx(0.45, abs=1e-12)
        assert rep["rhs"] == pytest.approx(math.sqrt(4 * 0.073125 - 0.09), abs=1e-10)
        assert rep["residual"] <= 1e-10

    def test_werner(self):
        rep = relation_report(make_werner(2, 1.0))
        assert rep["lhs"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep["residual"] <= 1e-10

    def test_isotropic(self):
        rep = relation_report(make_isotropic(3, 0.9))
        assert rep["residual"] <= 1e-10

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="family"):
            relation_report(random_density((2, 2), 4, 41))


class TestAudits:
    def test_relation_audit_passes(self):
        report = relation_audit(7, 5)
        # 33 Werner, 22 isotropic, 7 Bell-diagonal and 7 // 2 pure states
        assert report["n_cases"] == 65
        # the pure states come last, at the looser tolerance
        assert [c["tolerance"] for c in report["cases"]] == [1e-10] * 62 + [1e-8] * 3
        assert report["n_failures"] == 0
        assert report["max_residual"] <= 1e-8
        assert report["passed"] is True

    def test_oracle_audit_passes(self):
        report = oracle_audit(6, 3)
        assert len(report["generic"]) == 6 and len(report["sphere"]) == 3
        assert {c["method"] for c in report["generic"]} == {METHOD_UNIQUE}
        assert {c["method"] for c in report["sphere"]} == {METHOD_SPHERE}
        assert report["passed"] is True

    @pytest.mark.parametrize("degeneracy_tol", [0.2, 0.5, 0.9])
    def test_oracle_audit_passes_above_the_generic_filter(self, degeneracy_tol):
        # with |x| <= degeneracy_tol a state takes the sphere branch, so the
        # generic ensemble must sit above the threshold too
        report = oracle_audit(20, 42, OptimizerConfig(degeneracy_tol=degeneracy_tol))
        assert {c["method"] for c in report["generic"]} == {METHOD_UNIQUE}
        assert report["max_residual_unique"] <= 1e-12
        assert report["passed"] is True

    def test_oracle_audit_rejects_an_unreachable_filter(self):
        with pytest.raises(ValueError, match="degeneracy_tol below 1"):
            oracle_audit(2, 0, OptimizerConfig(degeneracy_tol=1.0))

    @pytest.mark.parametrize("audit", [relation_audit, oracle_audit])
    def test_rejects_bad_counts(self, audit):
        with pytest.raises(ValueError, match="counts"):
            audit(0, 0)

    @pytest.mark.parametrize("audit", [relation_audit, oracle_audit])
    def test_rejects_a_non_integer_count(self, audit):
        with pytest.raises(ValueError, match="counts must be an integer"):
            audit(1.5, 0)

    @pytest.mark.parametrize("audit", [relation_audit, oracle_audit])
    def test_rejects_a_non_integer_seed(self, audit):
        with pytest.raises(ValueError, match="seed must be an integer"):
            audit(1, 1.5)


class TestClosedForm:
    def test_family_values(self):
        bd = make_bell_diagonal([0.45, 0.3, 0.2])
        assert closed_form(bd, "n1") == pytest.approx(0.45, abs=1e-12)
        assert closed_form(bd, "n2") == pytest.approx(0.073125, abs=1e-12)
        assert closed_form(make_werner(3, 0.7), "n1") == pytest.approx(trace_min_werner(3, 0.7))
        assert closed_form(make_isotropic(3, 0.9), "n2") == pytest.approx(
            hs_min_isotropic(3, 0.9)
        )
        generic = random_density((2, 2), 3, 5)
        assert closed_form(generic, "n1") == trace_min_two_qubit(generic).value
        assert closed_form(generic, "n2") == hs_min_two_qubit(generic).value

    def test_none_without_closed_form(self):
        assert closed_form(make_bell_diagonal([0.45, 0.3, 0.2]), "nb") is None
        assert closed_form(random_density((2, 3), 3, 6), "n1") is None

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            closed_form(make_bell_diagonal([0.1, 0.1, 0.1]), "n3")


# Correlation triples of the four Bell states; a convex combination with
# weights w gives the Bell-diagonal state with eigenvalues w.
_BELL_TRIPLES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


class TestDegeneracyThreshold:
    """Closed forms and numeric oracles split the branches at the same |x|."""

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(1.0, 2.0), min_size=4, max_size=4),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        y=st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
        log_tol=st.floats(-7.0, -5.0),
        factor=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)),
        seed=st.integers(0, 10_000),
    )
    def test_closed_and_numeric_take_the_same_branch(
        self, weights, direction, y, log_tol, factor, seed
    ):
        tol = 10.0**log_tol
        # every Bell weight is at least 1/7, far above the (|x| + |y|)/4 shift
        c = np.array(weights) / sum(weights) @ _BELL_TRIPLES
        x = tol * factor * np.array(direction) / np.linalg.norm(direction)
        rng = np.random.default_rng(seed)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        mat = bloch_matrix(x, np.array(y), np.diag(c))
        rho = validate(u @ mat @ dagger(u), (2, 2))
        degenerate = factor < 1.0
        cfg = OptimizerConfig(degeneracy_tol=tol)
        for measure, numeric_min in (("n1", trace_min_numeric), ("n2", hs_min_numeric)):
            closed = closed_form(rho, measure, tol)
            numeric = numeric_min(rho, cfg)
            assert numeric.method == (METHOD_SPHERE if degenerate else METHOD_UNIQUE)
            assert abs(closed - numeric.value) <= (1e-4 if degenerate else 1e-8)

    @pytest.mark.parametrize("measure", ["n1", "n2"])
    @pytest.mark.parametrize("tol", [2.0**-20, 0.0])
    def test_exact_threshold_is_degenerate_on_both_sides(self, measure, tol):
        # dyadic entries make |x| and the marginal gap exactly tol; x lies
        # along the largest correlation, where the two branches differ most,
        # and y != 0 keeps the state out of the Bell-diagonal family
        c = np.diag([0.25, 0.125, 0.5])
        y = np.array([0.0625, 0.0, 0.0])
        rho = validate(bloch_matrix(np.array([0.0, 0.0, tol]), y, c), (2, 2))
        numeric_min = {"n1": trace_min_numeric, "n2": hs_min_numeric}[measure]
        numeric = numeric_min(rho, OptimizerConfig(degeneracy_tol=tol))
        assert numeric.method == METHOD_SPHERE
        assert abs(closed_form(rho, measure, tol) - numeric.value) <= 1e-4

    def test_cli_passes_the_tolerance(self, tmp_path, capsys):
        from minkit.cli import main
        from minkit.states import save_state

        # |x| = 5e-5 along the largest correlation: below a 1e-4 threshold the
        # state is on the sphere branch (value 0.45), above 1e-8 on the
        # unique branch (value 0.3)
        c = np.array([0.2, 0.3, 0.45])
        rho = validate(bloch_matrix(np.array([0.0, 0.0, 5e-5]), np.zeros(3), np.diag(c)), (2, 2))
        path = tmp_path / "near.json"
        save_state(rho, path)
        for tol, value in (("1e-4", 0.45), ("1e-8", 0.3)):
            assert main(["compute", str(path), "--degeneracy-tol", tol]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["value"] == pytest.approx(value, abs=1e-4)
            assert payload["residual_vs_oracle"] <= 1e-4


# ---------------------------------------------------------------------------
# Sphere branch: the one-block case of the block search
# ---------------------------------------------------------------------------


def _filtered(dims, rank, rng):
    """Random state locally filtered to rho_A = I/dA: (rho_A^-1/2 x I) rho (rho_A^-1/2 x I) / dA."""
    rho = random_density(dims, rank, rng)
    w, v = np.linalg.eigh(partial_trace(rho.mat, rho.dims, "B"))
    f = np.kron((v / np.sqrt(w)) @ dagger(v), np.eye(dims[1]))
    return validate(f @ rho.mat @ dagger(f) / dims[0], dims)


def _rotated_bell_diagonal(rng):
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rho = make_bell_diagonal(random_bell_triple(rng))
    return validate(u @ rho.mat @ dagger(u), (2, 2))


def _sphere_states(seed):
    rng = np.random.default_rng(seed)
    return [
        make_bell_diagonal(random_bell_triple(rng)),
        _rotated_bell_diagonal(rng),
        _filtered((2, 3), 3, rng),
    ]


def _gammas(rho):
    """Gamma_i = tr_A[(sigma_i x I) rho] for i = x, y, z."""
    dims = rho.dims
    return [partial_trace(np.kron(s, np.eye(dims[1])) @ rho.mat, dims, "A") for s in PAULIS]


def _gram(rho):
    """G_ij = tr(Gamma_i Gamma_j)."""
    gam = _gammas(rho)
    return np.array([[np.trace(a @ b).real for b in gam] for a in gam])


def _hs_gram_value(rho):
    """(tr G - lambda_min G) / 2 for the G of ``_gram``."""
    g = _gram(rho)
    return 0.5 * (np.trace(g) - np.linalg.eigvalsh(g)[0])


_NUMERIC_MIN = {"trace": trace_min_numeric, "hs": hs_min_numeric, "bures": bures_min_numeric}

_SPHERE_CONFIGS = [
    OptimizerConfig(),
    OptimizerConfig(restarts=7),
    OptimizerConfig(restarts=3, tol=1e-6),
]

# (trace, HS, Bures) of ``_sphere_states(seed)`` under each of
# ``_SPHERE_CONFIGS``, from the grid-plus-golden-section search that the
# sphere branch had before it became the one-block case of the block search
# (minkit 0.1.0 at commit 0c1214c, where the second and third configs also
# set sphere_grid=12 and refine_iters=4).
_GOLDEN_SEARCH_VALUES = {
    0: (
        ((0.9743541760878017, 0.24810373947506686, 0.4586488217365625),
         (0.9743541760878017, 0.24810373947506686, 0.4586488217365625),
         (0.9743541760878017, 0.24810373947506686, 0.4586488217365625)),
        ((0.8256672521283921, 0.17844542686030368, 0.25633280232253974),
         (0.8256672521283921, 0.17844542686030368, 0.25625652740075733),
         (0.825667252128392, 0.17844542686030368, 0.2563294348929319)),
        ((0.7541398809518364, 0.14629242125076802, 0.33478614921472394),
         (0.7541398809518368, 0.14629242125076802, 0.33478614921470307),
         (0.7541398809320539, 0.14629242125076802, 0.3347861492146942)),
    ),
    1: (
        ((0.8105159451064678, 0.257908430722397, 0.24881217909326736),
         (0.8105159451064678, 0.257908430722397, 0.2488121790932667),
         (0.8105159451064678, 0.257908430722397, 0.2488121790932667)),
        ((0.41508903668817654, 0.048615359925947205, 0.05017827717052992),
         (0.4150890366881759, 0.048615359925947205, 0.05017827820166243),
         (0.4150890366881765, 0.048615359925947205, 0.05017764099836919)),
        ((0.8582650972719063, 0.18941535041870972, 0.4034947402021887),
         (0.8582650972718094, 0.18941535041870972, 0.40349474020229614),
         (0.8582650945063008, 0.18941535041870972, 0.40349473874241215)),
    ),
    2: (
        ((0.5557573857867241, 0.08533955410994856, 0.09629596558068321),
         (0.5557573857867241, 0.08533955410994856, 0.09629596558068299),
         (0.5557573857867241, 0.08533955410994856, 0.09629596558068299)),
        ((0.6522113958290816, 0.11697059266273244, 0.17453810727557872),
         (0.652211395829081, 0.11697059266273244, 0.17453810727764862),
         (0.6522113958290816, 0.11697059266273244, 0.17453801932227364)),
        ((0.8124192958534298, 0.22253472644090555, 0.37428168618665736),
         (0.8124192958534167, 0.22253472644090555, 0.37428168618665514),
         (0.8124192958534298, 0.22253472644090555, 0.37428168618663316)),
    ),
}


class TestSphereAscent:
    """The qubit sphere through the block search, against the golden-section
    search it replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_not_below_the_golden_search(self, seed, which):
        k = ("trace", "hs", "bures").index(which)
        for rho, stored in zip(_sphere_states(seed), _GOLDEN_SEARCH_VALUES[seed]):
            for cfg, values in zip(_SPHERE_CONFIGS, stored):
                res = _NUMERIC_MIN[which](rho, cfg)
                assert res.method == METHOD_SPHERE
                assert res.value >= values[k] - 1e-12

    def test_beats_the_golden_search_where_it_fell_short(self):
        # each with the golden search's value at the default config
        cases = (
            (_filtered((2, 3), 2, np.random.default_rng(64)), "trace", 0.997858444473083),
            (_rotated_bell_diagonal(np.random.default_rng(107)), "bures", 0.25110868739100445),
        )
        for rho, which, golden in cases:
            res = _NUMERIC_MIN[which](rho)
            assert res.value >= golden + 1e-6
            assert abs(_NUMERIC_MIN[which](rho, OptimizerConfig(restarts=32)).value - res.value) <= 1e-12

    def test_converged_start_stops_on_its_predicted_gain(self):
        # a start whose trial step fails while its predicted gain is below
        # tol stops instead of halving the step some 34 more times
        res = trace_min_numeric(make_bell_diagonal([0.691, -0.076, 0.209]))
        assert res.value == pytest.approx(0.691, abs=1e-12)
        assert res.iterations <= 80

    def test_evaluation_ceiling(self):
        # summed evaluations of trace and Bures over the nine states of
        # ``_sphere_states`` at the default config, pinned so that a change
        # cannot add steps unnoticed
        total = sum(_NUMERIC_MIN[which](rho).iterations
                    for seed in (0, 1, 2) for rho in _sphere_states(seed)
                    for which in ("trace", "bures"))
        assert total <= 1955

    def test_flat_start_lengthens_its_step(self):
        # Bures on this rotated Bell-diagonal state has a start that makes
        # accepted steps without positive curvature; with t reset to 1 after
        # each of them it crept to the step cap (2,285 evaluations in all)
        res = bures_min_numeric(_sphere_states(9)[1])
        assert res.value >= 0.017469136749574288 - 1e-12
        assert res.iterations <= 400


class TestExactHsSphere:
    """HS MIN on the qubit sphere is (tr G - lambda_min G) / 2, reached at one direction."""

    @staticmethod
    def _states():
        rng = np.random.default_rng(2011)
        for n in (2, 3, 4):
            for rank in (1, 2, 2 * n):
                yield _filtered((2, n), rank, rng)
        for _ in range(4):
            yield _rotated_bell_diagonal(rng)

    def test_value_and_axis(self):
        for rho in self._states():
            res = hs_min_numeric(rho)
            assert res.method == METHOD_SPHERE
            assert abs(res.value - _hs_gram_value(rho)) <= 1e-12
            post = apply_projectors(rho.mat, sphere_measurement(res.axis), rho.db)
            assert abs(float((np.abs(rho.mat - post) ** 2).sum()) - res.value) <= 1e-12


def _value_at_axis(rho, which, axis):
    """The measure of the post-measurement matrix along ``axis``, built in full."""
    measurement = sphere_measurement(axis)
    if which == "bures":
        return _support_fidelity(rho, apply_projectors(rho.mat, measurement, rho.db))
    return _direct_value(rho, measurement, which)


class TestSphereKernel:
    """The qubit sphere as the one-block case of the block search: values
    against the post-measurement matrix at the returned axis, built and
    measured in full, and the axis itself."""

    @staticmethod
    def _states():
        rng = np.random.default_rng(2017)
        for n in (2, 3, 4):
            for rank in (1, 2, 2 * n):
                yield _filtered((2, n), rank, rng)

    @staticmethod
    def _zero_singular_state():
        """A 2x3 state with rho_A = I/2 whose B(e) = sum_i (f1 + i f2)_i Gamma_i
        has rank 2 for every e: a filtered 2x2 state embedded in B and mixed
        with noise, then turned by a Haar unitary on B so that the zero is
        not an exact zero."""
        rng = np.random.default_rng(2018)
        small = _filtered((2, 2), 3, rng).mat.reshape(2, 2, 2, 2)
        mat = np.zeros((2, 3, 2, 3), dtype=complex)
        mat[:, :2, :, :2] = small
        mat = 0.7 * mat.reshape(6, 6) + 0.3 * np.eye(6) / 6
        u = np.kron(np.eye(2), random_unitary(3, rng))
        return validate(u @ mat @ dagger(u), (2, 3))

    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_matches_the_full_post_measurement_matrix(self, which):
        for rho in self._states():
            res = _NUMERIC_MIN[which](rho)
            assert res.method == METHOD_SPHERE
            assert abs(_value_at_axis(rho, which, res.axis) - res.value) <= 1e-12

    def test_hs_is_the_gram_quadratic_form(self):
        for rho in self._states():
            axis = hs_min_numeric(rho).axis
            g = _gram(rho)
            expected = (np.trace(g) - axis @ g @ axis) / 2
            assert abs(_value_at_axis(rho, "hs", axis) - expected) <= 1e-13

    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_zero_singular_value(self, which):
        rho = self._zero_singular_state()
        gx, gy, _ = _gammas(rho)
        assert np.linalg.svd(gx + 1j * gy, compute_uv=False)[-1] <= 1e-15  # B(e) at e = z
        res = _NUMERIC_MIN[which](rho)
        assert abs(_value_at_axis(rho, which, res.axis) - res.value) <= 1e-12
        assert res.value >= _value_at_axis(rho, which, np.array([0.0, 0.0, 1.0])) - 1e-12

    def test_one_dimensional_b(self):
        # dB = 1 leaves rho = I/2 as the only state with a mixed qubit marginal
        rho = validate(np.eye(2, dtype=complex) / 2, (2, 1))
        for numeric_min in _NUMERIC_MIN.values():
            res = numeric_min(rho)
            assert res.method == METHOD_SPHERE
            assert abs(res.value) <= 1e-15

    def test_axis_in_the_canonical_hemisphere(self):
        rng = np.random.default_rng(12)
        states = [*_sphere_states(4), make_bell_diagonal([0.45, 0.3, 0.2]), _filtered((2, 4), 2, rng)]
        for rho in states:
            for numeric_min in (trace_min_numeric, hs_min_numeric, bures_min_numeric):
                axis = numeric_min(rho).axis
                leading = axis[::-1][axis[::-1] != 0.0]
                assert leading[0] > 0.0
                assert not np.signbit(axis[axis == 0.0]).any()

    def test_canonical_axis(self):
        for axis, expected in (([0.3, -0.5, 0.0], [-0.3, 0.5, 0.0]), ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0]),
                               ([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), ([-0.6, 0.0, 0.8], [-0.6, 0.0, 0.8])):
            got = _canonical_axis(np.array(axis))
            np.testing.assert_array_equal(got, expected)
            assert not np.signbit(got[got == 0.0]).any()


class TestFamilyTolerance:
    """The family flips only across the 1e-9 tolerance of detect_family, and
    the closed form it selects agrees with the numeric oracle on either side."""

    _TOLS = {METHOD_SPHERE: 1e-4, METHOD_UNIQUE: 1e-8, METHOD_BLOCK: 1e-3}

    @staticmethod
    def _agree(rho):
        for measure, numeric_min in (("n1", trace_min_numeric), ("n2", hs_min_numeric)):
            closed = closed_form(rho, measure)
            if closed is None:
                continue
            numeric = numeric_min(rho)
            assert abs(closed - numeric.value) <= TestFamilyTolerance._TOLS[numeric.method]

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.floats(1.0, 2.0), min_size=4, max_size=4),
        part=st.sampled_from(["x", "y", "t"]),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        factor=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)),
    )
    def test_bell_diagonal(self, weights, part, direction, factor):
        c = np.array(weights) / sum(weights) @ _BELL_TRIPLES
        size = factor * 1e-9
        u = size * np.array(direction) / np.linalg.norm(direction)
        x, y, t = np.zeros(3), np.zeros(3), np.diag(c)
        if part == "x":
            x = u
        elif part == "y":
            y = u
        else:
            t[0, 1] = size
        rho = validate(bloch_matrix(x, y, t), (2, 2))
        family, _ = detect_family(rho)
        assert (family == "bell_diagonal") == (factor < 1.0)
        self._agree(rho)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["werner", "isotropic"]),
        d=st.sampled_from([3, 4]),
        param=st.floats(0.2, 0.9),
        phase=st.floats(0.0, 2.0 * np.pi),
        factor=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 2.0)),
    )
    def test_werner_and_isotropic(self, kind, d, param, phase, factor):
        rho = make_werner(d, param) if kind == "werner" else make_isotropic(d, param)
        # |00><01| lies outside the supports of I, SWAP and the maximally
        # entangled projector, so it moves the family residual by exactly
        # its modulus and leaves the fitted parameters alone
        mat = rho.mat.copy()
        mat[0, 1] += factor * 1e-9 * np.exp(1j * phase)
        mat[1, 0] = np.conj(mat[0, 1])
        rho = validate(mat, (d, d))
        family, _ = detect_family(rho)
        assert family == (kind if factor < 1.0 else "generic")
        if factor < 1.0:
            self._agree(rho)
        else:
            assert closed_form(rho, "n1") is None


# ---------------------------------------------------------------------------
# Block branch: Jacobi sweeps for HS, quasi-Newton ascent for trace and Bures
# ---------------------------------------------------------------------------


# Best values of the random-restart hill-climb over exp(iH) block
# unitaries (one measurement per evaluation, default OptimizerConfig) that
# the Jacobi sweeps and the ascent replaced, on the two states of
# ``test_multi_block_marginals_beat_old_hill_climb`` in order.  Produced by
# ``_old_block_optimizer`` of this module at commit 81aa3a1, the last one
# that kept it.
_OLD_HILL_CLIMB = {
    "trace": (0.6076984315976431, 1.1421749749366215),
    "hs": (0.08363190538163376, 0.22155247540916762),
    "bures": (0.16384992369538898, 0.6521873106611802),
}


def _reference_states():
    """The generic block-branch states of bench/reference.py: rank-3 Ginibre
    states from seed 2014, filtered to rho_A = I/dA."""
    rng = np.random.default_rng(2014)
    out = []
    for dims in ((3, 2), (3, 3), (4, 2)):
        n = dims[0] * dims[1]
        g = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        m = g @ dagger(g)
        m /= np.trace(m).real
        w, v = np.linalg.eigh(np.einsum("abcb->ac", m.reshape(dims * 2)))
        big = np.kron((v / np.sqrt(w)) @ dagger(v), np.eye(dims[1]))
        m = big @ m @ big / dims[0]
        m = (m + dagger(m)) / 2
        out.append(validate(m / np.trace(m).real, dims))
    return out


# Maxima stored in bench/reference.json for the states above: the best of
# 48 scipy BFGS / Nelder-Mead starts (``python3 bench/reference.py``).
# Copied here because the tests do not depend on scipy.
_REFERENCE_MAXIMA = (
    {"trace": 0.9710470510405333, "hs": 0.20728279988288473},
    {"trace": 1.162271214895295, "hs": 0.20710906578062882},
    {"trace": 1.266167978581065, "hs": 0.2620644110749131},
)


def _split_state(dims, weights, rank, rng):
    """Random state of the given rank whose marginal rho_A has eigenvalues
    ``weights`` in a Haar-random basis, so repeated weights make blocks."""
    rho = random_density(dims, rank, rng)
    w, v = np.linalg.eigh(partial_trace(rho.mat, rho.dims, "B"))
    f = random_unitary(dims[0], rng) @ np.diag(np.sqrt(weights)) @ (v / np.sqrt(w)) @ dagger(v)
    big = np.kron(f, np.eye(dims[1]))
    return validate(big @ rho.mat @ dagger(big), dims)


def _direct_value(rho, measurement, which):
    """Trace or squared HS norm of rho minus its post-measurement state."""
    diff = rho.mat - apply_projectors(rho.mat, measurement, rho.db)
    if which == "trace":
        return float(np.abs(np.linalg.eigvalsh(diff)).sum())
    return float((np.abs(diff) ** 2).sum())


def _search(rho, which, fam, cls=_BlockSearch):
    """The block search of one state over its family; for Bures, with the
    W of rho = W W^dag on its support, as ``_optimize`` takes it."""
    roots = np.array(support_roots(rho.mat[None])[1]) if which == "bures" else None
    return cls(rho.mat[None], rho.dims, which, fam.basis[None], fam.blocks, roots)


def _rows(us):
    """The state of each row of a one-state search."""
    return np.zeros(len(us), dtype=int)


def _value_at(rho, which, fam, u):
    """The value of one state at one U, as ``_optimize`` takes it: a unique
    family at U = I, without a frame."""
    search = _search(rho, which, fam)
    return search.values()[0] if fam.kind == "unique" else search.values(u[None], _rows([u]))[0]


class TestBlockBranch:
    @pytest.mark.parametrize("which", ["trace", "hs"])
    def test_reference_states(self, which):
        for rho, stored in zip(_reference_states(), _REFERENCE_MAXIMA):
            values = []
            for seed in range(4):
                res = _NUMERIC_MIN[which](rho, OptimizerConfig(seed=seed))
                assert res.method == METHOD_BLOCK
                assert abs(_direct_value(rho, res.measurement, which) - res.value) <= 1e-12
                values.append(res.value)
            assert min(values) >= stored[which] - 1e-9
            assert np.ptp(values) <= (1e-6 if which == "trace" else 1e-9)

    @pytest.mark.parametrize("d", [3, 4])
    def test_werner_and_isotropic_closed_forms(self, d):
        cases = [(make_werner(d, x), trace_min_werner(d, x), hs_min_werner(d, x))
                 for x in (-1.0, -0.4, 0.3, 1.0 / d, 1.0)]
        cases += [(make_isotropic(d, x), trace_min_isotropic(d, x), hs_min_isotropic(d, x))
                  for x in (0.0, 0.2, 1.0 / d**2, 0.6, 1.0)]
        for rho, trace, hs in cases:
            assert abs(trace_min_numeric(rho).value - trace) <= 1e-12
            assert abs(hs_min_numeric(rho).value - hs) <= 1e-12

    def test_flat_objective_stops_at_once_in_the_eigenbasis(self):
        # every measurement gives the same Werner value: no Jacobi step is
        # taken, each ascent start has zero gradient and never moves, so it
        # is framed once for all three stages (after one sweep over the
        # three pairs and before the final re-evaluation), and ties between
        # starts go to U = I
        cfg = OptimizerConfig()
        rho = make_werner(3, 0.3)
        basis = _family(rho).basis
        for numeric_min, evals in ((trace_min_numeric, 3 + (2 * cfg.restarts + 2) + 1),
                                   (hs_min_numeric, 3 + 1)):
            res = numeric_min(rho, cfg)
            assert res.iterations == evals
            for p, k in zip(res.measurement.projectors, basis.T):
                np.testing.assert_array_equal(p, np.outer(k, k.conj()))

    @pytest.mark.parametrize("which", ["trace", "hs", "bures"])
    def test_multi_block_marginals_beat_old_hill_climb(self, which):
        rng = np.random.default_rng(1996)
        cases = (((3, 2), (0.4, 0.4, 0.2), 6, ((0, 2), (2, 1))),
                 ((4, 2), (0.3, 0.3, 0.2, 0.2), 3, ((0, 2), (2, 2))))
        for (dims, weights, rank, blocks), old in zip(cases, _OLD_HILL_CLIMB[which]):
            rho = _split_state(dims, weights, rank, rng)
            assert _family(rho).blocks == blocks
            res = _NUMERIC_MIN[which](rho)
            assert res.method == METHOD_BLOCK
            assert res.value >= old - 1e-12

    @pytest.mark.parametrize("which", ["trace", "bures"])
    def test_gradient_matches_central_differences(self, which):
        rng = np.random.default_rng(2008)
        states = [_reference_states()[0], _split_state((4, 2), (0.3, 0.3, 0.2, 0.2), 3, rng),
                  _split_state((3, 3), (0.4, 0.4, 0.2), 9, rng)]
        eps = 1e-5
        for rho in states:
            fam = _family(rho)
            search = _search(rho, which, fam)
            p = 2 * len(search.rows)
            for mu in (1e-3, 1e-6):
                u = search.rotations(rng.standard_normal((1, p)))
                _, _, grad = search.smoothed(search.spectrum(u, _rows(u)), mu)
                for x in rng.standard_normal((3, 1, p)):
                    up, down = (search.smoothed(search.spectrum(u @ search.rotations(step), _rows(u)),
                                                mu)[0] for step in (eps * x, -eps * x))
                    slope = float((grad * x).sum())
                    assert abs((up - down)[0] / (2 * eps) - slope) <= 1e-7

    @pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (0.4, 0.4, 0.2)])
    def test_monotone_under_channels_on_b(self, weights):
        # channels on B leave rho_A alone, so both sides take the block branch
        rng = np.random.default_rng(17)
        for db, rank in ((2, 3), (3, 4), (2, 6)):
            rho = _split_state((3, db), weights, rank, rng)
            before = trace_min_numeric(rho)
            assert before.method == METHOD_BLOCK
            for kraus in (1, 2, 3):
                after = trace_min_numeric(apply_channel_b(rho, random_channel(db, kraus, rng)))
                assert after.method == METHOD_BLOCK
                assert after.value - before.value <= 1e-8

    def test_pair_step_is_the_identity_on_a_no_op(self):
        np.testing.assert_array_equal(_pair_rotation(np.array([0.0, 0.0, 1.0])), np.eye(2))

    def test_pair_step_projects_on_the_direction(self):
        rng = np.random.default_rng(1161)
        for n in rng.standard_normal((20, 3)):
            n[2] = abs(n[2])
            n /= np.linalg.norm(n)
            r = _pair_rotation(n)
            np.testing.assert_allclose(r @ dagger(r), np.eye(2), atol=1e-15)
            expected = (np.eye(2) + np.einsum("i,imn->mn", n, PAULIS)) / 2
            np.testing.assert_allclose(np.outer(r[:, 0], r[:, 0].conj()), expected, atol=1e-15)


class _FreshStages(_BlockSearch):
    """A block search whose every stage start frames every start again."""

    def restage(self, spec, us, state, moved):
        return self.spectrum(us, state)


def _ascent(search, rho, cfg):
    """``search.ascend`` of one state from the starts that ``_optimize``
    gives it (I, the HS optimum and the Haar starts), and the framed
    evaluations of the ascent alone."""
    blocks = _family(rho).blocks
    haar = _haar_starts(blocks, rho.da, 2 * cfg.restarts, cfg.seed)
    starts = np.concatenate([np.eye(rho.da)[None, None], search.jacobi(cfg.tol)[:, None],
                             haar[None]], axis=1)
    before = search.evals
    return search.ascend(starts, cfg.tol), search.evals - before


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStageReuse:
    """``ascend`` keeps each start's spectrum from one stage start to the
    next, and ``restage`` frames again only the starts that took steps."""

    @pytest.mark.parametrize("which", ["trace", "bures"])
    def test_smoothed_from_a_stored_spectrum_is_the_fresh_call(self, which):
        rng = np.random.default_rng(2101)
        for rho in (_filtered((4, 2), 3, rng), _rotated_bell_diagonal(rng)):
            search = _search(rho, which, _family(rho))
            p = 2 * len(search.rows)
            us = search.rotations(rng.standard_normal((6, p)))
            spec = search.spectrum(us, _rows(us))
            moved = np.array([1, 4])
            us[moved] = us[moved] @ search.rotations(rng.standard_normal((2, p)))
            spec = search.restage(spec, us, _rows(us), moved)
            fresh = search.spectrum(us, _rows(us))
            for mu in _SMOOTHING:
                for stored, again in zip(search.smoothed(spec, mu), search.smoothed(fresh, mu)):
                    _assert_same_bits(stored, again)

    @pytest.mark.parametrize("which", ["trace", "bures"])
    @pytest.mark.parametrize("case", ["werner", "filtered", "rotated"])
    def test_ascent_is_that_of_fresh_stages(self, case, which):
        # a flat Werner objective, where no start moves; a generic 4x2
        # state, where starts stop at different steps; and a rotated
        # Bell-diagonal state on the qubit sphere
        rho = {"werner": lambda: make_werner(3, 0.3),
               "filtered": lambda: _filtered((4, 2), 3, np.random.default_rng(5)),
               "rotated": lambda: _rotated_bell_diagonal(np.random.default_rng(6))}[case]()
        cfg = OptimizerConfig()
        fam = _family(rho)
        u, reused = _ascent(_search(rho, which, fam), rho, cfg)
        again, framed = _ascent(_search(rho, which, fam, _FreshStages), rho, cfg)
        _assert_same_bits(u, again)
        assert reused <= framed
        if case == "werner":  # one evaluation per start, against one per start and stage
            starts = 2 * cfg.restarts + 2
            assert (reused, framed) == (starts, 3 * starts)


class _RecordedSteps(_BlockSearch):
    """A block search that records every trial step ``rotations`` receives."""

    def __init__(self, *args):
        super().__init__(*args)
        self.steps = []

    def rotations(self, x):
        self.steps.append(x.copy())
        return super().rotations(x)


class TestBoundedSteps:
    """On a family with one index pair ``ascend`` cuts each trial step to
    tangent norm ``_PAIR_STEP``; with more pairs its steps are uncut."""

    @staticmethod
    def _steps(rho, which):
        """The ascent's result and the list of its lockstep trial steps."""
        search = _search(rho, which, _family(rho), _RecordedSteps)
        u, _ = _ascent(search, rho, OptimizerConfig())
        return u, search.steps

    @staticmethod
    def _longest(steps):
        """The largest tangent norm among recorded trial steps."""
        return max(np.sqrt((x**2).sum(-1)).max() for x in steps)

    @pytest.mark.parametrize("which", ["trace", "bures"])
    @pytest.mark.parametrize("case", ["rotated", "filtered", "split"])
    def test_one_pair_steps_are_cut(self, case, which, monkeypatch):
        # a rotated Bell-diagonal and a filtered 2x3 state on the qubit
        # sphere, and a 3x3 state whose rho_A splits 2 + 1
        rho = {"rotated": lambda: _rotated_bell_diagonal(np.random.default_rng(6)),
               "filtered": lambda: _filtered((2, 3), 3, np.random.default_rng(64)),
               "split": lambda: _split_state((3, 3), (0.4, 0.4, 0.2), 9,
                                             np.random.default_rng(1996))}[case]()
        assert len(_search(rho, which, _family(rho)).pairs) == 1
        cap = nonlocality._PAIR_STEP
        assert self._longest(self._steps(rho, which)[1]) <= cap * (1 + 1e-12)
        # uncut, the same ascent asks for longer steps
        monkeypatch.setattr(nonlocality, "_PAIR_STEP", math.inf)
        assert self._longest(self._steps(rho, which)[1]) > 2 * cap

    @pytest.mark.parametrize("which", ["trace", "bures"])
    @pytest.mark.parametrize("case", ["werner", "filtered"])
    def test_multi_pair_ascent_is_uncut(self, case, which, monkeypatch):
        rho = {"werner": lambda: make_werner(3, 0.3),
               "filtered": lambda: _filtered((4, 2), 3, np.random.default_rng(5))}[case]()
        u, steps = self._steps(rho, which)
        monkeypatch.setattr(nonlocality, "_PAIR_STEP", math.inf)
        again, uncut = self._steps(rho, which)
        _assert_same_bits(u, again)
        assert len(steps) == len(uncut)
        for x, y in zip(steps, uncut):
            _assert_same_bits(x, y)


def _eigh_exponential(search, x):
    """exp(H) for the tangent coordinates x (k, p), as exp(-i w) in the
    eigenbasis of the Hermitian iH."""
    half = x.shape[1] // 2
    v = (x[:, :half] + 1j * x[:, half:]) / math.sqrt(2.0)
    h = np.zeros((len(x), search.da, search.da), dtype=complex)
    h[:, search.rows, search.cols], h[:, search.cols, search.rows] = v, -v.conj()
    w, q = np.linalg.eigh(1j * h)
    return (q * np.exp(-1j * w)[:, None, :]) @ dagger(q)


class TestRotations:
    """The closed-form pair exponential of ``_BlockSearch.rotations``."""

    @staticmethod
    def _searches():
        """Searches on the qubit sphere and on a 4x2 two-block family."""
        rng = np.random.default_rng(2011)
        cases = ((_filtered((2, 3), 3, rng), ((0, 2),)),
                 (_split_state((4, 2), (0.3, 0.3, 0.2, 0.2), 3, rng), ((0, 2), (2, 2))))
        out = []
        for rho, blocks in cases:
            fam = _family(rho)
            assert fam.blocks == blocks
            out.append(_search(rho, "trace", fam))
        return out

    def test_matches_the_eigh_exponential(self):
        rng = np.random.default_rng(1733)
        for search in self._searches():
            assert search.scatter is not None
            p = 2 * len(search.rows)
            # theta = 0, small, order one and well past pi, per pair
            x = np.concatenate([np.zeros((1, p)), 1e-9 * rng.standard_normal((3, p)),
                                rng.standard_normal((8, p)), 6.0 * rng.standard_normal((8, p))])
            u = search.rotations(x)
            np.testing.assert_allclose(u, _eigh_exponential(search, x), rtol=0, atol=1e-14)
            eye = np.eye(search.da)
            np.testing.assert_allclose(u @ dagger(u), np.broadcast_to(eye, u.shape),
                                       rtol=0, atol=1e-14)
            np.testing.assert_array_equal(u[0], eye)

    def test_larger_blocks_keep_the_eigh_path(self):
        rho = _reference_states()[0]
        search = _search(rho, "trace", _family(rho))
        assert search.scatter is None
        x = np.random.default_rng(5).standard_normal((4, 2 * len(search.rows)))
        np.testing.assert_allclose(search.rotations(x), _eigh_exponential(search, x),
                                   rtol=0, atol=1e-14)

    def test_nondegenerate_marginal_builds_no_ascent_constants(self):
        rho = random_density((2, 2), 3, np.random.default_rng(2014))
        fam = _family(rho)
        assert fam.kind == "unique"
        search = _search(rho, "trace", fam)
        assert search.scatter is None and not hasattr(search, "flat_eye")
        assert not hasattr(search, "pairs") and not hasattr(search, "rows")
        # one read-only mask per (dA, measure), shared by every search
        assert search.mask is _search(rho, "hs", fam).mask
        assert not search.mask.flags.writeable
        # the value at U = I is the only evaluation
        for which in ("trace", "hs", "bures"):
            res = _NUMERIC_MIN[which](rho)
            assert (res.method, res.iterations) == (METHOD_UNIQUE, 1)


def _support_fidelity(rho, post):
    """Bures value 2(1 - tr|sqrt(post) sqrt(rho)|) with both roots from
    eigendecompositions clipped to exact zeros below 1e-12."""

    def root(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.where(w > 1e-12 * w[-1], w, 0.0))) @ dagger(v)

    return 2.0 * (1.0 - np.linalg.svd(root(post) @ root(rho.mat), compute_uv=False).sum())


class TestBuresSupport:
    """The fidelity is computed on the support of rho, full-rank states
    included."""

    def test_fidelity_reproduces_the_reported_value(self):
        # minkit.fidelity at the returned measurement, on rank-deficient
        # states where the square root of all of rho left 5e-8 of noise
        rng = np.random.default_rng(2001)
        for rho in (random_density((3, 3), 1, 11), random_density((2, 4), 1, 20),
                    random_density((2, 3), 2, 12), _filtered((2, 3), 3, rng)):
            assert np.linalg.matrix_rank(rho.mat, tol=1e-10) < rho.mat.shape[0]
            res = bures_min_numeric(rho)
            post = apply_projectors(rho.mat, res.measurement, rho.db)
            assert abs(2.0 * (1.0 - math.sqrt(fidelity(rho.mat, post))) - res.value) <= 1e-13

    def test_rank_deficient_value_is_stable(self):
        # a 1e-15 nudge turns the zero eigenvalues of rho into round-off;
        # their square roots, about 3e-8, must not reach the value
        rng = np.random.default_rng(1999)
        two_qubit = random_density((2, 2), 3, rng)
        filtered = _filtered((2, 3), 3, rng)
        for rho, u in ((two_qubit, np.eye(2, dtype=complex)), (filtered, random_unitary(2, rng))):
            assert np.linalg.matrix_rank(rho.mat, tol=1e-10) == 3
            fam = _family(rho)
            h = rng.standard_normal(rho.mat.shape) + 1j * rng.standard_normal(rho.mat.shape)
            h = (h + dagger(h)) / 2
            nudged = validate(rho.mat + 1e-15 * h / np.abs(h).max(), rho.dims)
            value, moved = (_value_at(r, "bures", fam, u) for r in (rho, nudged))
            assert abs(moved - value) <= 1e-12
            post = apply_projectors(rho.mat, _member(fam, [u]), rho.db)
            assert abs(value - _support_fidelity(rho, post)) <= 1e-12

    def test_full_rank_value_on_the_support(self):
        rng = np.random.default_rng(2000)
        for rho in (random_density((2, 2), 4, rng), _filtered((2, 3), 6, rng),
                    make_bell_diagonal([0.45, 0.3, 0.2]), random_density((3, 2), 6, rng)):
            assert np.linalg.matrix_rank(rho.mat, tol=1e-10) == rho.mat.shape[0]
            res = bures_min_numeric(rho)
            post = apply_projectors(rho.mat, res.measurement, rho.db)
            assert abs(res.value - _support_fidelity(rho, post)) <= 1e-12


# ---------------------------------------------------------------------------
# Local-unitary orbits of generic states
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _orbit(seed, dims, index):
    """State ``index`` of cell ``dims`` of the orbit ensemble of ``seed``, and
    its 24 local unitaries U_A x U_B.

    One ``default_rng(seed)`` draws the cells 3x2, 3x3, 4x2 and 4x3 in that
    order, 10 states each: a full-rank state filtered to rho_A = I/dA, then
    at once its 24 rotations, each U_A drawn before U_B.  The filter
    (rho_A^-1/2 x I) rho (rho_A^-1/2 x I) / dA takes its Hermitian part and
    renormalizes, as ``filter_to_mixed_a`` of ``bench/reference.py`` does,
    so that each state is bitwise the ensemble's; the optimizers' misses
    depend on those last bits."""
    rng = np.random.default_rng(seed)
    for cell in ((3, 2), (3, 3), (4, 2), (4, 3)):
        for k in range(10):
            m = _ginibre_density(cell[0] * cell[1], cell[0] * cell[1], rng)
            w, v = np.linalg.eigh(partial_trace(m, cell, "B"))
            s = np.kron((v / np.sqrt(w)) @ dagger(v), np.eye(cell[1]))
            f = s @ m @ s / cell[0]
            f = (f + dagger(f)) / 2
            rho = validate(f / np.trace(f).real, cell)
            rotations = [np.kron(*(_haar_q(_ginibre(rng, (d, d))) for d in cell))
                         for _ in range(24)]
            if (cell, k) == (dims, index):
                return rho, rotations
    raise ValueError(f"no state {index} in cell {dims}")


class TestOrbits:
    """A local unitary on A x B leaves every MIN unchanged, so each call on an
    orbit must reach the best value found on it.  Each state is taken with 6
    of its 24 rotations, picked by ``default_rng(0)``.  Trace MIN needs its
    HS start here: without it the unrotated rng-11 3x3 state falls 5.8e-3
    short, and a rotated rng-7 4x3 state 1.1e-4."""

    @pytest.mark.parametrize("which", [hs_min_numeric, trace_min_numeric, bures_min_numeric])
    @pytest.mark.parametrize("seed, dims, index", [(11, (3, 3), 6), (7, (4, 3), 8),
                                                   (11, (4, 2), 7)])
    def test_every_call_reaches_the_orbit_best(self, seed, dims, index, which):
        rho, rotations = _orbit(seed, dims, index)
        picks = np.random.default_rng(0).choice(24, 6, replace=False)
        orbit = [rho] + [validate(rotations[j] @ rho.mat @ dagger(rotations[j]), dims)
                         for j in picks]
        values = np.array([which(state).value for state in orbit])
        assert (values >= values.max() - 1e-9).all(), values.max() - values
