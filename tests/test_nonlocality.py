"""Closed-form MIN evaluators and the numeric optimizers that back them."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkit.linalg import dagger, random_unitary, tensor_product
from minkit.measurements import apply_projectors, invariant_family, sphere_measurement
from minkit.nonlocality import (
    DimensionLimitError,
    METHOD_SPHERE,
    METHOD_UNIQUE,
    OptimizerConfig,
    bures_min_numeric,
    closed_form,
    direction_objective,
    hs_min_isotropic,
    hs_min_numeric,
    hs_min_pure,
    hs_min_two_qubit,
    hs_min_werner,
    max_entangled_trace_min,
    relation_report,
    sphere_directions,
    trace_min_isotropic,
    trace_min_numeric,
    trace_min_pure,
    trace_min_two_qubit,
    trace_min_werner,
)
from minkit.states import (
    bloch_decompose,
    bloch_matrix,
    density_from_pure,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    max_entangled,
    pure_state,
    random_bell_triple,
    random_density,
    reduced_state,
    schmidt,
    validate,
)


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
            tensor_product(random_density((1, 2), 2, rng).mat, random_density((1, 2), 2, rng).mat),
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
            fam = invariant_family(reduced_state(rho, "A"))
            if fam.kind != "unique":
                continue
            post = apply_projectors(rho.mat, fam.fixed, 2)
            direct = float((np.abs(rho.mat - post) ** 2).sum())
            assert abs(hs_min_two_qubit(rho).value - direct) <= 1e-12

    def test_ordering_disagreement_between_measures(self):
        wide = make_bell_diagonal([0.45, 0.3, 0.2])
        narrow = make_bell_diagonal([0.45, 0.1, 0.1])
        assert trace_min_two_qubit(wide).value == pytest.approx(
            trace_min_two_qubit(narrow).value, abs=1e-12
        )
        assert abs(hs_min_two_qubit(wide).value - hs_min_two_qubit(narrow).value) > 1e-3


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


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(sphere_grid=4)
        with pytest.raises(ValueError):
            OptimizerConfig(tol=0.0)
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError, match="refine_iters"):
            OptimizerConfig(refine_iters=-1)
        with pytest.raises(ValueError, match="degeneracy_tol"):
            OptimizerConfig(degeneracy_tol=-1e-8)

    def test_sphere_grid_contains_coordinate_axes(self):
        _, vecs = sphere_directions(64)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.min(np.linalg.norm(vecs - axis, axis=1)) <= 1e-15


class TestNumericOptimizers:
    def test_product_state_zero(self):
        rng = np.random.default_rng(35)
        rho = validate(
            tensor_product(random_density((1, 2), 2, rng).mat, random_density((1, 3), 2, rng).mat),
            (2, 3),
        )
        assert trace_min_numeric(rho).value <= 1e-9
        assert bures_min_numeric(rho).value <= 1e-6

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
                u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
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
        u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
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
