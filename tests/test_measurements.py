"""Locally invariant measurement machinery."""

import numpy as np
import pytest

from haar import random_unitary
from minkit.linalg import PAULIS, dagger, hermitian_eig, partial_trace
from minkit.measurements import (
    _rank_one_projectors,
    _turned,
    apply_measurement,
    apply_projectors,
    invariant_family,
    local_measurement,
    sphere_measurement,
)
from minkit.states import (
    density_from_pure,
    make_werner,
    pure_state,
    random_density,
    validate,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


def _computational(d=2):
    return local_measurement([np.diag(row).astype(complex) for row in np.eye(d)])


def _member(fam, unitaries=()):
    """The member of ``fam`` turned by one unitary per degenerate block, as
    ``_optimize`` builds it, with the projector axioms checked."""
    return local_measurement(_rank_one_projectors(_turned(fam.basis, fam.blocks, unitaries)))


def _invariant(m, rho_a, tol=1e-9):
    """Whether the measurement leaves the reduced state rho_A unchanged."""
    return np.linalg.norm(apply_projectors(rho_a, m, 1) - rho_a) <= tol


def _trace_norm(m):
    """Trace norm of a Hermitian matrix, from its eigenvalues."""
    return np.abs(np.linalg.eigvalsh(m)).sum()


class TestLocalMeasurement:
    def test_accepts_projective_set(self):
        m = _computational()
        assert m.dim == 2

    def test_rejects_incomplete(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="identity"):
            local_measurement([p])

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            local_measurement([np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2])

    def test_rejects_non_orthogonal(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="orthogonal|identity"):
            local_measurement([p0, plus])

    def test_rejects_an_empty_list(self):
        with pytest.raises(ValueError, match="projectors must not be empty"):
            local_measurement([])


class TestSphereMeasurement:
    def test_z_axis_is_computational(self):
        m = sphere_measurement([0.0, 0.0, 1.0])
        np.testing.assert_allclose(m.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(m.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_x_axis_matches_pauli_x_eigenprojectors(self):
        m = sphere_measurement([1.0, 0.0, 0.0])
        eig = hermitian_eig(PAULIS[0])
        for k in range(2):
            v = eig.eigenvectors[:, k]
            np.testing.assert_allclose(m.projectors[k], np.outer(v, v.conj()), atol=1e-12)

    def test_random_direction_is_projective(self):
        rng = np.random.default_rng(20)
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        local_measurement(sphere_measurement(e).projectors)  # validates axioms

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            sphere_measurement([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("e", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, np.nan, 0.0]])
    def test_rejects_non_finite(self, e):
        with pytest.raises(ValueError, match="direction must be a unit vector"):
            sphere_measurement(e)


class TestApplyMeasurement:
    def test_classical_quantum_fixed_point(self):
        rng = np.random.default_rng(21)
        rho_a = np.diag([0.7, 0.3]).astype(complex)
        rho_b = random_density((1, 3), 2, rng).mat
        joint = validate(np.kron(rho_a, rho_b), (2, 3))
        eig = hermitian_eig(rho_a)
        m = local_measurement(
            [np.outer(eig.eigenvectors[:, k], eig.eigenvectors[:, k].conj()) for k in range(2)]
        )
        out = apply_measurement(joint, m)
        assert np.abs(out.mat - joint.mat).max() <= 1e-12

    def test_bell_dephasing(self):
        rho = density_from_pure(pure_state(BELL, (2, 2)))
        out = apply_measurement(rho, _computational())
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(out.mat, expected, atol=1e-12)

    def test_trace_preserving_and_idempotent(self):
        rng = np.random.default_rng(22)
        rho = random_density((2, 3), 4, rng)
        e = rng.standard_normal(3)
        m = sphere_measurement(e / np.linalg.norm(e))
        once = apply_measurement(rho, m)
        twice = apply_measurement(once, m)
        assert abs(np.trace(once.mat) - 1.0) <= 1e-12
        assert np.abs(twice.mat - once.mat).max() <= 1e-12

    def test_dimension_mismatch(self):
        rho = random_density((3, 2), 2, 0)
        with pytest.raises(ValueError, match="dimension"):
            apply_measurement(rho, _computational(2))


class TestIsInvariant:
    def test_spectral_projectors_always_invariant(self):
        rng = np.random.default_rng(23)
        rho_a = random_density((1, 3), 3, rng).mat
        eig = hermitian_eig(rho_a)
        m = local_measurement(
            [np.outer(eig.eigenvectors[:, k], eig.eigenvectors[:, k].conj()) for k in range(3)]
        )
        assert _invariant(m, rho_a)

    def test_wrong_basis_not_invariant(self):
        # the invariance check the other tests rely on can fail
        m = sphere_measurement([1.0, 0.0, 0.0])
        assert not _invariant(m, np.diag([0.7, 0.3]).astype(complex))

    def test_maximally_mixed_invariant_under_everything(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            e = rng.standard_normal(3)
            m = sphere_measurement(e / np.linalg.norm(e))
            assert _invariant(m, np.eye(2, dtype=complex) / 2)


class TestInvariantFamily:
    def test_nondegenerate_qubit_unique(self):
        rho_a = (np.eye(2, dtype=complex) + 0.5 * PAULIS[2]) / 2
        fam = invariant_family(rho_a)
        # the zero-parameter case of the block family
        assert fam.blocks == ((0, 1), (1, 1))
        expected = [(np.eye(2) + PAULIS[2]) / 2, (np.eye(2) - PAULIS[2]) / 2]
        for got, want in zip(_member(fam).projectors, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_maximally_mixed_qubit_sphere(self):
        fam = invariant_family(np.eye(2, dtype=complex) / 2)
        assert fam.blocks == ((0, 2),)
        m = _member(fam, [random_unitary(2, np.random.default_rng(28))])
        assert _invariant(m, np.eye(2, dtype=complex) / 2)

    def test_partially_degenerate_blocks(self):
        fam = invariant_family(np.diag([0.5, 0.25, 0.25]).astype(complex))
        assert fam.blocks == ((0, 1), (1, 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_rejects_a_bad_tolerance(self, tol):
        # -1 would split the maximally mixed qubit into blocks of size 1
        with pytest.raises(ValueError, match="degeneracy_tol must be finite and >= 0"):
            invariant_family(np.eye(2, dtype=complex) / 2, tol)
        assert invariant_family(np.eye(2, dtype=complex) / 2, 0.0).blocks == ((0, 2),)

    def test_refined_members_are_invariant(self):
        rng = np.random.default_rng(25)
        rho_a = np.diag([0.5, 0.25, 0.25]).astype(complex)
        fam = invariant_family(rho_a)
        m = _member(fam, [random_unitary(2, rng)])
        assert _invariant(m, rho_a)

    def test_unique_family_preserves_marginal(self):
        rng = np.random.default_rng(26)
        rho = random_density((2, 2), 4, rng)
        rho_a = partial_trace(rho.mat, rho.dims, "B")
        fam = invariant_family(rho_a)
        assert fam.blocks == ((0, 1), (1, 1))
        out = apply_measurement(rho, _member(fam))
        assert np.abs(partial_trace(out.mat, out.dims, "B") - rho_a).max() <= 1e-10

    def test_classical_quantum_state_undisturbed(self):
        rng = np.random.default_rng(27)
        # sum_k p_k P_k x rho_k with nondegenerate marginal
        u = random_unitary(2, rng)
        parts = []
        for k, p in enumerate((0.7, 0.3)):
            proj = np.outer(u[:, k], u[:, k].conj())
            parts.append(p * np.kron(proj, random_density((1, 2), 2, rng).mat))
        rho = validate(sum(parts), (2, 2))
        fam = invariant_family(partial_trace(rho.mat, rho.dims, "B"))
        assert fam.blocks == ((0, 1), (1, 1))
        out = apply_projectors(rho.mat, _member(fam), 2)
        assert _trace_norm(rho.mat - out) <= 1e-10


class TestCoarseMeasurements:
    def test_rank_one_refinement_not_beaten_by_coarse(self):
        # full marginal degeneracy: every projective set is invariant, so a
        # coarse (rank-2 + rank-1) measurement competes directly with the
        # rank-1 optimum
        rng = np.random.default_rng(28)
        rho = make_werner(3, -1.0)
        best = 1.0  # rank-1 optimum for this state
        for _ in range(10):
            u = random_unitary(3, rng)
            coarse = local_measurement(
                [
                    u[:, :2] @ dagger(u[:, :2]),
                    np.outer(u[:, 2], u[:, 2].conj()),
                ]
            )
            disturbed = apply_projectors(rho.mat, coarse, 3)
            assert _trace_norm(rho.mat - disturbed) <= best + 1e-9
