"""State construction, named families, and decompositions."""

import numpy as np
import pytest

from minkit.linalg import PAULIS, dagger, hs_norm, random_unitary, tensor_product
from minkit.nonlocality import trace_min_numeric, trace_min_pure
from minkit.states import (
    StateFormatError,
    StateInvariantError,
    bell_diagonal_weights,
    bloch_decompose,
    bloch_matrix,
    canonicalize,
    density_from_pure,
    detect_family,
    eof_pure,
    in_tetrahedron,
    load_state,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    pure_state,
    random_bell_triple,
    random_density,
    random_pure,
    save_state,
    schmidt,
    schmidt_reconstruct,
    state_from_json,
    validate,
)

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


class TestValidate:
    def test_maximally_mixed(self):
        rho = validate(np.eye(4, dtype=complex) / 4, (2, 2))
        assert rho.dims == (2, 2)

    def test_rejects_non_psd(self):
        bad = tensor_product(PAULIS[2], np.eye(2)) / 2
        with pytest.raises(StateInvariantError, match="negative eigenvalue"):
            validate(bad, (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateInvariantError, match="trace"):
            validate(np.eye(4, dtype=complex), (2, 2))

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateInvariantError, match="Hermitian"):
            validate(m, (2, 2))

    def test_rejects_non_positive_dims(self):
        with pytest.raises(StateInvariantError, match="dims"):
            validate(np.eye(4, dtype=complex) / 4, (-2, -2))

    def test_werner_passes(self):
        rho = make_werner(2, 0.5)
        validate(rho.mat, (2, 2))
        np.testing.assert_allclose(rho.mat, np.eye(4) / 4, atol=1e-12)


class TestSchmidt:
    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        form = schmidt(pure_state(v, (2, 2)))
        np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)

    def test_bell_state(self):
        form = schmidt(pure_state(BELL_PHI_PLUS, (2, 2)))
        np.testing.assert_allclose(form.coefficients, [0.5, 0.5], atol=1e-12)

    def test_reconstruction(self):
        psi = random_pure((2, 3), seed=11)
        form = schmidt(psi)
        rebuilt = schmidt_reconstruct(form)
        # global phase is not fixed by the decomposition
        overlap = abs(np.vdot(rebuilt, psi.amplitudes))
        assert abs(overlap - 1.0) <= 1e-9
        assert form.coefficients.sum() == pytest.approx(1.0, abs=1e-10)
        assert int((form.coefficients > 1e-12).sum()) <= 2


class TestBlochDecompose:
    def test_maximally_mixed(self):
        form = bloch_decompose(validate(np.eye(4, dtype=complex) / 4, (2, 2)))
        assert np.abs(form.x).max() <= 1e-12
        assert np.abs(form.y).max() <= 1e-12
        assert np.abs(form.t).max() <= 1e-12

    def test_bell_state(self):
        form = bloch_decompose(density_from_pure(pure_state(BELL_PHI_PLUS, (2, 2))))
        np.testing.assert_allclose(form.x, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(form.y, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(form.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_werner_tensor_proportional_to_identity(self):
        form = bloch_decompose(make_werner(2, 0.9))
        np.testing.assert_allclose(form.x, np.zeros(3), atol=1e-12)
        off = form.t - np.diag(np.diagonal(form.t))
        assert np.abs(off).max() <= 1e-12
        assert np.ptp(np.diagonal(form.t)) <= 1e-12

    def test_roundtrip_reconstruction(self):
        rng = np.random.default_rng(12)
        for rank in (1, 2, 4):
            rho = random_density((2, 2), rank, rng)
            form = bloch_decompose(rho)
            rebuilt = bloch_matrix(form.x, form.y, form.t)
            assert np.abs(rebuilt - rho.mat).max() <= 1e-10


def _kron_basis():
    """sigma_i x sigma_j for i, j over (I, sigma_x, sigma_y, sigma_z), built with kron."""
    basis = [np.eye(2, dtype=complex), *PAULIS]
    return [[np.kron(a, b) for b in basis] for a in basis]


class TestPauliKernels:
    """The einsum kernels against the explicit sum over sigma_i x sigma_j."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_decompose_matches_kron_traces(self, rank):
        rng = np.random.default_rng(60 + rank)
        ops = _kron_basis()
        for _ in range(10):
            rho = random_density((2, 2), rank, rng)
            ref = np.array([[np.trace(rho.mat @ op).real for op in row] for row in ops])
            form = bloch_decompose(rho)
            assert np.abs(form.x - ref[1:, 0]).max() <= 1e-14
            assert np.abs(form.y - ref[0, 1:]).max() <= 1e-14
            assert np.abs(form.t - ref[1:, 1:]).max() <= 1e-14
            assert np.abs(form.c - np.diagonal(ref[1:, 1:])).max() <= 1e-14

    def test_matrix_matches_kron_sum(self):
        rng = np.random.default_rng(65)
        ops = _kron_basis()
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            t = rng.uniform(-1, 1, (3, 3))
            coeffs = np.block([[np.ones((1, 1)), y[None, :]], [x[:, None], t]])
            ref = sum(coeffs[i, j] * ops[i][j] for i in range(4) for j in range(4)) / 4
            assert np.abs(bloch_matrix(x, y, t) - ref).max() <= 1e-14


class TestCanonicalize:
    def test_fixed_point(self):
        rho = make_bell_diagonal([0.45, 0.3, 0.2])
        _, form = canonicalize(rho)
        np.testing.assert_allclose(np.abs(form.c), [0.45, 0.3, 0.2], atol=1e-12)

    def test_recovers_magnitudes_after_local_rotation(self):
        rng = np.random.default_rng(13)
        c = np.array([0.5, -0.25, 0.1])
        rho = make_bell_diagonal(c)
        u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
        rotated = validate(u @ rho.mat @ dagger(u), (2, 2))
        _, form = canonicalize(rotated)
        np.testing.assert_allclose(
            np.sort(np.abs(form.c)), np.sort(np.abs(c)), atol=1e-10
        )

    def test_output_tensor_diagonal(self):
        rng = np.random.default_rng(14)
        for rank in (1, 2, 3, 4):
            rho = random_density((2, 2), rank, rng)
            out, form = canonicalize(rho)
            off = form.t - np.diag(np.diagonal(form.t))
            assert np.abs(off).max() <= 1e-10
            # local unitaries preserve both spectra
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(rho.mat), atol=1e-10
            )

    def test_form_matches_decomposition_of_output(self):
        rng = np.random.default_rng(16)
        for rank in (1, 2, 3, 4):
            out, form = canonicalize(random_density((2, 2), rank, rng))
            again = bloch_decompose(out)
            for field in ("x", "y", "t", "c"):
                np.testing.assert_allclose(getattr(form, field), getattr(again, field), atol=1e-12)

    def test_preserves_numeric_nonlocality(self):
        rng = np.random.default_rng(15)
        rho = random_density((2, 2), 3, rng)
        out, _ = canonicalize(rho)
        before = trace_min_numeric(rho).value
        after = trace_min_numeric(out).value
        assert abs(before - after) <= 1e-10


class TestBellDiagonal:
    def test_center_is_maximally_mixed(self):
        rho = make_bell_diagonal([0.0, 0.0, 0.0])
        np.testing.assert_allclose(rho.mat, np.eye(4) / 4, atol=1e-12)

    def test_vertex_is_bell_state(self):
        rho = make_bell_diagonal([1.0, -1.0, 1.0])
        np.testing.assert_allclose(
            rho.mat, np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), atol=1e-12
        )

    def test_reference_point(self):
        rho = make_bell_diagonal([0.45, 0.3, 0.2])
        form = bloch_decompose(rho)
        assert np.abs(form.c).max() == pytest.approx(0.45, abs=1e-12)

    def test_rejects_outside_tetrahedron(self):
        with pytest.raises(StateInvariantError, match="tetrahedron"):
            make_bell_diagonal([1.0, 1.0, 1.0])

    def test_random_triple_is_physical(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            assert in_tetrahedron(random_bell_triple(rng))

    def test_batched_weights_match_row_by_row(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(-1.0, 1.0, 7)
        lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
        for stack in (rng.uniform(-1.0, 1.0, (50, 3)), lattice, np.array([1 / 3, 0.5, -1.0])):
            weights = bell_diagonal_weights(stack)
            assert weights.shape == stack.shape[:-1] + (4,)
            rows = [bell_diagonal_weights(c) for c in stack.reshape(-1, 3)]
            np.testing.assert_array_equal(weights.reshape(-1, 4), np.array(rows))


class TestWerner:
    def test_maximally_mixed_point(self):
        np.testing.assert_allclose(make_werner(2, 0.5).mat, np.eye(4) / 4, atol=1e-12)

    def test_singlet_limit(self):
        singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(
            make_werner(2, -1.0).mat, np.outer(singlet, singlet.conj()), atol=1e-12
        )

    def test_uu_invariance(self):
        rng = np.random.default_rng(17)
        rho = make_werner(3, 0.7)
        for _ in range(5):
            u = random_unitary(3, rng)
            uu = tensor_product(u, u)
            assert hs_norm(uu @ rho.mat @ dagger(uu) - rho.mat) <= 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="x must"):
            make_werner(2, 1.5)


class TestIsotropic:
    def test_maximally_mixed_point(self):
        d = 3
        np.testing.assert_allclose(
            make_isotropic(d, 1.0 / d**2).mat, np.eye(d * d) / d**2, atol=1e-12
        )

    def test_pure_limit(self):
        rho = make_isotropic(2, 1.0)
        np.testing.assert_allclose(
            rho.mat, np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), atol=1e-12
        )

    def test_fidelity_parameter(self):
        rho = make_isotropic(2, 0.6)
        assert float((BELL_PHI_PLUS.conj() @ rho.mat @ BELL_PHI_PLUS).real) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_u_ubar_invariance(self):
        rng = np.random.default_rng(18)
        rho = make_isotropic(3, 0.4)
        for _ in range(5):
            u = random_unitary(3, rng)
            uu = tensor_product(u, u.conj())
            assert hs_norm(uu @ rho.mat @ dagger(uu) - rho.mat) <= 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="x must"):
            make_isotropic(2, -0.1)


class TestRandomEnsembles:
    def test_pure_deterministic_and_normalized(self):
        a = random_pure((2, 3), seed=5)
        b = random_pure((2, 3), seed=5)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12

    def test_density_deterministic(self):
        a = random_density((2, 2), 3, seed=5)
        b = random_density((2, 2), 3, seed=5)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_rank_two_spectrum(self):
        rho = random_density((2, 2), 2, seed=6)
        w = np.sort(np.linalg.eigvalsh(rho.mat))
        assert np.all(w[2:] > 1e-8)
        assert np.all(np.abs(w[:2]) < 1e-8)


class TestEof:
    def test_product(self):
        assert eof_pure(schmidt(pure_state(np.eye(4, dtype=complex)[0], (2, 2)))) == 0.0

    def test_bell(self):
        form = schmidt(pure_state(BELL_PHI_PLUS, (2, 2)))
        assert eof_pure(form) == pytest.approx(1.0, abs=1e-12)

    def test_skewed(self):
        v = np.sqrt(0.9) * np.eye(4, dtype=complex)[0] + np.sqrt(0.1) * np.eye(4, dtype=complex)[3]
        form = schmidt(pure_state(v, (2, 2)))
        assert eof_pure(form) == pytest.approx(0.4690, abs=1e-4)

    def test_trace_min_monotone_in_eof(self):
        # both quantities decrease in the dominant coefficient, so across a
        # grid of 2xn pure states the pairs must sort identically
        lams = np.linspace(0.5, 1.0 - 1e-9, 26)
        eofs, mins = [], []
        for l1 in lams:
            v = np.sqrt(l1) * np.eye(4, dtype=complex)[0] + np.sqrt(1 - l1) * np.eye(
                4, dtype=complex
            )[3]
            form = schmidt(pure_state(v, (2, 2)))
            eofs.append(eof_pure(form))
            mins.append(trace_min_pure(form))
        order = np.argsort(eofs)
        assert np.all(np.diff(np.array(mins)[order]) >= -1e-12)


class TestDetectFamily:
    def test_each_family(self):
        assert detect_family(density_from_pure(random_pure((2, 2), 1)))[0] == "pure"
        assert detect_family(make_bell_diagonal([0.3, 0.2, 0.1]))[0] == "bell_diagonal"
        name, params = detect_family(make_werner(3, 0.7))
        assert name == "werner"
        assert params["x"] == pytest.approx(0.7, abs=1e-9)
        name, params = detect_family(make_isotropic(3, 0.4))
        assert name == "isotropic"
        assert params["x"] == pytest.approx(0.4, abs=1e-9)
        assert detect_family(random_density((2, 2), 4, 7))[0] == "generic"


class TestStateIO:
    def test_roundtrip(self, tmp_path):
        rho = random_density((2, 3), 4, seed=8)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        np.testing.assert_allclose(loaded.mat, rho.mat, atol=1e-15)
        assert loaded.dims == rho.dims

    def test_malformed_payloads(self):
        with pytest.raises(StateFormatError):
            state_from_json({"dims": [2, 2]})
        with pytest.raises(StateFormatError):
            state_from_json({"dims": [2], "re": [[1.0]], "im": [[0.0]]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(StateFormatError):
            load_state(tmp_path / "nope.json")

    def test_invalid_state_in_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dims": [2, 2], "re": '
            + str(np.eye(4).tolist())
            + ', "im": '
            + str(np.zeros((4, 4)).tolist())
            + "}"
        )
        with pytest.raises(StateInvariantError):
            load_state(path)
