"""State construction, named families, and decompositions."""

import numpy as np
import pytest

from haar import random_unitary
from minkit.linalg import PAULIS, dagger, hermitian_eig
from minkit.nonlocality import (
    trace_min_isotropic,
    trace_min_numeric,
    trace_min_pure,
    trace_min_werner,
)
from minkit.states import (
    StateFormatError,
    StateInvariantError,
    _ginibre,
    _haar_q,
    bell_diagonal_weights,
    bloch_decompose,
    bloch_matrix,
    canonicalize,
    density_from_pure,
    detect_family,
    in_tetrahedron,
    load_state,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    max_entangled,
    pure_state,
    random_bell_triple,
    random_density,
    random_pure,
    save_state,
    schmidt,
    state_from_json,
    swap_operator,
    validate,
)

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


class TestValidate:
    def test_maximally_mixed(self):
        rho = validate(np.eye(4, dtype=complex) / 4, (2, 2))
        assert rho.dims == (2, 2)

    def test_rejects_non_psd(self):
        bad = np.kron(PAULIS[2], np.eye(2)) / 2
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

    def test_stack_gives_one_state_per_matrix(self):
        rng = np.random.default_rng(40)
        mats = np.stack([random_density((2, 3), 1 + k % 6, rng).mat for k in range(6)])
        states = validate(mats, (2, 3))
        assert len(states) == 6
        for mat, rho in zip(mats, states):
            assert rho.dims == (2, 3)
            np.testing.assert_array_equal(rho.mat, validate(mat, (2, 3)).mat)

    def test_stack_raises_what_its_bad_matrix_raises(self):
        rng = np.random.default_rng(41)
        good = [random_density((2, 2), 1 + k % 4, rng).mat for k in range(6)]
        # unit trace and Hermitian, so only positivity fails
        bad = np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex)
        with pytest.raises(StateInvariantError) as alone:
            validate(bad, (2, 2))
        assert "negative eigenvalue -2.000e-01" in str(alone.value)
        with pytest.raises(StateInvariantError) as stacked:
            validate(np.stack(good[:4] + [bad] + good[4:]), (2, 2))
        assert str(stacked.value) == str(alone.value)

    def test_stack_names_its_first_bad_matrix(self):
        good = np.eye(4, dtype=complex) / 4
        heavy = 2.0 * good
        skew = good.copy()
        skew[0, 1] = 0.1
        with pytest.raises(StateInvariantError, match="trace is 2"):
            validate(np.stack([good, heavy, skew]), (2, 2))
        with pytest.raises(StateInvariantError, match="Hermitian"):
            validate(np.stack([good, skew, heavy]), (2, 2))
        with pytest.raises(StateInvariantError, match="expected shape"):
            validate(np.stack([good, good])[None], (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stack_with_non_finite_matrix(self, bad):
        good = np.eye(4, dtype=complex) / 4
        broken = good.copy()
        broken[1, 2] = bad
        for mat in (broken, np.stack([good, broken, good])):
            with pytest.raises(StateInvariantError, match="non-finite"):
                validate(mat, (2, 2))
        # an earlier matrix that fails raises its own message first
        skew = good.copy()
        skew[0, 1] = 0.1
        with pytest.raises(StateInvariantError, match="Hermitian"):
            validate(np.stack([skew, broken]), (2, 2))

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

    def test_pure_state_rejects_non_unit_and_nan_vectors(self):
        for v, norm in (([1.0, 1.0, 0.0, 0.0], "1.41421356237"), ([np.nan, 0.0, 0.0, 0.0], "nan")):
            with pytest.raises(StateInvariantError, match=f"vector norm {norm}"):
                pure_state(v, (2, 2))

    def test_bell_state(self):
        form = schmidt(pure_state(BELL_PHI_PLUS, (2, 2)))
        np.testing.assert_allclose(form.coefficients, [0.5, 0.5], atol=1e-12)

    def test_reconstruction(self):
        psi = random_pure((2, 3), seed=11)
        form = schmidt(psi)
        roots = np.sqrt(np.clip(form.coefficients, 0.0, None))
        rebuilt = ((form.basis_a * roots) @ form.basis_b.T).ravel()
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
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
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
        with pytest.raises(StateInvariantError, match=r"triple \(1\.0, 1\.0, 1\.0\) lies"):
            make_bell_diagonal(np.ones(3))

    def test_random_triple_is_physical(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            assert in_tetrahedron(random_bell_triple(rng))

    def test_in_tetrahedron_masks_a_stack(self):
        rng = np.random.default_rng(18)
        # random points, a vertex, and points just inside and outside a face
        stack = np.concatenate([rng.uniform(-1.0, 1.0, (200, 3)), [[1.0, -1.0, 1.0]],
                                [[1 / 3, 1 / 3, 1 / 3 + d] for d in (-1e-10, 1e-13, 1e-10)]])
        mask = in_tetrahedron(stack.reshape(51, 4, 3))
        assert mask.shape == (51, 4) and mask.dtype == bool
        assert mask.ravel().tolist() == [in_tetrahedron(c) for c in stack]
        assert mask.any() and not mask.all()
        assert type(in_tetrahedron(stack[0])) is bool

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
            uu = np.kron(u, u)
            assert np.linalg.norm(uu @ rho.mat @ dagger(uu) - rho.mat) <= 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="x must"):
            make_werner(2, 1.5)

    @pytest.mark.parametrize("make, closed, low", [(make_werner, trace_min_werner, "-1"),
                                                   (make_isotropic, trace_min_isotropic, "0")])
    def test_constructor_and_closed_form_check_alike(self, make, closed, low):
        for d, x, message in ((1, 0.5, "d must be >= 2"), (2, 1.5, rf"x must lie in \[{low}, 1\]"),
                              (3, float("nan"), r"got nan")):
            for f in (make, closed):
                with pytest.raises(ValueError, match=message):
                    f(d, x)

    @pytest.mark.parametrize("f", [make_werner, make_isotropic, trace_min_werner,
                                   trace_min_isotropic])
    def test_rejects_a_non_integer_d(self, f):
        with pytest.raises(ValueError, match="d must be an integer"):
            f(2.5, 0.5)


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
            uu = np.kron(u, u.conj())
            assert np.linalg.norm(uu @ rho.mat @ dagger(uu) - rho.mat) <= 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="x must"):
            make_isotropic(2, -0.1)


class TestRandomEnsembles:
    def test_pure_deterministic_and_normalized(self):
        a = random_pure((2, 3), seed=5)
        b = random_pure((2, 3), seed=5)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12

    def test_ginibre_is_two_standard_normal_draws(self):
        # one (2, *shape) draw is the real, then the imaginary part, and the
        # stream goes on as after two draws of ``shape``
        for shape in ((4,), (6, 3), (2, 2), (8, 2)):
            for seed in range(5):
                one, two = np.random.default_rng(seed), np.random.default_rng(seed)
                g = _ginibre(one, shape)
                expected = two.standard_normal(shape) + 1j * two.standard_normal(shape)
                assert g.tobytes() == expected.tobytes()
                assert one.standard_normal(3).tobytes() == two.standard_normal(3).tobytes()

    def test_haar_q_matches_the_reference_unitary(self):
        for n in (1, 2, 3, 5):
            one, two = np.random.default_rng(n), np.random.default_rng(n)
            assert _haar_q(_ginibre(one, (n, n))).tobytes() == random_unitary(n, two).tobytes()

    def test_density_deterministic(self):
        a = random_density((2, 2), 3, seed=5)
        b = random_density((2, 2), 3, seed=5)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_rank_two_spectrum(self):
        rho = random_density((2, 2), 2, seed=6)
        w = np.sort(np.linalg.eigvalsh(rho.mat))
        assert np.all(w[2:] > 1e-8)
        assert np.all(np.abs(w[:2]) < 1e-8)

    def test_density_rejects_a_non_integer_rank(self):
        with pytest.raises(ValueError, match="rank must be an integer"):
            random_density((2, 2), 1.5, 0)

    def test_pure_rejects_non_integer_dims(self):
        with pytest.raises(ValueError, match="dims must be an integer"):
            random_pure((2.5, 2), 0)

    @pytest.mark.parametrize("draw", [
        lambda seed: random_density((2, 2), 2, seed),
        lambda seed: random_pure((2, 2), seed),
        random_bell_triple,
    ], ids=["random_density", "random_pure", "random_bell_triple"])
    def test_rejects_a_non_integer_seed(self, draw):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw(1.5)

    def test_a_generator_seed_draws_on(self):
        # a Generator is used as it is, an integer seed through default_rng
        rng = np.random.default_rng(5)
        first, second = random_bell_triple(rng), random_bell_triple(rng)
        again = np.random.default_rng(5)
        assert first.tobytes() == random_bell_triple(again).tobytes()
        assert second.tobytes() == random_bell_triple(again).tobytes()
        assert random_bell_triple(np.uint32(5)).tobytes() == first.tobytes()


class TestEof:
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
            lam = form.coefficients[form.coefficients > 0.0]
            eofs.append(-(lam * np.log2(lam)).sum())  # entanglement entropy in bits
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

    @staticmethod
    def _every_test_in_order(rho, tol):
        """The family tests in their fixed order, each one always run."""
        mat, (da, db) = rho.mat, rho.dims
        eig = hermitian_eig(mat)
        if eig.eigenvalues[0] >= 1.0 - tol:
            v = eig.eigenvectors[:, 0] / np.linalg.norm(eig.eigenvectors[:, 0])
            if np.abs(mat - np.outer(v, v.conj())).max() <= 10 * tol:
                return "pure", {"schmidt": schmidt(pure_state(v, rho.dims))}
        if rho.dims == (2, 2):
            form = bloch_decompose(rho)
            off = form.t - np.diag(np.diagonal(form.t))
            if max(np.linalg.norm(form.x), np.linalg.norm(form.y), np.abs(off).max()) <= tol:
                return "bell_diagonal", {"c": form.c}
        if da == db:
            d, swap = da, swap_operator(da)
            gram = np.array([[d * d, d], [d, d * d]], dtype=float)
            a, b = np.linalg.solve(gram, [np.trace(mat).real, np.trace(mat @ swap).real])
            x = (b * (d**3 - d) + 1) / d
            residual = np.abs(mat - a * np.eye(d * d) - b * swap).max()
            if residual <= tol and -1.0 - 1e-9 <= x <= 1.0 + 1e-9:
                return "werner", {"d": d, "x": float(np.clip(x, -1.0, 1.0))}
            phi = max_entangled(d)
            x = float((phi.conj() @ mat @ phi).real)
            if -1e-9 <= x <= 1.0 + 1e-9:
                xc = float(np.clip(x, 0.0, 1.0))
                proj = np.outer(phi, phi.conj())
                model = (1 - xc) / (d * d - 1) * np.eye(d * d)
                model = model + (d * d * xc - 1) / (d * d - 1) * proj
                if np.abs(mat - model).max() <= tol:
                    return "isotropic", {"d": d, "x": xc}
        return "generic", {}

    def test_cheap_skips_match_every_test_in_order(self):
        # Werner, isotropic, Bell-diagonal, pure, nearly pure and random
        # states, and each pushed off its family by 3e-10 to 1e-8 (a traceless
        # Hermitian kick): the same family and bitwise the same parameters
        rng = np.random.default_rng(918)
        base = [make_werner(d, x) for d in (2, 3, 4) for x in (-1.0, -0.3, 0.0, 1 / d, 0.6, 1.0)]
        base += [make_isotropic(d, x) for d in (2, 3, 4) for x in (0.0, 1 / d**2, 0.5, 1.0)]
        base += [make_bell_diagonal(random_bell_triple(rng)) for _ in range(4)]
        pure = [density_from_pure(random_pure(dims, rng)) for dims in ((2, 2), (2, 3), (3, 3))]
        base += pure
        # mixed by p in (tol / 2, tol): lambda_max >= 1 - tol with purity below 1 - tol
        base += [validate((1 - p) * rho.mat + p * np.eye(len(rho.mat)) / len(rho.mat), rho.dims)
                 for rho in pure for p in (7.5e-11, 7.5e-10, 7.5e-9)]
        base += [random_density(dims, r, rng) for dims in ((2, 2), (3, 3)) for r in (2, 3, 4)]
        states = list(base)
        for rho in base:
            n = rho.mat.shape[0]
            for eps in (3e-10, 1e-9, 3e-9, 1e-8):
                kick = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                kick = kick + dagger(kick) - 2 * np.trace(kick).real / n * np.eye(n)
                try:
                    states.append(validate(rho.mat + eps * kick / np.abs(kick).max(), rho.dims))
                except StateInvariantError:
                    pass  # a kick off a pure state can leave the PSD cone
        seen = set()
        for rho in states:
            name, params = detect_family(rho)
            ref_name, ref_params = self._every_test_in_order(rho, 1e-9)
            assert name == ref_name
            seen.add(name)
            for key, value in ref_params.items():
                got = params[key]
                if key == "schmidt":
                    for field in ("coefficients", "basis_a", "basis_b"):
                        assert getattr(got, field).tobytes() == getattr(value, field).tobytes()
                else:
                    assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
        assert seen == {"pure", "bell_diagonal", "werner", "isotropic", "generic"}


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
