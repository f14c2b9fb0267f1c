"""Kernel linear algebra: local actions, partial traces, decompositions, fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haar import random_unitary
from minkit.linalg import (
    PAULIS,
    _local_action,
    dagger,
    fidelity,
    hermitian_eig,
    partial_trace,
    psd_sqrt,
)


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_hermitian(rng, n):
    m = _random_matrix(rng, n)
    return (m + dagger(m)) / 2


def _random_density(rng, n):
    g = _random_matrix(rng, n)
    m = g @ dagger(g)
    return m / np.trace(m).real


def _kron_action(mat, ops, dims, party):
    """Reference local action through operators lifted with an explicit kron."""
    da, db = dims
    out = np.zeros_like(mat)
    for k in ops:
        big = np.kron(k, np.eye(db)) if party == "A" else np.kron(np.eye(da), k)
        out += big @ mat @ dagger(big)
    return out


class TestLocalAction:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("party", ["A", "B"])
    def test_kraus_sets_match_kron(self, dims, party):
        rng = np.random.default_rng(sum(dims) + (party == "B"))
        d = dims[0] if party == "A" else dims[1]
        mat = _random_density(rng, dims[0] * dims[1])
        for count in (1, 2, 4):
            # Kraus set from the row blocks of a random isometry
            q, _ = np.linalg.qr(_random_matrix(rng, d * count)[:, :d])
            ops = q.reshape(count, d, d)
            got = _local_action(mat, ops, dims, party)
            np.testing.assert_allclose(got, _kron_action(mat, ops, dims, party), atol=1e-14)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("party", ["A", "B"])
    def test_projector_sets_match_kron(self, dims, party):
        rng = np.random.default_rng(10 + sum(dims) + (party == "B"))
        d = dims[0] if party == "A" else dims[1]
        mat = _random_density(rng, dims[0] * dims[1])
        u = random_unitary(d, rng)
        ops = np.stack([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])
        got = _local_action(mat, ops, dims, party)
        np.testing.assert_allclose(got, _kron_action(mat, ops, dims, party), atol=1e-14)

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_batch_matches_one_at_a_time(self, party):
        rng = np.random.default_rng(3)
        dims = (3, 2)
        d = dims[0] if party == "A" else dims[1]
        mat = _random_matrix(rng, 6)
        batch = np.stack([[_random_matrix(rng, d) for _ in range(2)] for _ in range(5)])
        got = _local_action(mat, batch, dims, party)
        assert got.shape == (5, 6, 6)
        for ops, out in zip(batch, got):
            np.testing.assert_allclose(out, _kron_action(mat, ops, dims, party), atol=1e-13)

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_state_stack_matches_one_at_a_time(self, party):
        # each state of a stack under the same operators, bitwise
        rng = np.random.default_rng(4)
        dims = (2, 3)
        d = dims[0] if party == "A" else dims[1]
        mats = np.stack([_random_density(rng, 6) for _ in range(5)])
        for count in (1, 3):
            q, _ = np.linalg.qr(_random_matrix(rng, d * count)[:, :d])
            ops = q.reshape(count, d, d)
            got = _local_action(mats, ops, dims, party)
            assert got.shape == (5, 6, 6)
            for mat, out in zip(mats, got):
                np.testing.assert_array_equal(out, _local_action(mat, ops, dims, party))

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_paired_stack_matches_one_at_a_time(self, party):
        # matrix i under operator stack i, bitwise; a stack of one broadcasts
        rng = np.random.default_rng(5)
        dims = (3, 2)
        d = dims[0] if party == "A" else dims[1]
        mats = np.stack([_random_matrix(rng, 6) for _ in range(4)])
        batch = np.stack([[_random_matrix(rng, d) for _ in range(2)] for _ in range(4)])
        got = _local_action(mats, batch, dims, party)
        assert got.shape == (4, 6, 6)
        for mat, ops, out in zip(mats, batch, got):
            np.testing.assert_array_equal(out, _local_action(mat, ops, dims, party))
        shared = _local_action(mats[:1], batch, dims, party)
        for ops, out in zip(batch, shared):
            np.testing.assert_array_equal(out, _local_action(mats[0], ops, dims, party))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_column_frames_match_a_full_frame_slice(self, dims):
        # (U^dag x I) rho (U x I) on columns s of U is the (s, s) block of the
        # full frame, bitwise: one state under a batch of U's, and paired rows
        rng = np.random.default_rng(6)
        da, db = dims
        mats = np.stack([_random_density(rng, da * db) for _ in range(3)])
        us = np.stack([random_unitary(da, rng) for _ in range(3)])
        full = _local_action(mats, dagger(us)[:, None], dims, "A").reshape(3, da, db, da, db)
        alone = _local_action(mats[0], dagger(us)[:, None], dims, "A").reshape(3, da, db, da, db)
        for cols in [[i, j] for i in range(da) for j in range(i + 1, da)] + [list(range(da))]:
            s = len(cols)
            for stack, frames in ((mats, full), (mats[0], alone)):
                got = _local_action(stack, dagger(us[:, :, cols])[:, None], dims, "A")
                want = frames[:, cols][:, :, :, cols].reshape(3, s * db, s * db)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_rejects_a_state_stack_with_a_deeper_batch(self):
        with pytest.raises(ValueError, match="pairs with a batch"):
            _local_action(np.eye(4)[None], np.eye(2)[None, None, None], (2, 2), "B")

    def test_rejects_unknown_party(self):
        with pytest.raises(ValueError, match="party"):
            _local_action(np.eye(4), np.eye(2)[None], (2, 2), "C")


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(2)
        rho_a, rho_b = _random_density(rng, 2), _random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "B"), rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "A"), rho_b, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = _random_density(rng, 6)
        for party in ("A", "B"):
            out = partial_trace(rho, (2, 3), party)
            assert abs(np.trace(out) - 1.0) <= 1e-12

    def test_linear(self):
        rng = np.random.default_rng(4)
        a, b = _random_matrix(rng, 6), _random_matrix(rng, 6)
        lhs = partial_trace(2.0 * a + 3.0 * b, (2, 3), "A")
        rhs = 2.0 * partial_trace(a, (2, 3), "A") + 3.0 * partial_trace(b, (2, 3), "A")
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(5)
        ms = np.stack([_random_matrix(rng, 6) for _ in range(4)])
        for party in ("A", "B"):
            got = partial_trace(ms, (2, 3), party)
            for m, out in zip(ms, got):
                np.testing.assert_array_equal(out, partial_trace(m, (2, 3), party))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            partial_trace(np.eye(5), (2, 3), "A")
        with pytest.raises(ValueError, match="incompatible"):
            partial_trace(np.zeros((2, 2, 6, 6)), (2, 3), "A")


class TestHermitianEig:
    def test_pauli_z(self):
        w, _ = hermitian_eig(PAULIS[2])
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)

    def test_degenerate(self):
        w, _ = hermitian_eig(np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = _random_hermitian(rng, 5)
            w, v = hermitian_eig(m)  # the pair (w, v), as np.linalg.eigh gives it
            assert w.shape == (5,) and v.shape == (5, 5)
            rebuilt = (v * w) @ dagger(v)
            assert np.linalg.norm(m - rebuilt) <= 1e-10 * max(1.0, np.linalg.norm(m))
            assert np.abs(dagger(v) @ v - np.eye(5)).max() <= 1e-12

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        w, _ = hermitian_eig(_random_hermitian(rng, 6))
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_phases_match_column_loop(self):
        # reference: each column divided by the phase of its first
        # component above 1e-8, one column at a time, with the scalar abs;
        # the eigenbasis feeds the numeric optimizers, so the result must
        # agree to the last bit (signed zeros included), for one matrix and
        # for each matrix of a stack
        rng = np.random.default_rng(9)
        stacks = {}
        for k in range(400):
            n = 1 + k % 8
            m = _random_hermitian(rng, n)
            if k % 5 == 1:
                m = m.real
            elif k % 5 == 2:
                m = np.diag(rng.standard_normal(n)).astype(complex)
            elif k % 5 == 3:
                u = random_unitary(n, rng)
                m = (u * np.repeat(rng.random(n), 2)[:n]) @ dagger(u)
            elif k % 5 == 4:
                m = m * 1e-9
            v = np.linalg.eigh((m + dagger(m)) / 2)[1][:, ::-1].copy()
            for j in range(n):
                col = v[:, j]
                lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
                v[:, j] = col / (lead / abs(lead))
            assert hermitian_eig(m)[1].tobytes() == v.tobytes()
            # a real matrix takes the real eigensolver, so real ones stack apart
            stacks.setdefault((n, m.dtype), []).append((m, v))
        for pairs in stacks.values():
            _, stacked = hermitian_eig(np.stack([m for m, _ in pairs]))
            for vectors, (m, v) in zip(stacked, pairs):
                assert vectors.tobytes() == v.tobytes()

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(10)
        ms = np.stack([_random_hermitian(rng, 3) for _ in range(7)])
        ws, vs = hermitian_eig(ms)
        assert ws.shape == (7, 3) and vs.shape == (7, 3, 3)
        for m, w, v in zip(ms, ws, vs):
            one_w, one_v = hermitian_eig(m)
            np.testing.assert_array_equal(w, one_w)
            np.testing.assert_array_equal(v, one_v)
        ms[4, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(ms)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_square_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = _random_matrix(rng, 4)
            m = g @ dagger(g)
            root = psd_sqrt(m)
            assert np.linalg.norm(root @ root - m) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(9)
        rho = _random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert fidelity(zero, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            rho, sigma = _random_density(rng, 3), _random_density(rng, 3)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-10

    def test_rejects_non_hermitian_rho(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(rho, np.eye(2, dtype=complex) / 2)

    def test_rejects_negative_rho(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-01, not PSD"):
            fidelity(rho, np.eye(2, dtype=complex) / 2)
        # within the clamp, scaled by the largest eigenvalue, is round-off
        assert fidelity(np.diag([1.0, -5e-11]), np.diag([1.0, 0.0])) == 1.0

    def test_rejects_non_hermitian_sigma(self):
        sigma = np.eye(2, dtype=complex) / 2
        sigma[0, 1] = 0.3
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(np.eye(2, dtype=complex) / 2, sigma)

    def test_rejects_negative_sigma(self):
        rng = np.random.default_rng(12)
        rho, sigma = _random_density(rng, 3), _random_density(rng, 3)
        with pytest.raises(ValueError, match="negative eigenvalue .*, not PSD"):
            fidelity(rho, -sigma)
        # within the clamp, scaled by the largest eigenvalue, is round-off
        assert fidelity(np.diag([1.0, 0.0]), np.diag([1.0, -5e-11])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)
