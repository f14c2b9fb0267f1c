"""End-to-end CLI behavior: outputs, schemas, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import minkit
from minkit.cli import main, surface_rows
from minkit.linalg import tensor_product
from minkit.states import (
    bell_diagonal_weights,
    in_tetrahedron,
    make_bell_diagonal,
    make_werner,
    random_density,
    save_state,
    validate,
)


@pytest.fixture
def bd_state(tmp_path):
    path = tmp_path / "bd.json"
    save_state(make_bell_diagonal([0.45, 0.3, 0.2]), path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_bell_diagonal_closed_form(self, capsys, bd_state):
        code, out = _run(capsys, ["compute", bd_state, "--measure", "n1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "ClosedForm"
        assert payload["value"] == pytest.approx(0.45, abs=1e-12)
        assert payload["residual_vs_oracle"] <= 1e-8

    def test_hs_measure(self, capsys, bd_state):
        code, out = _run(capsys, ["compute", bd_state, "--measure", "n2"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.073125, abs=1e-12)

    def test_product_state_near_zero(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rho = validate(
            tensor_product(random_density((1, 2), 2, rng).mat, random_density((1, 2), 2, rng).mat),
            (2, 2),
        )
        path = tmp_path / "prod.json"
        save_state(rho, path)
        code, out = _run(capsys, ["compute", str(path), "--measure", "n1"])
        assert code == 0
        assert json.loads(out)["value"] <= 1e-9

    def test_werner_closed_value(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        save_state(make_werner(3, 0.7), path)
        code, out = _run(capsys, ["compute", str(path), "--measure", "n1"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.275, abs=1e-12)

    def test_numeric_method_reports_measurement(self, capsys, bd_state):
        code, out = _run(capsys, ["compute", bd_state, "--method", "numeric"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "NumericSphere"
        assert "axis" in payload["optimal_measurement"]

    def test_exit_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compute", str(bad)]) == 2
        capsys.readouterr()

        nonpsd = tmp_path / "nonpsd.json"
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        nonpsd.write_text(
            json.dumps({"dims": [2, 2], "re": m.real.tolist(), "im": m.imag.tolist()})
        )
        assert main(["compute", str(nonpsd)]) == 3
        capsys.readouterr()

        big = tmp_path / "big.json"
        save_state(random_density((3, 27), 2, 0), big)
        assert main(["compute", str(big), "--method", "numeric"]) == 4
        capsys.readouterr()

        bd = tmp_path / "bd2.json"
        save_state(make_bell_diagonal([0.2, 0.1, 0.0]), bd)
        assert main(["compute", str(bd), "--measure", "nb", "--method", "closed"]) == 1
        capsys.readouterr()

        # optimizer settings the library rejects are malformed input
        assert main(["compute", str(bd), "--restarts", "0"]) == 2
        assert main(["compute", str(bd), "--grid", "4"]) == 2
        assert main(["compute", str(bd), "--degeneracy-tol", "-1"]) == 2
        capsys.readouterr()

        negdims = tmp_path / "negdims.json"
        m = np.eye(4) / 4
        negdims.write_text(json.dumps({"dims": [-2, -2], "re": m.tolist(), "im": (0 * m).tolist()}))
        assert main(["compute", str(negdims)]) == 3
        capsys.readouterr()

        out = str(tmp_path / "x.csv")
        for argv in (
            ["audit", "--kind", "oracle", "--counts", "0"],
            ["audit", "--kind", "monotonicity", "--channels", "0"],
            ["sweep", "--c0", "0.2,0.3,0.45", "--axis", "3", "--grid", "0", "--out", out],
            ["region", "--axis", "3", "--resolution", "-3", "--out", out],
            ["surface", "--level", "0.45", "--resolution", "0", "--out", out],
            ["compute", str(bd), "--grid", "0"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert main(["sweep", "--c0", "a,b,c", "--axis", "3", "--out", out]) == 2
        assert main(["sweep", "--c0", "0.1,0.2", "--axis", "3", "--out", out]) == 2
        capsys.readouterr()
        assert not (tmp_path / "x.csv").exists()

    def test_out_file_and_manifest(self, capsys, bd_state, tmp_path):
        out_path = tmp_path / "report.json"
        code, _ = _run(capsys, ["compute", bd_state, "--out", str(out_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["input_digest"]) == 64


class TestSurface:
    def test_reference_level_nonempty_and_consistent(self, capsys, tmp_path):
        out = tmp_path / "surf.csv"
        code, _ = _run(
            capsys, ["surface", "--level", "0.45", "--resolution", "21", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert rows
        from minkit.nonlocality import trace_min_two_qubit

        for line in rows[:: max(1, len(rows) // 25)]:
            c1, c2, c3, face = line.split(",")
            c = np.array([float(c1), float(c2), float(c3)])
            assert abs(np.abs(c).max() - 0.45) <= 1e-9
            assert in_tetrahedron(c, tol=1e-9)
            assert 0 <= int(face) <= 5
            # every emitted point really sits on the requested level set
            assert trace_min_two_qubit(make_bell_diagonal(c)).value == pytest.approx(
                0.45, abs=1e-9
            )

    def test_low_level_has_no_clipping(self):
        rows = surface_rows(0.3, 11)
        assert len(rows) == 6 * 11 * 11

    def test_unit_level_degenerates_to_edges(self):
        rows = surface_rows(1.0, 21)
        assert rows
        for c1, c2, c3, _ in rows:
            weights = np.sort(bell_diagonal_weights(np.array([c1, c2, c3])))
            # on a tetrahedron edge two of the four Bell weights vanish
            assert np.all(weights[:2] <= 1e-9)

    @pytest.mark.parametrize("resolution", [2, 5, 21, 33, 81])
    @pytest.mark.parametrize("level", [0.05, 1 / 3, 0.45, 0.5, 1.0])
    def test_rows_match_per_point_loop(self, level, resolution):
        grid = np.linspace(-level, level, resolution)
        expected = []
        face = 0
        for axis in range(3):
            for sign in (1.0, -1.0):
                others = [i for i in range(3) if i != axis]
                for u in grid:
                    for v in grid:
                        c = np.zeros(3)
                        c[axis] = sign * level
                        c[others[0]] = u
                        c[others[1]] = v
                        if in_tetrahedron(c, tol=1e-12):
                            expected.append((float(c[0]), float(c[1]), float(c[2]), face))
                face += 1
        assert surface_rows(level, resolution) == expected

    def test_rejects_out_of_range_level(self, capsys):
        assert main(["surface", "--level", "1.5", "--out", "/tmp/x.csv"]) == 2
        capsys.readouterr()

    def test_byte_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, ["surface", "--level", "0.45", "--resolution", "15", "--out", str(a)])
        _run(capsys, ["surface", "--level", "0.45", "--resolution", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRegion:
    def test_vertices_sidecar(self, capsys, tmp_path):
        out = tmp_path / "reg.csv"
        code, _ = _run(capsys, ["region", "--axis", "3", "--resolution", "7", "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "reg.csv.vertices.json").read_text())
        assert sidecar["vertices"]["positive"] == [
            [0.0, 0.0, 0.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, 1.0],
            [1 / 3, 1 / 3, 1 / 3],
            [-1 / 3, -1 / 3, 1 / 3],
        ]
        assert sidecar["vertices"]["negative"] == [
            [0.0, 0.0, 0.0],
            [1.0, 1.0, -1.0],
            [-1.0, -1.0, -1.0],
            [1 / 3, -1 / 3, -1 / 3],
            [-1 / 3, 1 / 3, -1 / 3],
        ]

    def test_axis_one_swaps_roles(self, capsys, tmp_path):
        out = tmp_path / "reg1.csv"
        _run(capsys, ["region", "--axis", "1", "--resolution", "5", "--out", str(out)])
        sidecar = json.loads((tmp_path / "reg1.csv.vertices.json").read_text())
        swapped = [[v[2], v[1], v[0]] for v in sidecar["vertices"]["positive"]]
        assert swapped == [
            [0.0, 0.0, 0.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, 1.0],
            [1 / 3, 1 / 3, 1 / 3],
            [-1 / 3, -1 / 3, 1 / 3],
        ]

    def test_origin_flagged_boundary(self, capsys, tmp_path):
        out = tmp_path / "reg.csv"
        _run(capsys, ["region", "--axis", "3", "--resolution", "9", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        origin = [r for r in rows if r[0] == "0" and r[1] == "0" and r[2] == "0"]
        assert origin and origin[0][3] == "boundary"

    def test_rows_revalidate_after_reread(self, capsys, tmp_path):
        from minkit.channels import classify_freezing

        out = tmp_path / "reg.csv"
        _run(capsys, ["region", "--axis", "2", "--resolution", "9", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert rows
        for c1, c2, c3, flag in rows:
            c = np.array([float(c1), float(c2), float(c3)])
            assert in_tetrahedron(c, tol=1e-9)
            assert flag == classify_freezing(c, 2)


class TestSweep:
    def test_freezing_columns(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _ = _run(
            capsys,
            ["sweep", "--c0", "0.2,0.3,0.45", "--axis", "3", "--out", str(out)],
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 41
        n1 = np.array([float(r[4]) for r in rows])
        n2 = np.array([float(r[5]) for r in rows])
        np.testing.assert_allclose(n1, 0.45, atol=1e-9)
        assert np.all(np.diff(n2) < 0)

    def test_trivial_start_gives_zero_columns(self, capsys, tmp_path):
        out = tmp_path / "zero.csv"
        _run(capsys, ["sweep", "--c0", "0,0,0", "--axis", "3", "--grid", "5", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert all(abs(float(r[4])) <= 1e-12 and abs(float(r[5])) <= 1e-12 for r in rows)

    def test_rejects_unphysical_start(self, capsys):
        assert main(["sweep", "--c0", "1,1,1", "--axis", "3", "--out", "/tmp/x.csv"]) == 3
        capsys.readouterr()


class TestAudit:
    def test_monotonicity_passes(self, capsys, tmp_path):
        out = tmp_path / "mono.json"
        code, _ = _run(
            capsys,
            [
                "audit",
                "--kind",
                "monotonicity",
                "--counts",
                "20",
                "--channels",
                "2",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["pairs"] == 40

    def test_oracle_passes_and_flags_wrong_reading(self, capsys, tmp_path):
        out = tmp_path / "oracle.json"
        code, _ = _run(
            capsys,
            ["audit", "--kind", "oracle", "--counts", "12", "--seed", "3", "--out", str(out)],
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_residual_unique"] <= 1e-8
        assert report["max_residual_sphere"] <= 1e-4
        # the sum-of-absolute-values reading of the Bloch norm is not the
        # right one; its recorded residual should be visibly worse
        assert report["max_residual_sumabs_reading"] > 1e-3

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["audit", "--kind", "monotonicity", "--counts", "10", "--seed", "42"]
        _run(capsys, args + ["--out", str(a)])
        _run(capsys, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(minkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, minkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
