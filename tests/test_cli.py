"""End-to-end CLI behavior: outputs, schemas, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import minkit
from minkit.channels import monotonicity_audit
from minkit.cli import build_parser, main, surface_rows
from minkit.nonlocality import OptimizerConfig, oracle_audit, relation_audit
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
            np.kron(random_density((1, 2), 2, rng).mat, random_density((1, 2), 2, rng).mat),
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
        assert main(["compute", str(bd), "--degeneracy-tol", "-1"]) == 2
        for bad in ("nan", "inf"):
            assert main(["compute", str(bd), "--method", "numeric", "--tol", bad]) == 2
            assert main(["compute", str(bd), "--method", "numeric", "--degeneracy-tol", bad]) == 2
        capsys.readouterr()
        for argv in (["compute", str(bd), "--seed", "-1"],
                     ["compute", str(bd), "--method", "numeric", "--seed=-3"],
                     ["audit", "--kind", "oracle", "--counts", "2", "--seed", "-1"]):
            assert main(argv) == 2
            assert "seed must be >= 0" in capsys.readouterr().err

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
        for c0 in ("nan,0.2,0.3", "0.1,inf,0.3", "0.1,0.2,-inf"):
            assert main(["sweep", "--c0", c0, "--axis", "3", "--out", out]) == 2
        for tmax in ("-1", "nan", "inf", "-inf"):
            assert main(["sweep", "--c0", "0.2,0.3,0.45", "--axis", "3", f"--tmax={tmax}",
                         "--out", out]) == 2
            assert "--tmax" in capsys.readouterr().err
        capsys.readouterr()
        assert not (tmp_path / "x.csv").exists()

        # an --out path that cannot be written is malformed input, not a traceback
        missing = str(tmp_path / "missing" / "x.csv")
        for argv in (
            ["surface", "--level", "0.45", "--resolution", "3"],
            ["region", "--axis", "3", "--resolution", "3"],
            ["sweep", "--c0", "0.2,0.3,0.45", "--axis", "3", "--grid", "3"],
            ["compute", str(bd)],
            ["audit", "--kind", "monotonicity", "--counts", "1"],
        ):
            assert main(argv + ["--out", missing]) == 2
            assert f"cannot write {missing}" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "dims", ["null", "4", '{"a": 1}', "[[2], [2]]", '"ab"', "[NaN, 2]", "[2.5, 1.6]",
                 "[true, 4]", "[2]", "[2, 2, 2]"])
    def test_malformed_dims_exit_2(self, capsys, tmp_path, dims):
        m = np.eye(4) / 4
        path = tmp_path / "dims.json"
        path.write_text(f'{{"dims": {dims}, "re": {m.tolist()}, "im": {(0 * m).tolist()}}}')
        assert main(["compute", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dims must be two integers" in captured.err

    def test_integral_float_dims(self, capsys, bd_state, tmp_path):
        with open(bd_state) as fh:
            payload = json.load(fh)
        path = tmp_path / "float-dims.json"
        path.write_text(json.dumps({**payload, "dims": [2.0, 2]}))
        assert _run(capsys, ["compute", str(path)]) == _run(capsys, ["compute", bd_state])

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
            assert bell_diagonal_weights(c).min() >= -1e-9
            assert 0 <= int(face) <= 5
            # every emitted point really sits on the requested level set
            assert trace_min_two_qubit(make_bell_diagonal(c)).value == pytest.approx(
                0.45, abs=1e-9
            )

    def test_low_level_has_no_clipping(self):
        points, face_ids = surface_rows(0.3, 11)
        assert points.shape == (6 * 11 * 11, 3) and face_ids.shape == (6 * 11 * 11,)

    def test_unit_level_degenerates_to_edges(self):
        points, _ = surface_rows(1.0, 21)
        assert len(points)
        for c in points:
            weights = np.sort(bell_diagonal_weights(c))
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
                        if in_tetrahedron(c):
                            expected.append((float(c[0]), float(c[1]), float(c[2]), face))
                face += 1
        points, face_ids = surface_rows(level, resolution)
        assert points.dtype == np.float64 and face_ids.dtype.kind == "i"
        assert list(zip(*points.T.tolist(), face_ids.tolist())) == expected

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
            assert bell_diagonal_weights(c).min() >= -1e-9
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

    def test_unphysical_triple_message_prints_plain_floats(self, capsys):
        main(["sweep", "--c0", "1,1,1", "--axis", "3", "--out", "/tmp/x.csv"])
        assert ("correlation triple (1.0, 1.0, 1.0) lies outside the physical tetrahedron"
                in capsys.readouterr().err)


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
        assert report["max_residual_sphere"] <= 1e-8
        # the sum-of-absolute-values reading of the Bloch norm is not the
        # right one; its recorded residual should be visibly worse
        assert report["max_residual_sumabs_reading"] > 1e-3

    @pytest.mark.parametrize("kind", ["monotonicity", "relations", "oracle"])
    def test_writes_the_library_report(self, capsys, tmp_path, kind):
        cfg = OptimizerConfig(seed=11)
        report = {
            "monotonicity": lambda: monotonicity_audit(3, 2, 11, cfg),
            "relations": lambda: relation_audit(3, 11, cfg),
            "oracle": lambda: oracle_audit(3, 11, cfg),
        }[kind]()
        out = tmp_path / "audit.json"
        argv = ["audit", "--kind", kind, "--counts", "3", "--channels", "2", "--seed", "11"]
        code, _ = _run(capsys, argv + ["--out", str(out)])
        assert code == (0 if report["passed"] else 1)
        assert json.loads(out.read_text()) == json.loads(json.dumps({**report, "kind": kind}))

    def test_manifest_records_the_optimizer_flags(self, capsys, tmp_path):
        argv = ["audit", "--kind", "oracle", "--counts", "6", "--seed", "1"]
        plain, tuned = tmp_path / "plain.json", tmp_path / "tuned.json"
        _run(capsys, argv + ["--out", str(plain)])
        _run(capsys, argv + ["--degeneracy-tol", "0.2", "--restarts", "2", "--out", str(tuned)])
        # the two reports may agree; their manifests say how each was made
        manifests = [json.loads((tmp_path / f"{f}.json.manifest.json").read_text())
                     for f in ("plain", "tuned")]
        assert manifests[0]["input_digest"] != manifests[1]["input_digest"]
        assert manifests[0]["config"] == {"kind": "oracle", "counts": 6, "channels": 1,
                                          **asdict(OptimizerConfig(seed=1))}
        assert manifests[1]["config"] == {**manifests[0]["config"], "degeneracy_tol": 0.2,
                                          "restarts": 2}

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["audit", "--kind", "monotonicity", "--counts", "10", "--seed", "42"]
        _run(capsys, args + ["--out", str(a)])
        _run(capsys, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestParser:
    @pytest.mark.parametrize("argv", [["surface", "--level", "0.45"], ["region", "--axis", "3"],
                                      ["sweep", "--c0", "0.2,0.3,0.45", "--axis", "3"]])
    def test_figure_commands_take_no_seed(self, capsys, tmp_path, argv):
        # the figures draw nothing at random; their manifests record seed 0
        out = tmp_path / "fig.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "fig.csv.manifest.json").read_text())
        assert manifest["seed"] == 0
        capsys.readouterr()

    def test_main_called_twice_gives_the_same_results(self, capsys, tmp_path, bd_state):
        # the parser is built once, and a second call parses afresh
        runs = []
        for _ in range(2):
            code, out = _run(capsys, ["compute", bd_state, "--measure", "n2", "--method",
                                      "numeric", "--out", str(tmp_path / "c.json")])
            runs.append((code, out, (tmp_path / "c.json").read_bytes(),
                         (tmp_path / "c.json.manifest.json").read_bytes()))
            assert main(["sweep", "--c0", "2,0,0", "--axis", "3", "--out", "/dev/null"]) == 3
            capsys.readouterr()
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert build_parser() is build_parser()


class TestCsv:
    """Every cell reads as ``f"{v:.12g}"`` for a float and ``str(v)`` otherwise."""

    @staticmethod
    def _per_cell(header, columns):
        # array columns cell by cell, as the Python values of ``tolist``
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        lines = [",".join(header)]
        lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in r)
                  for r in zip(*cols)]
        return "\n".join(lines) + "\n"

    def test_cells_match_per_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(7)
        edge = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 1e300, 0.1]
        floats = edge + rng.standard_normal(40).tolist() + [0.1, -0.0, 0.0]
        mixed = [1, 2.5, True, "x", np.float64(-0.0), None]
        n = len(floats)
        header = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
        columns = [
            np.array(floats),  # float64 arrays: each distinct bit pattern once
            -np.array(floats[::-1])[::2].repeat(2)[:n],
            [-v for v in floats[::-1]],  # sequences: cell by cell
            [np.float64(v) for v in floats],
            np.arange(n) - 3,
            np.arange(n) % 3 == 0,
            np.array(["outside", "boundary", "inside"])[np.arange(n) % 3],
            list(range(n)),
            [mixed[i % len(mixed)] for i in range(n)],
        ]
        path = tmp_path / "t.csv"
        minkit.cli._write_csv(str(path), header, columns)
        assert path.read_text() == self._per_cell(header, columns)
        minkit.cli._write_csv(str(path), ["a"], [[]])
        assert path.read_text() == "a\n"
        minkit.cli._write_csv(str(path), ["a", "b"], [np.empty(0), np.empty(0, dtype=int)])
        assert path.read_text() == "a,b\n"

    def test_rows_of_unequal_length_are_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        for columns in ([np.array([1.0, 2.0]), [3.0]], [[1.0], np.array([2.0, 3.0])]):
            with pytest.raises(ValueError):
                minkit.cli._write_csv(str(path), ["a", "b"], columns)
        assert not path.exists()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(minkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, minkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
