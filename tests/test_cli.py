"""End-to-end runs of the command-line entry point, in process."""

import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import rih
from rih import _blas, cli, solver
from rih._blas import _openblas, one_blas_thread
from rih.cli import main
from rih.hamiltonian import toy_plugs
from rih.instance import reduction
from rih.lattice import LatticeSpec
from rih.rules import (
    GRID_CELL_CAP,
    GRID_WALK_CAP,
    frame_configuration,
    open_bc_frame_ruleset,
)
from rih.tiling import MAX_SITES, Tiling, striped_witness


FIXTURES = Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location("generate", FIXTURES / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)
CORPUS = json.loads((FIXTURES / "cli_corpus.json").read_text())["cases"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_import_leaves_scipy_io_unloaded():
    # no rih module imports scipy.io; this guards `import rih.cli` against
    # picking it up again
    src = str(Path(rih.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, rih.cli; print('scipy.io' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_solve_leaves_scipy_csgraph_unloaded():
    # the table components are labeled with numpy alone
    src = str(Path(rih.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import contextlib, io, sys, rih.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = rih.cli.main(['solve', '--r', '1', '--n', '5'])\n"
        "print(code, 'scipy.sparse.csgraph' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False"


def _blas_counts():
    return [get() for get, _ in _openblas()]


@pytest.fixture
def two_blas_threads():
    # every pool at 2 threads, whatever the machine's default, so a cap to 1
    # and a lost restore both show
    if not _openblas():
        pytest.skip("no OpenBLAS pool found next to numpy or scipy")
    saved = _blas_counts()
    for _, set_ in _openblas():
        set_(2)
    yield
    for (_, set_), n in zip(_openblas(), saved):
        set_(n)


class TestBlasThreads:
    def _patch_encode(self, monkeypatch, exc=None):
        seen = []

        def fake(args):
            seen.append(_blas_counts())
            if exc is not None:
                raise exc
            return 0

        monkeypatch.setattr(cli, "_cmd_encode", fake)
        return seen

    def test_command_runs_on_one_thread_and_restores(self, monkeypatch, two_blas_threads):
        seen = self._patch_encode(monkeypatch)
        assert main(["encode", "--x", "1"]) == 0
        assert seen == [[1] * len(_openblas())]
        assert _blas_counts() == [2] * len(_openblas())

    def test_counts_restored_after_known_error(self, monkeypatch, capsys, two_blas_threads):
        seen = self._patch_encode(monkeypatch, ValueError("bad input"))
        assert main(["encode", "--x", "1"]) == 2
        assert capsys.readouterr().err == "error: bad input\n"
        assert seen == [[1] * len(_openblas())]
        assert _blas_counts() == [2] * len(_openblas())

    def test_counts_restored_after_unexpected_exception(self, monkeypatch, two_blas_threads):
        seen = self._patch_encode(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            main(["encode", "--x", "1"])
        assert seen == [[1] * len(_openblas())]
        assert _blas_counts() == [2] * len(_openblas())

    def test_search_runs_on_one_thread_and_restores(self, monkeypatch, two_blas_threads):
        # a library call, outside any command
        seen = []
        pair_sweep = solver._pair_sweep

        def recording(*args):
            seen.append(_blas_counts())
            return pair_sweep(*args)

        monkeypatch.setattr(solver, "_pair_sweep", recording)
        solver.ground_energy_search(LatticeSpec(1, 5))
        assert seen and all(counts == [1] * len(_openblas()) for counts in seen)
        assert _blas_counts() == [2] * len(_openblas())
        with pytest.raises(solver.BudgetExceeded):
            solver.ground_energy_search(LatticeSpec(2, 6))
        assert _blas_counts() == [2] * len(_openblas())

    def test_import_changes_no_count_and_looks_nothing_up(self):
        if not _openblas():
            pytest.skip("no OpenBLAS pool found next to numpy or scipy")
        # the pools are set to 2 through a stand-alone copy of the module,
        # before the package is imported at all
        blas = Path(rih.__file__).with_name("_blas.py")
        code = (
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('pools', {str(blas)!r})\n"
            "pools = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(pools)\n"
            "for _, set_ in pools._openblas():\n"
            "    set_(2)\n"
            "import rih.cli, rih._blas\n"
            "print(rih._blas._openblas.cache_info().currsize)\n"
            "print([get() for get, _ in pools._openblas()])\n"
        )
        src = str(Path(rih.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split("\n")[:2] == ["0", str([2] * len(_openblas()))]

    def _after_fresh_import(self, report, **env):
        # the value of the expression report in a fresh interpreter, just
        # after `import rih`; none of the variables OpenBLAS reads for its
        # count is set but those in env, and `before` is the environment as it
        # was before the import
        if not _openblas():
            pytest.skip("no OpenBLAS pool found next to numpy or scipy")
        code = (
            "import json, os, subprocess, sys\n"
            "before = dict(os.environ)\n"
            "import rih\n"
            "from rih._blas import _openblas\n"
            f"print(json.dumps({report}))\n"
        )
        src = str(Path(rih.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        base = {k: v for k, v in os.environ.items() if k not in _blas._COUNT_VARIABLES}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**base, **env, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(out.stdout)

    def test_import_starts_the_pools_at_one_thread_and_leaves_the_environment(self):
        child = (
            "subprocess.run([sys.executable, '-c', 'import os; "
            "print(\"OPENBLAS_NUM_THREADS\" in os.environ)'], "
            "capture_output=True, text=True, check=True).stdout"
        )
        out = self._after_fresh_import(
            "{'tasks': sorted(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None,"
            " 'counts': [get() for get, _ in _openblas()],"
            " 'same_env': dict(os.environ) == before,"
            f" 'child_sees_it': {child}}}"
        )
        assert out["counts"] == [1] * len(_openblas())
        assert out["same_env"]
        assert out["child_sees_it"] == "False\n"
        if out["tasks"] is not None:
            # no pool started a worker thread
            assert len(out["tasks"]) == 1

    def test_import_keeps_a_count_the_caller_set(self):
        out = self._after_fresh_import(
            "[[get() for get, _ in _openblas()], os.environ['OMP_NUM_THREADS']]",
            OMP_NUM_THREADS="2",
        )
        assert out == [[2] * len(_openblas()), "2"]

    def test_one_thread_changes_no_oracle_value(self, two_blas_threads):
        # c06's twelve full-space diagonalizations.  Lanczos at dimension 4096
        # sums in another order on one thread than on two, so a few values
        # move in their last bits; 1e-12 is four orders below c06's 1e-8
        # oracle-versus-decomposition tolerance
        text = (Path(rih.__file__).parent / "data" / "sector_fixtures.json").read_text()
        rows = [f for f in json.loads(text)["fixtures"] if f["kind"] == "sector-full"]
        assert len(rows) == 12
        plugs = toy_plugs()

        def oracle_values():
            return [
                solver.sector_full_oracle(Tiling.from_json_dict(f["tiling"]), plugs[f["plug"]])
                for f in rows
            ]

        with one_blas_thread():
            capped = oracle_values()
        two = oracle_values()
        assert capped == pytest.approx(two, rel=0, abs=1e-12)
        for f, value in zip(rows, capped):
            assert value == pytest.approx(f["expected_total"], abs=1e-6)


class TestEncodeReduce:
    def test_encode_smallest_input(self, capsys):
        out = run_json(capsys, "encode", "--x", "1")
        assert out["p"] in (5, 7)
        assert out["n"] == 3 * out["p"]
        assert out["x"] == "1"

    def test_encode_rejects_bad_bits(self, capsys):
        code, _, err = run(capsys, "encode", "--x", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_reduce_matches_library_hash(self, capsys):
        out = run_json(capsys, "reduce", "--x", "10", "--r", "2")
        direct = reduction("10", 2)
        assert out["term_hash"] == direct.term_hash()
        assert out["lattice"] == direct.lattice.to_json_dict()
        assert out["coefficients"]["tile"] == 8.0

    def test_reduce_is_not_site_capped(self, capsys):
        # reduce poses a lattice without enumerating its sites
        out = run_json(capsys, "reduce", "--x", "101", "--r", "2")
        assert LatticeSpec.from_json_dict(out["lattice"]).num_sites > MAX_SITES

    def test_reduce_unknown_plug(self, capsys):
        code, _, err = run(capsys, "reduce", "--x", "1", "--r", "2", "--plug", "nope")
        assert code == 2
        assert "unknown plug" in err


class TestSolveWitness:
    def test_solve_small_torus(self, capsys):
        out = run_json(capsys, "solve", "--r", "2", "--n", "3")
        assert out["certified"] is True
        assert out["minimum"] == pytest.approx(36.0, abs=1e-9)
        assert out["argmin"] is not None

    def test_solve_report_does_not_depend_on_earlier_solves(self, capsys):
        # solving the open 3x3 and ring 7 first leaves the torus report as a
        # fresh process gives it, timing aside
        def solve_torus():
            out = run_json(capsys, "solve", "--r", "2", "--n", "3")
            del out["stats"]["elapsed_seconds"]
            return json.dumps(out)

        solver._tables.cache_clear()
        solver._pairing_minimum.cache_clear()
        fresh = solve_torus()
        solver._tables.cache_clear()
        solver._pairing_minimum.cache_clear()
        run_json(capsys, "solve", "--r", "2", "--n", "3", "--boundary", "open")
        run_json(capsys, "solve", "--r", "1", "--n", "7")
        assert solve_torus() == fresh

    def test_threads_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--r", "2", "--n", "3", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cap", [("solve", "12"), ("witness", "18")])
    def test_cap_flag_is_rejected(self, capsys, command, cap):
        # the exact pairing cap is fixed; no command takes it
        with pytest.raises(SystemExit) as exc:
            main([command, "--r", "2", "--n", "3", "--cap", cap])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "r,n,plug,space",
        [("2", "12", "frustration_free", "2^12"), ("6", "6", "afm", "2^7776")],
    )
    def test_witness_beyond_the_classical_sweep_fails_cleanly(self, capsys, r, n, plug, space):
        # 2^12 layer states on the 12x12 torus exceed the embedded sweep's
        # budget, and so, by far, do the 6^5-site layers of the 6^6 torus: a
        # typed error naming the space as a power, exit 2
        code, out, err = run(capsys, "witness", "--r", r, "--n", n, "--plug", plug)
        assert code == 2 and out == ""
        assert err == f"error: layer state space {space} too large for the classical sweep\n"

    def test_witness_refuses_the_plug_before_building_the_output(self, capsys, monkeypatch):
        built = []
        to_json_dict = Tiling.to_json_dict

        def spy(self):
            built.append(self.spec)
            return to_json_dict(self)

        monkeypatch.setattr(Tiling, "to_json_dict", spy)
        code, out, err = run(capsys, "witness", "--r", "6", "--n", "6", "--plug", "afm")
        assert code == 2 and out == ""
        assert err == "error: layer state space 2^7776 too large for the classical sweep\n"
        assert built == []

    def test_witness_energies_and_flags(self, capsys):
        out = run_json(capsys, "witness", "--r", "2", "--n", "3")
        assert out["classical"]["total"] == 36
        assert out["flags"]["copy1"]["looped"] is True
        assert out["flags"]["copy1"]["has_turn"] is False
        assert "sector" not in out

    def test_witness_with_plug_reports_sector(self, capsys):
        out = run_json(capsys, "witness", "--r", "2", "--n", "3", "--plug", "zero")
        assert out["sector"]["total"] == pytest.approx(36.0, abs=1e-9)
        assert out["sector"]["method"] != "bound-only"

    def test_classify_round_trip(self, capsys, tmp_path):
        w = striped_witness(LatticeSpec(r=2, n=3, boundary="periodic"))
        path = tmp_path / "w.json"
        path.write_text(json.dumps(w.to_json_dict()))
        out = run_json(capsys, "classify", str(path))
        assert out["rule_violations"] == {"copy1": 0, "copy2": 0}
        assert out["classical"]["total"] == 36
        assert out["flags"]["copy2"]["uniformly_directed"] is True

    @pytest.mark.parametrize("field", ["copies", "spec"])
    def test_classify_names_a_missing_field(self, capsys, tmp_path, field):
        obj = striped_witness(LatticeSpec(2, 3)).to_json_dict()
        del obj[field]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: tiling JSON lacks the field '{field}'\n"


def run_refused(capsys, *argv):
    """The one error line of a refused command, checking that it exits 2,
    prints nothing on stdout and peaks under 1 MiB under tracemalloc."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert peak < 2**20
    return err


class TestSiteCap:
    @pytest.mark.parametrize("r,n", [(2, 3000), (1_000_000_000, 3)])
    def test_witness_over_the_cap_is_refused_before_allocating(self, capsys, r, n):
        err = run_refused(capsys, "witness", "--r", str(r), "--n", str(n))
        cap = f"tiling cap of {MAX_SITES} sites"
        assert err == f"error: the {n}^{r}-site lattice exceeds the {cap}\n"

    def test_classify_over_the_cap_is_refused_before_allocating(self, capsys, tmp_path):
        spec = {"r": 3, "n": 100000, "boundary": "periodic"}
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": "tiling/1", "spec": spec, "copies": [[[0, 0]]]}))
        err = run_refused(capsys, "classify", str(path))
        cap = f"tiling cap of {MAX_SITES} sites"
        assert err == f"error: the 100000^3-site lattice exceeds the {cap}\n"

    @pytest.mark.parametrize(
        "r,n,sites", [(1, 15, "15"), (2, 30000, "900000000"), (1_000_000, 3, "3^1000000")]
    )
    def test_solve_over_the_table_cap_is_refused_fast(self, capsys, r, n, sites):
        start = time.perf_counter()
        err = run_refused(capsys, "solve", "--r", str(r), "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert err == f"error: numbering table infeasible for {sites} sites\n"

    def test_enumerate_over_the_cell_cap_is_refused_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "mono.json"
        path.write_text(json.dumps({"alphabet": ["m"]}))
        start = time.perf_counter()
        err = run_refused(capsys, "tiles", "enumerate", "--rules", str(path), "--n", "100000")
        assert time.perf_counter() - start < 1.0
        cap = f"enumeration cap of {GRID_CELL_CAP} cells"
        assert err == f"error: 100000x100000 grid exceeds the {cap}\n"


class TestGridWalkCap:
    # two tiles and no prohibitions: 2^(n*n) grids
    FREE2 = {"alphabet": ["a", "b"]}
    # c may sit beside nothing, so no row holds it
    NEVER_C = {
        "alphabet": ["a", "b", "c"],
        "forbidden_h": [["c", "c"], ["a", "c"], ["c", "a"], ["b", "c"], ["c", "b"]],
    }
    ERROR = (
        f"error: enumeration walked past the cap of {GRID_WALK_CAP} grids; "
        "--limit stops it at fewer tilings\n"
    )

    def enumerate(self, capsys, tmp_path, rules, *argv):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        return run(capsys, "tiles", "enumerate", "--rules", str(path), *argv)

    def test_walk_past_the_cap_is_refused(self, capsys, tmp_path):
        start = time.perf_counter()
        code, out, err = self.enumerate(capsys, tmp_path, self.FREE2, "--n", "5")
        assert time.perf_counter() - start < 3.0
        assert (code, out, err) == (2, "", self.ERROR)

    def test_limit_stops_before_the_cap(self, capsys, tmp_path):
        code, out, _ = self.enumerate(capsys, tmp_path, self.FREE2, "--n", "5", "--limit", "10")
        report = json.loads(out)
        assert code == 0 and report["count"] == 10 and report["truncated"] is True

    def test_every_grid_under_the_cap_is_listed(self, capsys, tmp_path):
        code, out, _ = self.enumerate(capsys, tmp_path, self.FREE2, "--n", "4")
        report = json.loads(out)
        assert code == 0 and report["count"] == 2**16 and report["truncated"] is False

    def test_unplaceable_requirement_is_refused(self, capsys, tmp_path):
        argv = ("--n", "5", "--require", "c", "--limit", "1")
        code, out, err = self.enumerate(capsys, tmp_path, self.NEVER_C, *argv)
        assert (code, out, err) == (2, "", self.ERROR)


class TestPathErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "{dir}"],
            ["tiles", "lift", "--rules", "{dir}"],
            ["tiles", "enumerate", "--rules", "{dir}", "--n", "3"],
            ["tiles", "check", "--rules", "{rules}", "--grid", "{dir}"],
        ],
        ids=["classify", "lift", "enumerate", "check"],
    )
    def test_directory_as_input_file_exits_2(self, capsys, tmp_path, argv):
        rules = tmp_path / "mono.json"
        rules.write_text(json.dumps({"alphabet": ["m"]}))
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = [a.format(dir=folder, rules=rules) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: [Errno 21] Is a directory: '{folder}'\n"


def _witness_json(**fields):
    return {**striped_witness(LatticeSpec(2, 3)).to_json_dict(), **fields}


class TestWrongShapeJson:
    @pytest.mark.parametrize(
        "argv,obj,message",
        [
            (["tiles", "lift"], [], "rule set JSON must be an object"),
            (
                ["tiles", "lift"],
                {"alphabet": 5},
                "rule set field 'alphabet' must be a list of tile names",
            ),
            (
                ["tiles", "enumerate", "--n", "2"],
                {"alphabet": 5},
                "rule set field 'alphabet' must be a list of tile names",
            ),
            (
                ["tiles", "lift"],
                {"alphabet": ["a"], "forbidden_h": [5]},
                "rule set field 'forbidden_h' must be a list of [tile, tile] pairs",
            ),
        ],
        ids=["lift-list", "lift-alphabet", "enumerate-alphabet", "lift-pair"],
    )
    def test_rules(self, capsys, tmp_path, argv, obj, message):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(obj))
        assert run_refused(capsys, *argv, "--rules", str(path)) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([], "tiling JSON must be an object"),
            (_witness_json(spec=[]), "lattice spec JSON must be an object"),
            (
                _witness_json(spec={"r": [], "n": 3, "boundary": "periodic"}),
                "lattice spec fields 'r' and 'n' must be integers",
            ),
            (
                _witness_json(spec={"r": 2, "n": 3.7, "boundary": "periodic"}),
                "lattice spec fields 'r' and 'n' must be integers",
            ),
            (
                _witness_json(spec={"r": True, "n": 3, "boundary": "periodic"}),
                "lattice spec fields 'r' and 'n' must be integers",
            ),
            (
                _witness_json(spec={"r": 2, "n": "3", "boundary": "periodic"}),
                "lattice spec fields 'r' and 'n' must be integers",
            ),
            (
                _witness_json(copies=[[0, 1, 2]]),
                "each tiling copy must be a list of [color, number] integer pairs",
            ),
            (_witness_json(copies={}), "tiling JSON must carry one or two copies"),
            (
                _witness_json(copies=[[[128, 0]] + [[0, 0]] * 8]),
                "colors1 entries must lie in 0..2",
            ),
        ],
        ids=[
            "list",
            "spec-list",
            "spec-r",
            "spec-n-float",
            "spec-r-bool",
            "spec-n-string",
            "bare-ints",
            "copies-object",
            "color-128",
        ],
    )
    def test_classify(self, capsys, tmp_path, obj, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(obj))
        assert run_refused(capsys, "classify", str(path)) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"rows": 5}, "grid field 'rows' must be a list of rows of tile names"),
            ({"n": "3"}, "grid field 'n' must be an integer"),
            # the side rule of tiles enumerate --n
            ({"n": 0, "rows": []}, "grid side must be positive"),
        ],
        ids=["rows", "n", "side-0"],
    )
    def test_grid(self, capsys, tmp_path, fields, message):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(open_bc_frame_ruleset().to_json_dict()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**frame_configuration(3).to_json_dict(), **fields}))
        err = run_refused(capsys, "tiles", "check", "--rules", str(rules), "--grid", str(grid))
        assert err == f"error: {message}\n"


class TestTiles:
    @pytest.fixture()
    def frame_files(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(open_bc_frame_ruleset().to_json_dict()))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(frame_configuration(3).to_json_dict()))
        return str(rules), str(grid)

    def test_check_valid_grid(self, capsys, frame_files):
        rules, grid = frame_files
        out = run_json(capsys, "tiles", "check", "--rules", rules, "--grid", grid)
        assert out == {"valid": True, "violations": []}

    def test_check_reports_violations(self, capsys, frame_files, tmp_path):
        rules, _ = frame_files
        bad = frame_configuration(3).to_json_dict()
        # Put the left end in the middle of the bottom row.
        bad["rows"][0] = [bad["rows"][0][1], bad["rows"][0][0], bad["rows"][0][2]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = run_json(capsys, "tiles", "check", "--rules", rules, "--grid", str(path))
        assert out["valid"] is False
        assert out["violations"]
        assert {"kind", "at", "pair"} == set(out["violations"][0])

    def test_enumerate_frame_survivors(self, capsys, frame_files):
        rules, _ = frame_files
        out = run_json(capsys, "tiles", "enumerate", "--rules", rules, "--n", "3")
        assert out["count"] == 5
        assert out["truncated"] is False

    def test_enumerate_require_narrows_to_frame(self, capsys, frame_files):
        rules, _ = frame_files
        out = run_json(
            capsys,
            "tiles",
            "enumerate",
            "--rules",
            rules,
            "--n",
            "3",
            "--require",
            "left_bc",
            "--require",
            "right_bc",
        )
        assert out["count"] == 1
        assert out["tilings"][0] == frame_configuration(3).to_json_dict()

    def test_negative_limit_is_refused(self, capsys, frame_files):
        rules, _ = frame_files
        code, out, err = run(
            capsys, "tiles", "enumerate", "--rules", rules, "--n", "3", "--limit", "-1"
        )
        assert code == 2 and out == ""
        assert err == "error: limit must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", ["lift", "enumerate", "check"])
    def test_rules_without_alphabet_is_refused(self, capsys, frame_files, tmp_path, command):
        _, grid = frame_files
        rules = tmp_path / "bare.json"
        rules.write_text(json.dumps({"schema": "tile-rules/1", "forbidden_h": []}))
        extra = {"lift": [], "enumerate": ["--n", "2"], "check": ["--grid", grid]}[command]
        code, out, err = run(capsys, "tiles", command, "--rules", str(rules), *extra)
        assert code == 2 and out == ""
        assert err == "error: rule set JSON lacks the field 'alphabet'\n"

    @pytest.mark.parametrize("field", ["rows", "n"])
    def test_grid_without_a_field_is_refused(self, capsys, frame_files, tmp_path, field):
        rules, _ = frame_files
        obj = frame_configuration(3).to_json_dict()
        del obj[field]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "tiles", "check", "--rules", rules, "--grid", str(path))
        assert code == 2 and out == ""
        assert err == f"error: grid JSON lacks the field '{field}'\n"

    def test_lift_single_tile(self, capsys, tmp_path):
        rules = tmp_path / "mono.json"
        rules.write_text(
            json.dumps(
                {
                    "schema": "tile-rules/1",
                    "alphabet": ["a"],
                    "forbidden_h": [],
                    "forbidden_v": [],
                    "boundary": "periodic",
                }
            )
        )
        out = run_json(capsys, "tiles", "lift", "--rules", str(rules))
        assert len(out["alphabet"]) == 9
        assert all(name.startswith("a:") for name in out["alphabet"])


class TestVerify:
    def test_mutated_coefficient_fails_with_exit_code(self, capsys):
        code, out, err = run(
            capsys, "verify", "--profile", "fast", "--mutate", "pairing=15"
        )
        assert code == 1
        report = json.loads(out)
        assert report["all_passed"] is False
        failed = {row["id"] for row in report["criteria"] if not row["passed"]}
        assert failed == {"c07"}
        assert "c07 FAIL" in err

    def test_negative_coefficient_is_a_control_not_an_error(self, capsys):
        code, out, _ = run(capsys, "verify", "--profile", "fast", "--mutate", "pairing=-1")
        assert code == 1
        report = json.loads(out)
        assert "c07" in {row["id"] for row in report["criteria"] if not row["passed"]}

    @pytest.mark.parametrize(
        "item,message",
        [
            ("nope=1", "unknown coefficient names: ['nope']"),
            ("pairing=nan", "coefficients must be finite: ['pairing']"),
            ("tile=inf", "coefficients must be finite: ['tile']"),
            ("copy=-inf", "coefficients must be finite: ['copy']"),
        ],
    )
    def test_bad_mutation_is_refused_before_any_criterion(
        self, capsys, monkeypatch, item, message
    ):
        def no_criteria(**kwargs):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli, "verify_claims", no_criteria)
        code, out, err = run(capsys, "verify", "--mutate", item)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.slow
    def test_report_is_the_same_in_every_process(self):
        # apart from the timings, nothing in the report may depend on the
        # process, string hashing included
        src = str(Path(rih.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, rih.cli; sys.exit(rih.cli.main(['verify', '--profile', 'full']))"
        reports = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            report = json.loads(out.stdout)
            del report["elapsed_seconds"]
            for row in report["criteria"]:
                del row["seconds"]
            reports.append(report)
        assert reports[0]["all_passed"]
        assert reports[0] == reports[1]

    def test_malformed_mutation_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--mutate", "pairing")
        assert code == 2
        assert "name=value" in err


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_corpus_case_is_pinned(case):
    # exit code, stdout less its timings, and stderr of every command line
    # in tests/fixtures/cli_corpus.json, as tests/fixtures/generate.py
    # cli-corpus recorded them; among them every minimum, certified flag,
    # category figure and argmin of the lattices `rih solve` accepts
    diff = generate.first_difference(case, generate.run_case(case["argv"], case["files"]))
    assert diff is None, f"first difference at {diff}"
