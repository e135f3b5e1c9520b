"""Regenerate the frozen fixtures.

Each sector fixture is a concrete tiling plus plug name with its expected
sector total.  Expectations were produced by the direct-diagonalization
oracles, so the decomposition tests compare against an independent
computation path.

The command-line corpus pins what `rih` prints for a list of command lines:
each case's argv, its input files, its exit code, its stdout and its
stderr.  stdout is stored as its parsed JSON less the timings (the solve
report's elapsed time, the verify report's and each criterion's seconds),
or, when it is over 64 KiB, as the SHA-256 and length of its text.  A case
runs in a fresh working directory holding its input files under their
fixed names, so the paths that `error:` lines name are the same in every
run.  The corpus is a record of known-good output: regenerate it only with
a change that means to alter an output, and name each case that moved where
the change is described.

The random-plug reports pin the ground_energy_search JSON, less its elapsed
time, of seeded random PSD plugs that the command line cannot name: a
complex plug on the horizontal term alone (the separable sweep) and a real
plug on both terms (the joint refinement).  Each case stores its plug's
matrices, so the pinned reports do not depend on how the plugs were drawn.

The joint refinement solves each joint embedded minimum once per symmetry
orbit of pattern pairs, and every pair of the orbit reads the bits of the
orbit's smallest pair; solved one by one, members of an orbit differ in
their last bits.  When that change came in, four pins were regenerated, each
only in its minimum and its argmin (another tiling of the same energy to
within 7e-15):

    random-hv-1, ring 5       9.540501409115022  ->  9.540501409115022  (0)
    random-hv-3, ring 5       10.1068403511658   ->  10.106840351165802 (1.8e-15)
    random-hv-1, ring 7       12.155990390401204 ->  12.155990390401215 (1.1e-14)
    random-hv-2, open chain 6 6.994668641051881  ->  6.994668641051882  (8.9e-16)

The searches run on one OpenBLAS thread, so the pins do not depend on the
caller's thread count.

Run from the repository root:
    python3 tests/fixtures/generate.py                       # sector fixtures
    python3 tests/fixtures/generate.py cli-corpus            # command-line corpus
    python3 tests/fixtures/generate.py random-plug-reports   # random-plug reports

With --check after cli-corpus or random-plug-reports, the cases are
regenerated in memory and compared with the pinned ones, and nothing is
written: each case prints "same", "new" or the JSON path of its first
difference, and the exit status is 1 if a pinned case differs or is gone.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from rih.cli import main as cli_main
from rih.lattice import LatticeSpec
from rih.rules import TileRuleSet, frame_configuration, open_bc_frame_ruleset
from rih.tiling import Tiling, striped_witness
from rih.hamiltonian import TranslationPlug, toy_plugs
from rih import solver

HERE = pathlib.Path(__file__).parent


def main():
    plugs = toy_plugs()
    rng = np.random.default_rng(7)
    fixtures = []

    ring = LatticeSpec(1, 3, "periodic")
    for trial in range(4):
        c1, n1, c2, n2 = (rng.integers(0, 3, 3).tolist() for _ in range(4))
        t = Tiling(ring, c1, n1, c2, n2)
        for pname in ("zero", "frustration_free", "afm"):
            total = solver.sector_full_oracle(t, plugs[pname])
            fixtures.append(
                {
                    "kind": "sector-full",
                    "tiling": t.to_json_dict(),
                    "plug": pname,
                    "expected_total": round(total, 6),
                }
            )

    torus = LatticeSpec(2, 3, "periodic")
    w = striped_witness(torus)
    for copy in (1, 2):
        total = solver.sector_qubit_oracle(w, copy)
        fixtures.append(
            {
                "kind": "sector-qubits",
                "tiling": w.to_json_dict(),
                "copy": copy,
                "expected_total": round(total, 6),
            }
        )
    bent = Tiling(
        torus,
        w.colors1,
        (np.asarray(w.numbers1, dtype=int) + (np.arange(9) % 2)) % 3,
        w.colors2,
        w.numbers2,
    )
    fixtures.append(
        {
            "kind": "sector-qubits",
            "tiling": bent.to_json_dict(),
            "copy": 1,
            "expected_total": round(solver.sector_qubit_oracle(bent, 1), 6),
        }
    )

    out = HERE.parent.parent / "src" / "rih" / "data" / "sector_fixtures.json"
    out.write_text(json.dumps({"schema": "sector-fixtures/1", "fixtures": fixtures}, indent=1))
    print(f"wrote {len(fixtures)} fixtures to {out}")


def first_difference(want, got, path="$"):
    """The JSON path of the first place where got differs from want, keys
    in order, or None where they are equal (as parsed JSON)."""
    if isinstance(want, dict) and isinstance(got, dict):
        for a, b in itertools.zip_longest(want, got):
            if a != b:
                return f"{path}.{a if a is not None else b}"
            diff = first_difference(want[a], got[a], f"{path}.{a}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        for k, (a, b) in enumerate(zip(want, got)):
            diff = first_difference(a, b, f"{path}[{k}]")
            if diff:
                return diff
        return None if len(want) == len(got) else f"{path}[{min(len(want), len(got))}]"
    return None if type(want) is type(got) and want == got else path


def check_cases(path, cases, key):
    """Compare freshly generated cases with the pinned ones in path, writing
    nothing: one line per case, "same", "new" or the JSON path of its first
    difference, and "gone" for a pinned case no longer generated.  Exits 1
    when a pinned case differs or is gone."""
    pinned = {key(c): c for c in json.loads(path.read_text())["cases"]}
    fresh = {key(c): c for c in json.loads(json.dumps(cases))}
    failed = False
    for k, case in fresh.items():
        if k not in pinned:
            print(f"new   {k}")
            continue
        diff = first_difference(pinned[k], case)
        failed |= diff is not None
        print(f"{diff or 'same'}   {k}")
    for k in pinned.keys() - fresh.keys():
        failed = True
        print(f"gone   {k}")
    if failed:
        raise SystemExit(1)


# (lattice, seeds): the 3x3 lattices pin joint argmins that the
# striped-witness incumbent decides among ties
RANDOM_PLUG_CASES = (
    (LatticeSpec(1, 5), (1, 2, 3)),
    (LatticeSpec(1, 7), (1,)),
    (LatticeSpec(2, 3), (1,)),
    (LatticeSpec(2, 3, "open"), (1,)),
    (LatticeSpec(1, 6, "open"), (1, 2, 3)),
)


def _random_psd(rng, complex_entries):
    """A 4x4 PSD matrix with spectrum {0, 1/3, 2/3, 1} in a random basis, drawn
    as the benchmark's certify workload draws its plugs."""
    g = rng.standard_normal((4, 4))
    if complex_entries:
        g = g + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    h = q @ np.diag([0.0, 1 / 3, 2 / 3, 1.0]) @ q.conj().T
    h = (h + h.conj().T) / 2
    return h if complex_entries else h.real


def _matrix_json(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return {"real": mat.real.tolist(), "imag": mat.imag.tolist()}


def random_plug_reports(check=False):
    cases = []
    for spec, seeds in RANDOM_PLUG_CASES:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            separable = _random_psd(rng, True), np.zeros((4, 4))
            joint = _random_psd(rng, False), _random_psd(rng, False)
            for plug in (
                TranslationPlug(2, *separable, name=f"random-h-{seed}"),
                TranslationPlug(2, *joint, name=f"random-hv-{seed}"),
            ):
                report = solver.ground_energy_search(spec, plug).to_json_dict()
                del report["stats"]["elapsed_seconds"]
                plug_json = {
                    "d": plug.d,
                    "name": plug.name,
                    "horizontal": _matrix_json(plug.horizontal),
                    "vertical": _matrix_json(plug.vertical),
                }
                cases.append({"spec": spec.to_json_dict(), "plug": plug_json, "report": report})
    out = HERE / "random_plug_reports.json"
    if check:
        return check_cases(
            out, cases, lambda c: "{plug[name]} {spec[r]}d{spec[n]} {spec[boundary]}".format(**c)
        )
    out.write_text(
        json.dumps({"schema": "random-plug-reports/1", "cases": cases}, indent=1) + "\n"
    )
    print(f"wrote {len(cases)} random-plug reports to {out}")


def _corpus_inputs():
    """(argv, files) of every pinned command line: files maps each input
    file's name, relative to the working directory, to its text."""
    torus, open3 = LatticeSpec(2, 3), LatticeSpec(2, 3, "open")
    w = striped_witness(torus)
    bent = Tiling(torus, w.colors1, (w.numbers1 + np.arange(9) % 2) % 3, w.colors2, w.numbers2)
    rng = np.random.default_rng(5)
    drawn = Tiling(LatticeSpec(1, 5), *rng.integers(0, 3, (4, 5)))
    tilings = (w, striped_witness(open3), bent, drawn, striped_witness(LatticeSpec(3, 3)))
    frame = json.dumps(open_bc_frame_ruleset().to_json_dict())
    free2 = json.dumps({"alphabet": ["a", "b"]})
    never_c = json.dumps(
        {
            "alphabet": ["a", "b", "c"],
            "forbidden_h": [["c", "c"], ["a", "c"], ["c", "a"], ["b", "c"], ["c", "b"]],
        }
    )
    no_ab = json.dumps(
        TileRuleSet(("a", "b"), frozenset({("a", "b")}), frozenset(), "open").to_json_dict()
    )
    frame_grid = json.dumps(frame_configuration(3).to_json_dict())
    grid_ab = json.dumps({"n": 2, "rows": [["a", "b"], ["b", "a"]]})

    cases = []
    for plug in ("zero", "afm", "frustration_free"):
        cases.append((["solve", "--r", "2", "--n", "3", "--plug", plug], {}))
    for plug in ("zero", "afm", "frustration_free"):
        cases.append(
            (["solve", "--r", "2", "--n", "3", "--boundary", "open", "--plug", plug], {})
        )
    for n in range(5, 15):
        cases.append((["solve", "--r", "1", "--n", str(n)], {}))
    for n in (4, 6):
        cases.append((["solve", "--r", "1", "--n", str(n), "--boundary", "open"], {}))
    cases.append((["solve", "--r", "1", "--n", "7", "--boundary", "open", "--plug", "afm"], {}))

    for argv in (
        ["--r", "2", "--n", "3"],
        ["--r", "2", "--n", "3", "--plug", "afm"],
        ["--r", "2", "--n", "6", "--plug", "frustration_free"],
        ["--r", "3", "--n", "3"],
        ["--r", "3", "--n", "3", "--plug", "frustration_free"],
        ["--r", "2", "--n", "3", "--boundary", "open"],
        ["--r", "2", "--n", "3", "--boundary", "open", "--plug", "afm"],
        ["--r", "3", "--n", "6", "--boundary", "open", "--plug", "zero"],
        ["--r", "2", "--n", "30"],
        ["--r", "6", "--n", "6"],
    ):
        cases.append((["witness", *argv], {}))

    cases.append((["verify", "--profile", "full"], {}))
    cases.append((["verify", "--profile", "fast", "--mutate", "pairing=15"], {}))
    for x in ("1", "10"):
        cases.append((["encode", "--x", x], {}))
        cases.append((["reduce", "--x", x, "--r", "2"], {}))
    for t in tilings:
        cases.append((["classify", "tiling.json"], {"tiling.json": json.dumps(t.to_json_dict())}))

    for rules in (frame, free2, never_c, no_ab):
        cases.append((["tiles", "lift", "--rules", "rules.json"], {"rules.json": rules}))
    for n in ("3", "4"):
        cases.append(
            (["tiles", "enumerate", "--rules", "rules.json", "--n", n], {"rules.json": frame})
        )
    cases.append(
        (
            ["tiles", "enumerate", "--rules", "rules.json", "--n", "4", "--require", "blank"],
            {"rules.json": frame},
        )
    )
    cases.append(
        (
            ["tiles", "enumerate", "--rules", "rules.json", "--n", "3", "--limit", "5"],
            {"rules.json": free2},
        )
    )
    for rules, grid in ((frame, frame_grid), (no_ab, grid_ab), (free2, grid_ab)):
        cases.append(
            (
                ["tiles", "check", "--rules", "rules.json", "--grid", "grid.json"],
                {"rules.json": rules, "grid.json": grid},
            )
        )

    # one case per refusal message that tests/test_cli_boundary.py reaches
    for argv in (
        ["encode", "--x="],
        ["encode", "--x=1", "--budget=0"],
        ["reduce", "--x=1", "--r=0"],
        ["reduce", "--x=", "--r=2"],
        ["reduce", "--x=0", "--r=2"],
        ["solve", "--r=0", "--n=3"],
        ["solve", "--r=2", "--n=0"],
        ["solve", "--r=1", "--n=5", "--plug=nope"],
        ["solve", "--r=3", "--n=767913848", "--boundary=open"],
        ["solve", "--r=44289251", "--n=44289251", "--boundary=open"],
        ["witness", "--r=0", "--n=3"],
        ["witness", "--r=2", "--n=0"],
        ["witness", "--r=1", "--n=3"],
        ["witness", "--r=2", "--n=1000000"],
        ["witness", "--r=100000001", "--n=3"],
        ["witness", "--r=6", "--n=6", "--plug=afm"],
        ["verify", "--mutate=pairing"],
        ["verify", "--mutate=pairing=x"],
        ["verify", "--mutate=pairing=1,5"],
        ["verify", "--mutate=pairing=nan"],
        ["verify", "--mutate=x=0.0"],
        ["verify", "--mutate=xxx=1", "--mutate=zz=nan"],
    ):
        cases.append((argv, {}))
    spec = {"r": 2, "n": 3, "boundary": "periodic"}
    witness = w.to_json_dict()
    for text in (
        "{'r': 2}",
        "[1, 2",
        "",
        "[]",
        "{}",
        json.dumps({"spec": {"r": "2", "n": 3, "boundary": "periodic"}, "copies": []}),
        json.dumps({"spec": spec, "copies": []}),
        json.dumps({"spec": spec, "copies": [[[0, 0]] * 8 + [[0]]]}),
        json.dumps({**witness, "copies": [[[128, 0]] + [[0, 0]] * 8]}),
    ):
        cases.append((["classify", "tiling.json"], {"tiling.json": text}))
    cases.append((["classify", "missing/tiling.json"], {}))
    cases.append((["classify", "."], {}))

    lift = ["tiles", "lift", "--rules", "rules.json"]
    for rules in (
        "{'r': 2}",
        "",
        "[]",
        "{}",
        json.dumps({"alphabet": "ab"}),
        json.dumps({"alphabet": ["a"], "forbidden_h": [["a"]]}),
    ):
        cases.append((lift, {"rules.json": rules}))
    cases.append((["tiles", "lift", "--rules", "missing/rules.json"], {}))
    cases.append((["tiles", "lift", "--rules", "."], {}))
    check = ["tiles", "check", "--rules", "rules.json", "--grid", "grid.json"]
    for grid in (
        "[1, 2",
        "[]",
        json.dumps({"rows": []}),
        json.dumps({"n": "2", "rows": []}),
        json.dumps({"n": 2, "rows": "ab"}),
        json.dumps({"n": 3, "rows": [["a", "b"], ["b", "a"]]}),
        json.dumps({"n": 2, "rows": [["a", "z"], ["b", "a"]]}),
    ):
        cases.append((check, {"rules.json": free2, "grid.json": grid}))
    enum = ["tiles", "enumerate", "--rules", "rules.json"]
    for argv, rules in (
        (["--n=0"], free2),
        (["--n=1069013"], free2),
        (["--n=4", "--require=zz"], free2),
        # the grid walk cap: every grid is walked in search of a tile no
        # grid holds
        (["--n=5", "--limit=1", "--require=c"], never_c),
    ):
        cases.append((enum + argv, {"rules.json": rules}))
    return cases


OUTPUT_CAP = 64 * 1024  # larger outputs are pinned by their SHA-256 and length


def _pinned_stdout(text):
    """stdout as the corpus pins it: its JSON less the timings, or the
    SHA-256 and length of a text over OUTPUT_CAP characters; empty text
    stays the empty string."""
    if len(text) > OUTPUT_CAP:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text)}
    if not text:
        return text
    out = json.loads(text)
    out.pop("elapsed_seconds", None)
    out.get("stats", {}).pop("elapsed_seconds", None)
    for row in out.get("criteria", ()):
        row.pop("seconds", None)
    return out


def run_case(argv, files):
    """Run `rih argv` in process, in a fresh working directory holding
    files, and return the case as the corpus pins it."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            for name, text in files.items():
                pathlib.Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
        finally:
            os.chdir(here)
    return {
        "argv": list(argv),
        "files": files,
        "exit": code,
        "stdout": _pinned_stdout(out.getvalue()),
        "stderr": err.getvalue(),
    }


def case_key(case):
    """A corpus case's key: its argv, with the text of its input files."""
    files = " ".join(f"{k}={v}" for k, v in case["files"].items())
    return " ".join(case["argv"]) + (f" [{files}]" if files else "")


def cli_corpus(check=False):
    cases = [run_case(argv, files) for argv, files in _corpus_inputs()]
    out = HERE / "cli_corpus.json"
    if check:
        return check_cases(out, cases, case_key)
    out.write_text(json.dumps({"schema": "cli-corpus/1", "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} command-line cases to {out}")


if __name__ == "__main__":
    mode, check = sys.argv[1:2], sys.argv[2:] == ["--check"]
    if mode == ["cli-corpus"]:
        cli_corpus(check)
    elif mode == ["random-plug-reports"]:
        random_plug_reports(check)
    else:
        main()
