"""Regenerate the frozen fixtures.

Each sector fixture is a concrete tiling plus plug name with its expected
sector total.  Expectations were produced by the direct-diagonalization
oracles, so the decomposition tests compare against an independent
computation path.

The solve reports pin the `rih solve` JSON, less its elapsed time, of the
lattices the exhaustive search accepts.  They are a record of known-good
output: regenerate them only with a change that means to alter a minimum,
a category figure or an argmin, and say so where the change is described.

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
    python3 tests/fixtures/generate.py solve-reports         # solve reports
    python3 tests/fixtures/generate.py random-plug-reports   # random-plug reports

With --check after solve-reports or random-plug-reports, the reports are
regenerated in memory and compared with the pinned ones, and nothing is
written: each case prints "same", "new" or the JSON path of its first
difference, and the exit status is 1 if a pinned case differs or is gone.
"""

import contextlib
import io
import itertools
import json
import pathlib
import sys

import numpy as np

from rih.cli import main as cli_main
from rih.lattice import LatticeSpec
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


SOLVE_CASES = (
    [["--r", "2", "--n", "3", "--plug", p] for p in ("zero", "afm", "frustration_free")]
    + [["--r", "2", "--n", "3", "--boundary", "open", "--plug", p] for p in ("zero", "afm")]
    + [["--r", "1", "--n", str(n)] for n in (5, 7, 9, 10, 11, 12, 13, 14)]
    + [["--r", "1", "--n", str(n), "--boundary", "open"] for n in (4, 6)]
)


def solve_report(args):
    """The `rih solve` JSON for these arguments, less its elapsed time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["solve", *args])
    if code != 0:
        raise SystemExit(f"rih solve {' '.join(args)} exited {code}")
    report = json.loads(out.getvalue())
    del report["stats"]["elapsed_seconds"]
    return report


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


def solve_reports(check=False):
    cases = [{"args": args, "report": solve_report(args)} for args in SOLVE_CASES]
    out = HERE / "solve_reports.json"
    if check:
        return check_cases(out, cases, lambda c: " ".join(c["args"]))
    out.write_text(json.dumps({"schema": "solve-reports/1", "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} solve reports to {out}")


# (lattice, seeds): ring 7's joint searches take seconds for seeds 2 and 3
RANDOM_PLUG_CASES = (
    (LatticeSpec(1, 5), (1, 2, 3)),
    (LatticeSpec(1, 7), (1,)),
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


if __name__ == "__main__":
    mode, check = sys.argv[1:2], sys.argv[2:] == ["--check"]
    if mode == ["solve-reports"]:
        solve_reports(check)
    elif mode == ["random-plug-reports"]:
        random_plug_reports(check)
    else:
        main()
