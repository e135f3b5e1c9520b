"""Regenerate the frozen fixtures.

Each sector fixture is a concrete tiling plus plug name with its expected
sector total.  Expectations were produced by the direct-diagonalization
oracles, so the decomposition tests compare against an independent
computation path.

The solve reports pin the `rih solve` JSON, less its elapsed time, of the
lattices the exhaustive search accepts.  They are a record of known-good
output: regenerate them only with a change that means to alter a minimum,
a category figure or an argmin, and say so where the change is described.

Run from the repository root:
    python3 tests/fixtures/generate.py                  # sector fixtures
    python3 tests/fixtures/generate.py solve-reports    # solve reports
"""

import contextlib
import io
import json
import pathlib
import sys

import numpy as np

from rih.cli import main as cli_main
from rih.lattice import LatticeSpec
from rih.tiling import Tiling, striped_witness
from rih.hamiltonian import toy_plugs
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
    + [["--r", "1", "--n", str(n)] for n in (5, 7, 9, 10, 11, 12)]
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


def solve_reports():
    cases = [{"args": args, "report": solve_report(args)} for args in SOLVE_CASES]
    out = HERE / "solve_reports.json"
    out.write_text(json.dumps({"schema": "solve-reports/1", "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} solve reports to {out}")


if __name__ == "__main__":
    solve_reports() if sys.argv[1:] == ["solve-reports"] else main()
