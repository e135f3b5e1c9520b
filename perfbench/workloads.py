"""The benchmark's workloads: seeded inputs, the request sequence, and the
check every answer must pass.

A workload is built inside a fresh worker interpreter: ``build(seed, workdir)``
generates the inputs and writes any input files to ``workdir`` (this is the
set-up the benchmark times), and the returned list of ``Request`` objects is
then served one after another by a single client.  Requests go through ``rih.cli.main`` wherever the command line
can express them; the package's public functions are called directly only for
the seeded random plugs, which the command line cannot name.  Every answer
is checked by a function that raises ``CheckFailed`` with the reason.

Nothing here imports ``rih`` at module level, so that the worker can time the
package import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RING7_ZERO_MINIMUM = 11.0  # confirmed at the benchmark's first commit
ENERGY_TOL = 1e-9


@dataclass
class CliResult:
    code: int
    stdout: str


@dataclass
class Request:
    """One request of a workload: ``run`` is timed, ``check`` is not.

    ``check`` gets what ``run`` returned and raises ``CheckFailed`` with a
    one-line reason when the answer is wrong.  ``cold`` marks a request that no cache of
    the interpreter can serve yet (see README.md for each workload).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cold: bool = False


def call_cli(argv):
    """Run ``rih.cli.main(argv)`` in-process with stdout and stderr captured."""
    import rih.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rih.cli.main(list(argv))
    return CliResult(code, out.getvalue())


def cli(argv):
    return lambda: call_cli(argv)


def _json_output(res, want_code=0):
    if res.code != want_code:
        raise CheckFailed(f"exit code {res.code}, expected {want_code}")
    return json.loads(res.stdout)


class CheckFailed(Exception):
    """Raised inside a check; its message is the failure reason."""


def expect_search(minimum, certified=True, refinements=None, into=None, key=None):
    """Check a ``rih solve`` answer; optionally keep its minimum in ``into``."""

    def check(res):
        rep = _json_output(res)
        if abs(rep["minimum"] - minimum) > ENERGY_TOL:
            raise CheckFailed(f"minimum {rep['minimum']} != {minimum}")
        if rep["certified"] is not certified:
            raise CheckFailed(f"certified {rep['certified']} != {certified}")
        got = rep["stats"]["embedded_refinements"]
        if refinements is not None and got != refinements:
            raise CheckFailed(f"{got} joint refinements, expected {refinements}")
        if into is not None:
            into[key] = rep["minimum"]

    return check


# ---------------------------------------------------------------- certify


def _random_psd(rng, complex_entries):
    """A 4x4 PSD matrix with spectrum {0, 1/3, 2/3, 1} in a random basis, so
    that every seed draws a plug of the same scale."""
    g = rng.standard_normal((4, 4))
    if complex_entries:
        g = g + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    h = q @ np.diag([0.0, 1 / 3, 2 / 3, 1.0]) @ q.conj().T
    h = (h + h.conj().T) / 2
    return h if complex_entries else h.real


def _expect_plug_search(plug, state, separable):
    def check(rep):
        import rih

        if not rep.certified:
            raise CheckFailed("random-plug search did not certify")
        refinements = rep.stats["embedded_refinements"]
        if separable != (refinements == 0):
            raise CheckFailed(f"{refinements} joint refinements for separable={separable}")
        sector = rih.tile_sector_energy(rep.argmin, plug).total
        if abs(sector - rep.minimum) > ENERGY_TOL:
            raise CheckFailed(f"argmin sector energy {sector} != minimum {rep.minimum}")
        if rep.minimum < state["ring7_zero"] - ENERGY_TOL:
            raise CheckFailed(
                f"PSD plug minimum {rep.minimum} below the zero-plug {state['ring7_zero']}"
            )

    return check


def build_certify(seed, workdir):
    import rih
    from rih.hamiltonian import TranslationPlug

    rng = np.random.default_rng(seed)
    separable = TranslationPlug(
        2, _random_psd(rng, True), np.zeros((4, 4)), name=f"random-h-{seed}"
    )
    joint = TranslationPlug(
        2, _random_psd(rng, False), _random_psd(rng, False), name=f"random-hv-{seed}"
    )
    ring = rih.LatticeSpec(1, 7, "periodic")
    state = {}
    torus = ["solve", "--r", "2", "--n", "3", "--plug"]
    return [
        Request("solve-3x3-zero", cli(torus + ["zero"]), expect_search(36.0), cold=True),
        Request("solve-3x3-afm", cli(torus + ["afm"]), expect_search(39.0)),
        Request(
            "solve-3x3-ff",
            cli(torus + ["frustration_free"]),
            expect_search(36.0, refinements=4),
        ),
        Request("solve-3x3-zero-warm", cli(torus + ["zero"]), expect_search(36.0)),
        Request(
            "solve-3x3-open",
            cli(["solve", "--r", "2", "--n", "3", "--boundary", "open"]),
            expect_search(24.0),
            cold=True,
        ),
        Request(
            "solve-ring7-zero",
            cli(["solve", "--r", "1", "--n", "7", "--plug", "zero"]),
            expect_search(RING7_ZERO_MINIMUM, into=state, key="ring7_zero"),
            cold=True,
        ),
        Request(
            "search-ring7-separable",
            lambda: rih.ground_energy_search(ring, separable),
            _expect_plug_search(separable, state, True),
        ),
        Request(
            "search-ring7-joint",
            lambda: rih.ground_energy_search(ring, joint),
            _expect_plug_search(joint, state, False),
        ),
    ]


# ---------------------------------------------------------------- scale

RING_MINIMA = {9: 9.0, 10: 14.0, 11: 15.0}


def build_scale(seed, workdir):
    import rih  # noqa: F401  (set-up includes the package import)

    return [
        Request(
            f"solve-ring{n}",
            cli(["solve", "--r", "1", "--n", str(n), "--plug", "zero"]),
            expect_search(minimum),
            cold=True,
        )
        for n, minimum in RING_MINIMA.items()
    ]


# ---------------------------------------------------------------- verify


def expect_suite(criteria, failing=()):
    """A ``rih verify`` answer: exit code 0 exactly when every criterion passed.

    ``failing`` names the criteria that must fail, and only those; each must
    fail on its own finding, not on an exception the suite caught.
    """

    def check(res):
        rep = _json_output(res, want_code=1 if failing else 0)
        if rep["all_passed"] is bool(failing):
            raise CheckFailed(f"all_passed {rep['all_passed']}, expected {not failing}")
        got = len(rep["criteria"])
        if got != criteria:
            raise CheckFailed(f"{got} criteria ran, expected {criteria}")
        failed = {row["id"]: row["detail"] for row in rep["criteria"] if not row["passed"]}
        if sorted(failed) != sorted(failing):
            raise CheckFailed(f"criteria {sorted(failed)} failed, expected {sorted(failing)}")
        for cid, detail in failed.items():
            if detail.startswith("raised"):
                raise CheckFailed(f"{cid} crashed instead of failing: {detail}")

    return check


TILES = ("A", "B", "C")
TILE_GRID_SIDES = (16, 32, 48)


def _random_rules(rng):
    """Periodic rules over TILES, each ordered pair forbidden with chance 1/3,
    except A next to A, so that the all-A grid is valid."""
    forbidden = {}
    for kind in ("forbidden_h", "forbidden_v"):
        pairs = [(a, b) for a in TILES for b in TILES if (a, b) != ("A", "A")]
        forbidden[kind] = [list(p) for p in pairs if rng.random() < 1 / 3]
    return {"schema": "tile-rules/1", "alphabet": list(TILES), "boundary": "periodic", **forbidden}


def _expected_violations(rules, rows):
    """The grid's violations, recounted with array shifts, as the CLI lists them."""
    index = {t: i for i, t in enumerate(TILES)}
    g = np.array([[index[t] for t in row] for row in rows])
    out = set()
    for kind, axis in (("h", 1), ("v", 0)):
        banned = np.zeros((len(TILES), len(TILES)), dtype=bool)
        for a, b in rules[f"forbidden_{kind}"]:
            banned[index[a], index[b]] = True
        nxt = np.roll(g, -1, axis=axis)
        for y, x in np.argwhere(banned[g, nxt]):
            out.add((kind, (int(x), int(y)), (TILES[g[y, x]], TILES[nxt[y, x]])))
    return out


def expect_tiles_check(rules, rows):
    want = _expected_violations(rules, rows)

    def check(res):
        rep = _json_output(res)
        got = {(v["kind"], tuple(v["at"]), tuple(v["pair"])) for v in rep["violations"]}
        if len(got) != len(rep["violations"]):
            raise CheckFailed("a violation is listed twice")
        if got != want:
            raise CheckFailed(f"{len(got)} violations, expected {len(want)}")
        if rep["valid"] is not (not want):
            raise CheckFailed(f"valid {rep['valid']} with {len(want)} violations")

    return check


def build_verify(seed, workdir):
    import rih  # noqa: F401

    rng = np.random.default_rng(seed)
    rules = _random_rules(rng)
    rules_path = Path(workdir) / f"tiles-{seed}-rules.json"
    rules_path.write_text(json.dumps(rules))
    grids = [[["A"] * 8 for _ in range(8)]]
    grids += [[list(rng.choice(TILES, n)) for _ in range(n)] for n in TILE_GRID_SIDES]
    requests = []
    for rows in grids:
        n = len(rows)
        grid_path = Path(workdir) / f"tiles-{seed}-grid{n}.json"
        grid_path.write_text(json.dumps({"schema": "grid-tiling/1", "n": n, "rows": rows}))
        argv = ["tiles", "check", "--rules", str(rules_path), "--grid", str(grid_path)]
        requests.append(Request(f"tiles-check-{n}", cli(argv), expect_tiles_check(rules, rows)))
    return [
        Request("verify-full", cli(["verify", "--profile", "full"]), expect_suite(12), cold=True),
        Request(
            "verify-fast-mutated",
            cli(["verify", "--profile", "fast", "--mutate", "pairing=15"]),
            expect_suite(10, failing=("c07",)),
        ),
        *requests,
    ]


WORKLOADS = {
    "certify": build_certify,
    "scale": build_scale,
    "verify": build_verify,
}
