"""Random inputs at the command-line boundary.

Every subcommand is driven through cli.main in process with drawn options:
negative, zero, small and huge integers, malformed or mistyped JSON files,
and paths that are missing or are directories.  Each draw must either exit
0 or 1 with JSON on stdout, or exit 2 with exactly one `error:` line and
nothing on stdout.  An exception escaping main is a traceback and fails the
draw, and so does a draw that runs past DRAW_SECONDS of wall time.
"""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rih.cli import main
from rih.hamiltonian import DEFAULT_COEFFICIENTS
from rih.lattice import LatticeSpec
from rih.rules import TileRuleSet, frame_configuration, open_bc_frame_ruleset
from rih.tiling import striped_witness

# far above any bounded draw (the slowest, a grid walk to its cap, takes
# about 2 s), far below an unbounded one
DRAW_SECONDS = 10

BOUNDARY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def ints(small_max=7):
    """Negative, zero, small and huge integers, as one option value."""
    return st.one_of(
        st.integers(-(10**30), -1),
        st.just(0),
        st.integers(1, small_max),
        st.integers(10**6, 10**30),
    )


# sides stay at 7 or below and dimensions at 3 or below, so that the random
# draws stay small; test_witness pins the largest valid witness, r = 6 and
# n = 6 (46,656 sites, near tiling.MAX_SITES), as examples under the same
# wall bound
SIDES = ints(7)
DIMENSIONS = ints(3)

BITS = st.one_of(
    st.integers(1, 2**24 - 1).map(lambda v: format(v, "b")),
    st.text("01x -", max_size=6),
)
PLUGS = st.sampled_from(["zero", "afm", "frustration_free", "nope", ""])

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

MALFORMED = st.sampled_from(["", "{", '{"a": ', "[1, 2", "not json", "{'r': 2}", "\x00"])


def _with(obj, key, value):
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[key] = value
    return out


def mutated(obj):
    """obj with one value, at any depth, replaced by an arbitrary JSON value."""
    if isinstance(obj, dict) and obj:
        keys = st.sampled_from(sorted(obj))
    elif isinstance(obj, list) and obj:
        keys = st.integers(0, len(obj) - 1)
    else:
        return JSON
    return keys.flatmap(
        lambda k: st.one_of(JSON, st.deferred(lambda: mutated(obj[k]))).map(
            lambda v: _with(obj, k, v)
        )
    )


def files(*valid):
    """A file input: valid, mistyped or malformed JSON text, a missing path,
    or a directory."""
    objects = st.sampled_from(valid)
    return st.one_of(
        objects.map(json.dumps),
        objects.flatmap(mutated).map(json.dumps),
        JSON.map(json.dumps),
        MALFORMED,
        st.just(MISSING),
        st.just(DIRECTORY),
    )


MISSING, DIRECTORY = object(), object()

# two tiles and no prohibitions: 2^(n*n) grids
FREE2 = {"alphabet": ["a", "b"]}
# c may sit beside nothing, so no grid holds it
NEVER_C = {
    "alphabet": ["a", "b", "c"],
    "forbidden_h": [["c", "c"], ["a", "c"], ["c", "a"], ["b", "c"], ["c", "b"]],
}
RULES = files(
    FREE2,
    NEVER_C,
    open_bc_frame_ruleset().to_json_dict(),
    TileRuleSet(("a", "b"), frozenset({("a", "b")}), frozenset(), "open").to_json_dict(),
)
GRIDS = files(frame_configuration(3).to_json_dict(), {"n": 2, "rows": [["a", "b"], ["b", "a"]]})
TILING = striped_witness(LatticeSpec(2, 3)).to_json_dict()
TILINGS = files(
    TILING,
    striped_witness(LatticeSpec(2, 3, "open")).to_json_dict(),
)
TILE_NAMES = st.lists(st.sampled_from(["a", "b", "c", "blank", "left_bc", "zz"]), max_size=2)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


def path_of(folder, name, content):
    """A path for a drawn file input, written under folder."""
    if content is MISSING:
        return str(folder / "missing" / name)
    if content is DIRECTORY:
        return str(folder)
    path = folder / name
    path.write_text(content)
    return str(path)


class DrawTimeout(Exception):
    """A draw ran past DRAW_SECONDS; deliberately not an error main knows."""


@contextlib.contextmanager
def wall_bound(seconds):
    def expire(signum, frame):
        raise DrawTimeout(f"draw ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_boundary(*argv, **options):
    """Run one draw: each option is passed as --name=value (a list as one
    flag per item, None not at all), so a value starting with '-' cannot
    read as a flag."""
    for name, value in options.items():
        values = value if isinstance(value, list) else [] if value is None else [value]
        argv += tuple(f"--{name}={v}" for v in values)
    out, err = io.StringIO(), io.StringIO()
    with wall_bound(DRAW_SECONDS):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 1), (code, err)
        json.loads(out)


BOUNDARIES = st.sampled_from(["periodic", "open"])


@BOUNDARY
@given(x=BITS, seed=ints(), budget=ints())
def test_encode(x, seed, budget):
    check_boundary("encode", x=x, seed=seed, budget=budget)


@settings(BOUNDARY, max_examples=15)
@given(x=BITS, r=ints(), plug=PLUGS, seed=ints())
def test_reduce(x, r, plug, seed):
    check_boundary("reduce", x=x, r=r, plug=plug, seed=seed)


@BOUNDARY
@given(r=DIMENSIONS, n=SIDES, plug=PLUGS, boundary=BOUNDARIES)
def test_solve(r, n, plug, boundary):
    check_boundary("solve", r=r, n=n, plug=plug, boundary=boundary)


@BOUNDARY
@given(r=DIMENSIONS, n=SIDES, plug=st.none() | PLUGS, boundary=BOUNDARIES)
# the largest valid witness, bare and refused by the embedded sweep's budget
@example(r=6, n=6, plug=None, boundary="periodic")
@example(r=6, n=6, plug="afm", boundary="periodic")
def test_witness(r, n, plug, boundary):
    check_boundary("witness", r=r, n=n, plug=plug, boundary=boundary)


@BOUNDARY
@given(tiling=TILINGS)
# a tile value past int8
@example(tiling=json.dumps({**TILING, "copies": [[[128, 0]] + [[0, 0]] * 8]}))
def test_classify(folder, tiling):
    check_boundary("classify", path_of(folder, "tiling.json", tiling))


@BOUNDARY
@given(rules=RULES, n=SIDES, limit=st.none() | ints(), require=TILE_NAMES)
# walks that only the grid walk cap bounds: every grid, or every grid in
# search of a tile no grid holds
@example(rules=json.dumps(FREE2), n=5, limit=None, require=[])
@example(rules=json.dumps(NEVER_C), n=5, limit=1, require=["c"])
def test_tiles_enumerate(folder, rules, n, limit, require):
    rules = path_of(folder, "rules.json", rules)
    check_boundary("tiles", "enumerate", rules=rules, n=n, limit=limit, require=require)


@BOUNDARY
@given(rules=RULES, grid=GRIDS)
def test_tiles_check(folder, rules, grid):
    rules, grid = path_of(folder, "rules.json", rules), path_of(folder, "grid.json", grid)
    check_boundary("tiles", "check", rules=rules, grid=grid)


@BOUNDARY
@given(rules=RULES)
def test_tiles_lift(folder, rules):
    check_boundary("tiles", "lift", rules=path_of(folder, "rules.json", rules))


# a pair without '=', a known name with a value that is no finite number,
# or an unknown name: none may start a criterion
MUTATIONS = st.one_of(
    st.text("abcnpi", max_size=6),
    st.builds(
        "{}={}".format,
        st.sampled_from(sorted(DEFAULT_COEFFICIENTS)),
        st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "1,5"]),
    ),
    st.builds("{}={}".format, st.text("xyz", min_size=1, max_size=4), st.floats()),
)


@BOUNDARY
@given(mutate=st.lists(MUTATIONS, min_size=1, max_size=2))
def test_verify_refuses_malformed_mutations(mutate):
    check_boundary("verify", mutate=mutate)
