"""Problem instances: prime-based side lengths and the decision wrapper.

The side length carries the input string in its binary layout: n = 3p where
p is a prime whose most significant third of bits spells the input.  The
two-body interaction never changes with the input; only the lattice grows.

Primality is Miller-Rabin with random bases drawn from a seeded stream; below
PSI_12 the shortest prefix of the twelve-prime base set that the
strong-pseudoprime bounds allow proves the answer, and the stream is still
advanced as the random-base test would advance it, which leaves a caller's
stream in the same state; no encoding depends on it, since f_search returns
at its first prime and its draws after that reach no candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rih.hamiltonian import build_site_term, term_hash, toy_plugs
from rih.lattice import LatticeSpec
from rih.solver import SolverConvergenceError

MR_ROUNDS = 64  # composite escape probability below 4^-64
DEFAULT_TRIAL_BUDGET = 200_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Smallest strong pseudoprime to all twelve _SMALL_PRIMES bases
# (= 399165290221 * 798330580441): Jiang & Deng, Math. Comp. 83 (2014);
# Sorenson & Webster, Math. Comp. 86 (2017).  Every odd m < PSI_12 that
# passes those twelve strong tests is prime.
PSI_12 = 318665857834031151167461
# (psi_k, k): psi_k is the smallest strong pseudoprime to the first k
# _SMALL_PRIMES bases (OEIS A014233; psi_8 = psi_7 and psi_11 = psi_10 =
# psi_9), so every odd m < psi_k that passes those k strong tests is prime
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (PSI_12, 12),
)


class TrialBudgetError(RuntimeError):
    """The randomized prime search ran out of attempts."""


def _strong_probable_prime(m, a, d, s):
    """Strong test of odd m - 1 = d * 2^s to base a; False means a witnesses
    that m is composite."""
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _proof_bases(m):
    """The shortest prefix of _SMALL_PRIMES whose strong tests prove an odd
    m prime: empty from PSI_12 on, where no such prefix is known."""
    for bound, k in _PSI:
        if m < bound:
            return _SMALL_PRIMES[:k]
    return ()


def is_probable_prime(m, rounds=MR_ROUNDS, rng=None):
    """Miller-Rabin with independent uniform bases.

    Below PSI_12 the _proof_bases of m decide primality outright: at most
    seven for m below 341550071728321 (48 bits).  A prime passes every random
    round, so on that path the `rounds` bases are drawn from `rng` but not
    tested: the result and the state `rng` is left in are those of the plain
    random-base test for every input.
    """
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    rng = rng if rng is not None else random.Random(0x5EED)
    bases = _proof_bases(m)
    if bases and all(_strong_probable_prime(m, a, d, s) for a in bases):
        for _ in range(rounds):
            rng.randrange(2, m - 1)
        return True
    for _ in range(rounds):
        if not _strong_probable_prime(m, rng.randrange(2, m - 1), d, s):
            return False
    return True


def _check_bits(x):
    if not x or set(x) - {"0", "1"}:
        raise ValueError(f"input must be a nonempty bit string, got {x!r}")
    if x[0] != "1":
        raise ValueError("input must have a leading 1 bit")


@dataclass(frozen=True)
class InstanceEncoding:
    """Side length n = 3p with the input spelled in p's top bits.

    p has exactly 3*len(x) bits; primality is established by the search that
    produced the encoding, not re-proved here.
    """

    x: str
    p: int
    n: int

    def __post_init__(self):
        _check_bits(self.x)
        bits = len(self.x)
        if self.p.bit_length() != 3 * bits:
            raise ValueError(
                f"p has {self.p.bit_length()} bits, layout wants {3 * bits}"
            )
        if self.p >> (2 * bits) != int(self.x, 2):
            raise ValueError("top third of p's bits does not spell the input")
        if self.n != 3 * self.p:
            raise ValueError("side length is not three times p")

    def to_json_dict(self):
        return {"x": self.x, "p": self.p, "n": self.n}


def f_search(x, seed=0, max_trials=DEFAULT_TRIAL_BUDGET):
    """Randomized search for a prime p whose top third of bits equals x.

    The low two thirds are redrawn on every failure; the final bit is pinned
    to 1 since every candidate is at least 3 bits long.  Deterministic for a
    given (x, seed).
    """
    _check_bits(x)
    bits = len(x)
    low_bits = 2 * bits
    hi = int(x, 2) << low_bits
    rng = random.Random(f"f-search:{seed}:{x}")
    for _ in range(max_trials):
        candidate = hi | rng.getrandbits(low_bits) | 1
        if is_probable_prime(candidate, MR_ROUNDS, rng):
            return InstanceEncoding(x=x, p=candidate, n=3 * candidate)
    raise TrialBudgetError(
        f"no prime with top bits {x} found in {max_trials} trials"
    )


def poly_eval(coeffs, n):
    """Value at n of the polynomial with these coefficients, lowest power
    first."""
    acc = 0.0
    for k, c in enumerate(coeffs):
        acc += c * n**k
    return acc


@dataclass(frozen=True)
class DecisionSpec:
    """One decision configuration: dimension, interaction choice, and the
    two threshold polynomials."""

    r: int
    plug: str
    p_coeffs: tuple
    q_coeffs: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("dimension must be positive")
        for name in ("p_coeffs", "q_coeffs"):
            object.__setattr__(
                self, name, tuple(float(c) for c in getattr(self, name))
            )
        if not any(self.q_coeffs):
            raise ValueError("q must not be identically zero")

    def p_of(self, n):
        return poly_eval(self.p_coeffs, n)

    def q_of(self, n):
        return poly_eval(self.q_coeffs, n)

    def decide(self, report):
        """Resolve the promise problem for a certified search report of this
        configuration: ground energy at most p(n), or at least p(n) + 1/q(n),
        each within 1e-9.  Sets report.thresholds and report.decision and
        returns the report."""
        if (report.spec.r, report.plug_name) != (self.r, self.plug):
            raise ValueError(
                f"report is for r={report.spec.r}, plug {report.plug_name!r}; "
                f"this configuration is r={self.r}, plug {self.plug!r}"
            )
        if not report.certified:
            raise SolverConvergenceError("search result is not certified; cannot decide")
        n = report.spec.n
        low = self.p_of(n)
        qn = self.q_of(n)
        if qn <= 0:
            raise ValueError("q(n) must be positive")
        high = low + 1.0 / qn
        e0 = report.minimum
        if e0 <= low + 1e-9:
            decision = "low"
        elif e0 >= high - 1e-9:
            decision = "high"
        else:
            decision = "promise-violation"
        report.thresholds = {"p_of_n": low, "p_plus_inv_q": high}
        report.decision = decision
        return report

    @classmethod
    def main_configuration(cls, r, plug="zero"):
        # unit promise gap denominator: q(n) = 1
        p_coeffs = (0.0,) * r + (4.0 * (r - 1),)
        return cls(r=r, plug=plug, p_coeffs=p_coeffs, q_coeffs=(1.0,))


def resolve_plug(plug):
    """Accept a plug object, a catalog name, or None for the trivial plug."""
    if plug is None:
        return toy_plugs()["zero"]
    if isinstance(plug, str):
        catalog = toy_plugs()
        if plug not in catalog:
            raise ValueError(f"unknown plug {plug!r}; choose from {sorted(catalog)}")
        return catalog[plug]
    return plug


@dataclass(frozen=True)
class ReducedInstance:
    encoding: InstanceEncoding
    lattice: LatticeSpec
    term: object

    def term_hash(self):
        return term_hash(self.term)


def reduction(x, r, plug="zero", seed=0):
    """Map an input string to a periodic lattice of side f(x) carrying the
    fixed two-body term.  The term depends on neither x nor r."""
    if r < 1:
        raise ValueError("dimension must be positive")
    enc = f_search(x, seed=seed)
    spec = LatticeSpec(r=r, n=enc.n, boundary="periodic")
    term = build_site_term(resolve_plug(plug))
    return ReducedInstance(encoding=enc, lattice=spec, term=term)


def verify_claims(profile="fast", coefficient_overrides=None):
    """Run the acceptance criteria and return the suite report."""
    from rih.acceptance import run_criteria

    return run_criteria(
        profile=profile,
        coefficient_overrides=coefficient_overrides,
    )
