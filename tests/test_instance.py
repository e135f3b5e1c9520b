import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from rih.hamiltonian import term_hash
from rih import instance
from rih.instance import (
    PSI_12,
    DecisionSpec,
    InstanceEncoding,
    TrialBudgetError,
    f_search,
    is_probable_prime,
    reduction,
    resolve_plug,
)
from rih.lattice import LatticeSpec
from rih.solver import SolverConvergenceError, ground_energy_search

TORUS = LatticeSpec(2, 3, "periodic")


def slow_is_prime(m):
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % k == 0:
            return False
        k += 1
    return True


def reference_is_probable_prime(m, rounds=64, rng=None):
    """Miller-Rabin with `rounds` uniform random bases and no proof path."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    rng = rng if rng is not None else random.Random(0x5EED)
    for _ in range(rounds):
        a = rng.randrange(2, m - 1)
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _seeded_odd(count, seed):
    g = random.Random(seed)
    return [g.getrandbits(g.randint(2, 90)) | 1 for _ in range(count)]


# the smallest strong pseudoprimes to the first k prime bases, psi_1 .. psi_12
# (OEIS A014233, with psi_8 = psi_7 and psi_11 = psi_10 = psi_9)
PSI = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    PSI_12,
]

# Carmichael numbers and the psi values, then seeded odd m of 2-90 bits
STREAM_CASES = (
    [561, 1105, 1729, 6601, 8911, 2821] + PSI
    + _seeded_odd(2000, 11)
    + [m + 2 for m in _seeded_odd(100, 12)]
)


def twelve_base_is_probable_prime(m, rounds=64, rng=None):
    """The proof path with all twelve small-prime bases below PSI_12, which
    decide there: a composite they witness is composite whatever the random
    bases drawn after them say."""
    if m < 2:
        return False
    for q in instance._SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    rng = rng if rng is not None else random.Random(0x5EED)
    if m < PSI_12 and all(
        instance._strong_probable_prime(m, a, d, s) for a in instance._SMALL_PRIMES
    ):
        for _ in range(rounds):
            rng.randrange(2, m - 1)
        return True
    return reference_is_probable_prime(m, rounds, rng) and m >= PSI_12


def _band_cases(per_band, seed):
    """Seeded odd m in each band [psi_{k-1}, psi_k) of the proof prefixes,
    with the first probable prime at or above each, the band's two ends and
    the strong base-2 pseudoprimes 3277, 4033, 4681 and 8321."""
    g = random.Random(seed)
    out = [3277, 4033, 4681, 8321]
    for lo, hi in zip([41] + PSI[:-1], PSI):
        out += [lo, lo + 2, hi - 2, hi]
        for _ in range(per_band):
            m = g.randrange(lo, hi) | 1
            out.append(m)
            while not reference_is_probable_prime(m, 16, random.Random(m)):
                m += 2
            out.append(m)
    return out


BAND_CASES = _band_cases(40, 13)


class TestProofPrefix:
    def test_each_psi_passes_its_prefix_and_fails_the_next(self):
        for k, psi in zip((1, 2, 3, 4, 5, 6, 7, 9, 12), PSI):
            d, s = psi - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            passes = [instance._strong_probable_prime(psi, a, d, s) for a in instance._SMALL_PRIMES]
            assert all(passes[:k]), psi
            assert not reference_is_probable_prime(psi, 64, random.Random(psi))
            assert len(instance._proof_bases(psi - 2)) == k
            # from psi on, the next longer prefix witnesses it
            longer = instance._proof_bases(psi)
            assert not longer or not all(passes[: len(longer)]), psi

    def test_prefix_decides_as_the_twelve_bases(self):
        for m in BAND_CASES:
            if m % 2 == 0 or any(m % q == 0 for q in instance._SMALL_PRIMES):
                continue
            d, s = m - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            prefix = instance._proof_bases(m)
            if m >= PSI_12:
                assert prefix == ()
                continue
            assert (len(prefix) <= 7) == (m < PSI[6]), m
            assert all(instance._strong_probable_prime(m, a, d, s) for a in prefix) == all(
                instance._strong_probable_prime(m, a, d, s) for a in instance._SMALL_PRIMES
            ), m

    @pytest.mark.parametrize("rounds", [0, 64])
    def test_matches_the_twelve_base_path_in_result_and_rng_state(self, rounds):
        for m in BAND_CASES:
            a, b = random.Random(m), random.Random(m)
            assert is_probable_prime(m, rounds, a) == twelve_base_is_probable_prime(m, rounds, b), m
            assert a.getstate() == b.getstate(), m


class TestPrimalityStream:
    @pytest.mark.parametrize("rounds", [0, 1, 64])
    def test_matches_reference_in_result_and_rng_state(self, rounds):
        for m in STREAM_CASES:
            a, b = random.Random(m), random.Random(m)
            got = is_probable_prime(m, rounds, a)
            # a composite that the twelve bases witness below PSI_12 is
            # composite even where every random base lies
            want = reference_is_probable_prime(m, rounds, b) and twelve_base_is_probable_prime(m, 0)
            assert got == want, m
            assert a.getstate() == b.getstate(), m

    def test_proven_composite_is_final_when_random_bases_lie(self):
        assert not is_probable_prime(41 * 43, rounds=0)
        # psi_3: composite, and the one random base its seed draws lies
        assert reference_is_probable_prime(25326001, 1, random.Random(25326001))
        assert not is_probable_prime(25326001, 1, random.Random(25326001))

    def test_psi12_is_the_first_twelve_base_pseudoprime(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert not is_probable_prime(PSI_12, rng=random.Random(0))
        assert not reference_is_probable_prime(PSI_12, rng=random.Random(0))

    def test_default_rng_gives_reference_result(self):
        for m in STREAM_CASES[:60]:
            assert is_probable_prime(m) == reference_is_probable_prime(m), m

    def test_c11_encodings_pinned(self):
        # the (x, p) pairs of acceptance criterion c11; digest taken before the
        # twelve-base proof path was added
        rng = random.Random(20260822)
        check_rng = random.Random(777)
        h = hashlib.sha256()
        for i in range(1000):
            bits = rng.randint(1, 16)
            x = "1" + "".join(rng.choice("01") for _ in range(bits - 1))
            p = f_search(x, seed=i).p
            assert is_probable_prime(p, rounds=64, rng=check_rng)
            h.update(f"{x},{p}\n".encode())
        assert h.hexdigest() == (
            "16befaa1630a7d298ebe73f22ea6e18cc198eb4d62d45a968cf2fea8ed66cfc1"
        )
        # each prime check drew its 64 bases from the shared stream
        assert check_rng.random() == 0.9819423731861668

    def test_f_search_101_pinned(self):
        assert f_search("101", seed=0).p == 331


class TestPrimality:
    def test_matches_trial_division_below_ten_thousand(self):
        rng = random.Random(1)
        for m in range(10_000):
            assert is_probable_prime(m, rounds=16, rng=rng) == slow_is_prime(m), m

    @pytest.mark.parametrize("m", [561, 1105, 1729, 6601, 8911, 2821])
    def test_carmichael_numbers_rejected(self, m):
        assert not is_probable_prime(m, rng=random.Random(2))

    @pytest.mark.parametrize("m", [2**31 - 1, 2**61 - 1, 4547337172376300111955330758342147474062293202868155909489])
    def test_large_primes_accepted(self, m):
        assert is_probable_prime(m, rng=random.Random(3))


class TestFSearch:
    def test_shortest_input(self):
        enc = f_search("1", seed=0)
        # the only 3-bit candidates with top bit set are 4..7; the primes are 5 and 7
        assert enc.p in (5, 7)
        assert enc.n == 3 * enc.p

    def test_two_bit_input(self):
        enc = f_search("10", seed=0)
        assert enc.p.bit_length() == 6
        assert enc.p >> 4 == 0b10
        assert slow_is_prime(enc.p)

    def test_deterministic_given_seed(self):
        assert f_search("1011", seed=9) == f_search("1011", seed=9)

    def test_seed_can_change_outcome(self):
        outcomes = {f_search("1", seed=s).p for s in range(30)}
        assert outcomes == {5, 7}

    @pytest.mark.parametrize("bad", ["", "0", "011", "12", "abc"])
    def test_bad_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            f_search(bad)

    def test_budget_surfaced(self):
        with pytest.raises(TrialBudgetError):
            f_search("1", max_trials=0)

    @settings(max_examples=60, deadline=None)
    @given(
        tail=st.text(alphabet="01", max_size=11),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_bit_layout_invariant(self, tail, seed):
        x = "1" + tail
        enc = f_search(x, seed=seed)
        assert enc.n == 3 * enc.p
        assert enc.p.bit_length() == 3 * len(x)
        assert enc.p >> (2 * len(x)) == int(x, 2)
        assert is_probable_prime(enc.p, 64, random.Random(4))


class TestInstanceEncoding:
    def test_layout_validated(self):
        with pytest.raises(ValueError):
            InstanceEncoding(x="1", p=11, n=33)  # 4 bits, layout wants 3
        with pytest.raises(ValueError):
            InstanceEncoding(x="11", p=0b100111, n=3 * 0b100111)  # top bits 10
        with pytest.raises(ValueError):
            InstanceEncoding(x="1", p=5, n=16)


class TestDecisionSpec:
    def test_main_configuration(self):
        ds = DecisionSpec.main_configuration(2)
        assert ds.q_coeffs == (1.0,)
        assert ds.p_of(3) == 36.0
        assert ds.q_of(17) == 1.0
        three = DecisionSpec.main_configuration(3)
        assert three.p_of(3) == 8.0 * 27

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            DecisionSpec(r=2, plug="zero", p_coeffs=(1.0,), q_coeffs=(0.0,))


class TestDecide:
    @staticmethod
    def decide(p_coeffs, q_coeffs, report=None, r=2, plug="zero"):
        ds = DecisionSpec(r=r, plug=plug, p_coeffs=p_coeffs, q_coeffs=q_coeffs)
        return ds.decide(ground_energy_search(TORUS, None) if report is None else report)

    def test_low_side(self):
        rep = self.decide([36.0], [1.0])
        assert rep.decision == "low"
        assert rep.thresholds == {"p_of_n": 36.0, "p_plus_inv_q": 37.0}

    def test_high_side(self):
        rep = self.decide([35.0], [1.0])
        assert rep.decision == "high"

    def test_promise_violation(self):
        rep = self.decide([35.5], [1.0])
        assert rep.decision == "promise-violation"

    def test_uncertified_search_refuses_to_decide(self):
        rep = ground_energy_search(TORUS, None)
        rep.certified = False
        with pytest.raises(SolverConvergenceError):
            self.decide([36.0], [1.0], report=rep)

    def test_nonpositive_tolerance_polynomial_rejected(self):
        # (0.0,) is refused at construction, so q(n) = -1 stands in
        with pytest.raises(ValueError, match="q\\(n\\) must be positive"):
            self.decide([36.0], [-1.0])

    @pytest.mark.parametrize("r,plug", [(3, "zero"), (2, "afm")])
    def test_report_of_another_configuration_rejected(self, r, plug):
        rep = ground_energy_search(TORUS, None)
        with pytest.raises(ValueError, match="configuration"):
            self.decide([36.0], [1.0], report=rep, r=r, plug=plug)
        assert rep.decision is None and rep.thresholds is None


class TestReduction:
    def test_shortest_input_geometry(self):
        red = reduction("1", r=2, plug="zero", seed=0)
        assert red.lattice == LatticeSpec(r=2, n=red.encoding.n, boundary="periodic")
        assert red.lattice.n in (15, 21)

    def test_term_constant_across_r(self):
        a = reduction("1", r=2, seed=0)
        b = reduction("1", r=3, seed=0)
        assert a.term_hash() == b.term_hash()

    def test_term_constant_across_inputs(self):
        a = reduction("1", r=2, seed=0)
        b = reduction("10", r=2, seed=0)
        assert term_hash(a.term) == term_hash(b.term)

    def test_plug_resolution(self):
        assert resolve_plug(None).name == "zero"
        assert resolve_plug("afm").name == "afm"
        with pytest.raises(ValueError):
            resolve_plug("nope")
        with pytest.raises(ValueError):
            reduction("1", r=0)
