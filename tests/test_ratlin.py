import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (integral, reference_eliminate, reference_log2_interval,
                      reference_rank)
from udnorm import ratlin
from udnorm.ratlin import (
    RatInterval,
    Vec2,
    left_null_basis,
    log2_interval,
    rat,
    rat_from_str,
    rat_to_str,
    solve,
    solve_integer,
    sqrt_interval,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)

IDENTITY_2 = [[1, 0], [0, 1]]


def mat_vec(M, v):
    """M·v, summed term by term in Fraction."""
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in M)


class TestRationalStrings:
    def test_integer_canonical(self):
        assert rat_to_str(Fraction(5)) == "5"
        assert rat_to_str(Fraction(-3, 7)) == "-3/7"
        # an int writes as its Fraction does; a bool as its value
        assert rat_to_str(-12) == rat_to_str(Fraction(-12)) == "-12"
        assert rat_to_str(True) == "1"

    def test_accepts_over_one(self):
        assert rat_from_str("4/1") == 4
        assert rat_from_str("-3/7") == Fraction(-3, 7)
        assert rat_from_str("12") == 12

    @given(rationals)
    def test_round_trip(self, q):
        assert rat_from_str(rat_to_str(q)) == q

    @given(rationals, rationals)
    def test_arithmetic_round_trip(self, a, b):
        assert (a + b) - b == a


class TestVec2:
    def test_ops(self):
        u = Vec2.of(1, 2)
        v = Vec2.of("1/2", -1)
        assert (u + v).as_tuple() == (Fraction(3, 2), Fraction(1))
        assert u.dot(v) == Fraction(-3, 2)
        assert u.cross(v) == Fraction(-2)
        assert (-u).as_tuple() == (-1, -2)
        assert u.scale(Fraction(1, 2)).as_tuple() == (Fraction(1, 2), 1)
        assert u.norm_sq() == 5


class TestRank:
    """The rank read off the left null space: rows − |basis|."""

    @staticmethod
    def rank(M):
        return len(M) - len(left_null_basis(M))

    def test_identity(self):
        assert self.rank(IDENTITY_2) == 2

    def test_proportional_rows(self):
        assert self.rank([[2, 4], [1, 2], [3, 6]]) == 1

    def test_two_columns_bound(self):
        assert self.rank([[1, 0], [0, 1], [1, 1]]) == 2


class TestSolve:
    def test_identity(self):
        assert solve(IDENTITY_2, [3, 5]) == (3, 5)

    def test_consistent_sum(self):
        M = [[1, 0], [0, 1], [1, 1]]
        assert solve(M, [1, 1, 2]) == (1, 1)

    def test_inconsistent(self):
        M = [[1, 0], [0, 1], [1, 1]]
        assert solve(M, [1, 1, 3]) is None

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            solve(IDENTITY_2, [1, 2, 3])


class TestLeftNull:
    def test_single_vector(self):
        M = [[1, 0], [0, 1], [1, 1]]
        (y,) = left_null_basis(M)
        # proportional to (1, 1, -1)
        assert y[0] == y[1] == -y[2]
        assert y[0] != 0

    def test_full_row_rank(self):
        assert left_null_basis(IDENTITY_2) == []

    def test_rank_one(self):
        M = [[2, 4], [1, 2], [3, 6]]
        basis = left_null_basis(M)
        assert len(basis) == 2
        for y in basis:
            assert all(type(v) is int for v in y)
            for col in range(2):
                assert sum(y[i] * M[i][col] for i in range(3)) == 0

    def test_rows_left_unchanged(self):
        M = [[2, 4], [1, 2], [3, 6]]
        left_null_basis(M)
        assert M == [[2, 4], [1, 2], [3, 6]]


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = draw(st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ))
    return entries


class TestLinalgProperties:
    @given(small_matrices())
    def test_rank_null_dimension(self, M):
        basis = left_null_basis(integral(M))
        r = reference_rank(M)
        assert r == len(M) - len(basis)
        assert r <= min(len(M), len(M[0]))
        for y in basis:
            assert any(v != 0 for v in y)
            for col in range(len(M[0])):
                assert sum(y[i] * M[i][col] for i in range(len(M))) == 0

    @given(small_matrices(), st.data())
    def test_solve_or_certify(self, M, data):
        b = data.draw(st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            min_size=len(M), max_size=len(M),
        ))
        x = solve(M, b)
        if x is not None:
            assert mat_vec(M, x) == tuple(rat(v) for v in b)
        else:
            # some left-null vector witnesses the inconsistency
            assert any(
                sum(y[i] * rat(b[i]) for i in range(len(M))) != 0
                for y in left_null_basis(integral(M))
            )


def reference_solve(M, b):
    cols = len(M[0])
    grid = [[rat(v) for v in row] + [rat(t)] for row, t in zip(M, b)]
    pivots = reference_eliminate(grid, cols)
    if any(grid[i][cols] != 0 for i in range(len(pivots), len(M))):
        return None
    x = [Fraction(0)] * cols
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        acc = grid[i][cols] - sum(grid[i][j] * x[j] for j in range(col + 1, cols))
        x[col] = acc / grid[i][col]
    return tuple(x)


def reference_left_null_basis(M):
    n, cols = len(M), len(M[0])
    grid = [[rat(v) for v in M[i]] + [Fraction(int(j == i)) for j in range(n)]
            for i in range(n)]
    pivots = reference_eliminate(grid, cols)
    basis = []
    for i in range(len(pivots), n):
        y = grid[i][cols:]
        den = math.lcm(*(v.denominator for v in y))
        ints = [int(v * den) for v in y]
        g = math.gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append(tuple(Fraction(v // g) for v in ints))
    return basis


# mixed denominators, exact zeros, and matrices with repeated or
# proportional rows or an all-zero column, so rank deficiency is common
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def deficient_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        f = draw(ENTRIES)
        grid[i] = [f * a + b for a, b in zip(grid[j], grid[k])]
    if draw(st.booleans()):
        col = draw(st.integers(0, cols - 1))
        for row in grid:
            row[col] = Fraction(0)
    return grid


class TestAgainstFractionReference:
    # the integer elimination keeps the Fraction elimination's pivots, zero
    # rows and row directions, so every result equals the reference exactly
    @settings(max_examples=200, deadline=None)
    @given(deficient_matrices(), st.data())
    def test_equal_results(self, M, data):
        b = data.draw(st.lists(ENTRIES, min_size=len(M), max_size=len(M)))
        assert left_null_basis(integral(M)) == reference_left_null_basis(M)
        assert solve(M, b) == reference_solve(M, b)

    @settings(max_examples=100, deadline=None)
    @given(deficient_matrices(), st.data())
    def test_consistent_right_hand_side(self, M, data):
        # b = M·x0 is always consistent: the free-variables-zero solution
        # must agree with the reference, not just both be None
        x0 = data.draw(st.lists(ENTRIES, min_size=len(M[0]), max_size=len(M[0])))
        b = mat_vec(M, x0)
        x = solve(M, b)
        assert x is not None and x == reference_solve(M, b)
        assert mat_vec(M, x) == b


class TestIntegerSolve:
    @settings(max_examples=200, deadline=None)
    @given(deficient_matrices(), st.data())
    def test_any_row_scaling(self, M, data):
        # solve_integer on the rows scaled by any nonzero integers gives
        # solve's x, over a positive denominator
        b = data.draw(st.lists(ENTRIES, min_size=len(M), max_size=len(M)))
        factors = data.draw(st.lists(st.integers(-50, 50).filter(bool),
                                     min_size=len(M), max_size=len(M)))
        grid = [[int(v * k) for v in row]
                for row, k in zip(_scaled_rows(M, b), factors)]
        found = solve_integer(grid)
        want = reference_solve(M, b)
        if want is None:
            assert found is None
        else:
            d, X = found
            assert d > 0 and tuple(Fraction(v, d) for v in X) == want


def _scaled_rows(M, b):
    """[M | b] times one common denominator of all entries, in Fraction."""
    rows = [list(row) + [rat(v)] for row, v in zip(M, b)]
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v * den for v in row] for row in rows]


class TestIntervals:
    def test_sqrt_exact_on_squares(self):
        iv = sqrt_interval(Fraction(9, 4))
        assert iv.lo == iv.hi == Fraction(3, 2)

    def test_sqrt_two(self):
        iv = sqrt_interval(2)
        assert iv.width() <= Fraction(1, 10**12)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_interval(-1)

    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
    def test_sqrt_encloses(self, q):
        iv = sqrt_interval(q)
        assert iv.lo * iv.lo <= q
        assert iv.hi * iv.hi >= q

    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
           st.integers(0, 40), st.integers(1, 10**4), st.integers(-2, 2))
    def test_sqrt_scale_matches_doubling(self, q, k, w_den, nudge):
        # the scale S comes from bit lengths; it must be the S the doubling
        # loop finds, also where 1/(S·den) equals max_width exactly
        max_width = Fraction(1, q.denominator << k) if nudge == 0 else (
            Fraction(w_den + nudge + 2, w_den * (1 + k)))
        S = 1
        while Fraction(1, S * q.denominator) > max_width:
            S *= 2
        t, den = q.numerator * q.denominator, q.denominator
        a = math.isqrt(t * S * S)
        ref = (Fraction(a, S * den),
               Fraction(a if a * a == t * S * S else a + 1, S * den))
        iv = sqrt_interval(q, max_width)
        assert (iv.lo, iv.hi) == (ref if q else (0, 0))

    def test_sqrt_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            sqrt_interval(2, 0)

    def test_log2_exact_powers(self):
        assert log2_interval(4) == RatInterval.point(2)
        assert log2_interval(Fraction(1, 8)) == RatInterval.point(-3)

    @given(st.fractions(min_value=Fraction(1, 64), max_value=100,
                        max_denominator=64).filter(lambda q: q > 0))
    def test_log2_encloses(self, q):
        iv = log2_interval(q)
        assert iv.width() <= Fraction(2, 1 << 12)
        # exact check 2^lo ≤ q ≤ 2^hi: raise everything to the 2^12 power
        p = 1 << 12
        lo_n = iv.lo * p
        hi_n = iv.hi * p
        assert lo_n.denominator == 1 and hi_n.denominator == 1
        num, den = q.numerator, q.denominator
        ln, hn = int(lo_n), int(hi_n)
        if ln >= 0:
            assert den**p << ln <= num**p
        else:
            assert den**p <= num**p << (-ln)
        if hn >= 0:
            assert num**p <= den**p << hn
        else:
            assert num**p << (-hn) <= den**p

    @settings(max_examples=300)
    @given(st.one_of(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                     max_denominator=10**6),
        st.integers(-40, 40).map(lambda e: Fraction(2) ** e),
        st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
    ).filter(lambda q: q > 0))
    def test_log2_matches_binary_search(self, q):
        # the bound comes from bit lengths; it must be the interval the
        # integer-part walk and binary search find
        assert log2_interval(q) == _log2_by_search(q)

    def test_interval_arithmetic(self):
        a = RatInterval(Fraction(1), Fraction(2))
        b = RatInterval(Fraction(-1), Fraction(1))
        assert not b.excludes_zero()
        assert a.excludes_zero()
        assert a.strictly_below(3)

    @given(rationals, rationals)
    def test_integer_comparisons_match_fractions(self, lo, hi):
        # construction and excludes_zero compare numerators and
        # denominators; they decide as Fraction comparisons do
        if lo > hi:
            with pytest.raises(ValueError, match="empty interval"):
                RatInterval(lo, hi)
            return
        assert RatInterval(lo, hi).excludes_zero() == (lo > 0 or hi < 0)


def _floor_root_4096(N: int) -> int:
    """⌊N^(1/4096)⌋: twelve integer square roots, since ⌊√⌊y⌋⌋ = ⌊√y⌋."""
    for _ in range(12):
        N = math.isqrt(N)
    return N


def _near_powers_of_two():
    """Rationals whose 4096th power lies within 2^−80 of a power of two,
    closer than 96-bit squarings can resolve: 1 − 2^−120, and, for c = 2^b
    or 10^b, ⌊2^(j/4096)·c⌋/c (x^4096 just below 2^j) and
    (⌊2^(j/4096)·c⌋ + 1)/c (just above)."""
    cases = [pytest.param(Fraction(2**120 - 1, 2**120), id="1-2^-120")]
    for j, base, b in [(1, 2, 200), (5, 2, 100), (20 * 4096 + 3, 2, 100),
                       (-7, 2, 150), (1, 10, 150)]:
        N = base ** (b * 4096)
        a = _floor_root_4096(N << j if j >= 0 else N >> -j)
        for side, top in (("below", a), ("above", a + 1)):
            cases.append(pytest.param(Fraction(top, base**b),
                                      id=f"{side}-2^({j}/4096)-over-{base}^{b}"))
    return cases


class TestLog2AgainstReference:
    """The 96-bit squaring chain against num^4096 and den^4096 compared
    exactly (`conftest.reference_log2_interval`)."""

    @settings(max_examples=300)
    @given(st.integers(1, 10**6))
    def test_integers(self, n):
        assert log2_interval(n) == reference_log2_interval(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 200), st.data())
    def test_rationals_up_to_hundreds_of_digits(self, num_digits, den_digits,
                                                data):
        num = data.draw(st.integers(1, 10**num_digits))
        den = data.draw(st.integers(1, 10**den_digits))
        x = Fraction(num, den)
        assert log2_interval(x) == reference_log2_interval(x)

    @settings(max_examples=300)
    @given(st.integers(2, 10**6))
    def test_second_level(self, n):
        # the input of log₂ log₂ n in colored._log_bounds
        lg = log2_interval(n).hi
        assert log2_interval(lg) == reference_log2_interval(lg)

    @pytest.mark.parametrize("x", _near_powers_of_two())
    def test_near_power_of_two_takes_exact_path(self, x, monkeypatch):
        exact = []
        floor = ratlin._floor_log2_pow4096
        monkeypatch.setattr(ratlin, "_floor_log2_pow4096",
                            lambda num, den: exact.append(1) or floor(num, den))
        assert log2_interval(x) == reference_log2_interval(x)
        assert exact == [1]
        assert log2_interval(1 / x) == reference_log2_interval(1 / x)


def _log2_by_search(x: Fraction, frac_bits: int = 12) -> RatInterval:
    """Reference log₂ enclosure: the integer part by stepping, then a binary
    search for the largest j with 2^j ≤ x^(2^frac_bits)."""
    num, den = x.numerator, x.denominator

    def two_pow_le(k: int) -> bool:
        # 2^k ≤ num/den
        if k >= 0:
            return den << k <= num
        return den <= num << (-k)

    k = num.bit_length() - den.bit_length()
    while two_pow_le(k + 1):
        k += 1
    while not two_pow_le(k):
        k -= 1
    if (den << k if k >= 0 else den) == (num if k >= 0 else num << (-k)):
        return RatInterval.point(Fraction(k))
    p = frac_bits
    pow_num = num ** (1 << p)
    pow_den = den ** (1 << p)
    lo_j, hi_j = k << p, (k + 1) << p
    while lo_j + 1 < hi_j:
        mid = (lo_j + hi_j) // 2
        if mid >= 0:
            le = (pow_den << mid) <= pow_num
        else:
            le = pow_den <= (pow_num << (-mid))
        if le:
            lo_j = mid
        else:
            hi_j = mid
    return RatInterval(Fraction(lo_j, 1 << p), Fraction(hi_j, 1 << p))
