"""Coefficient arithmetic, circle integrals, roots, and windings."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minann.errors import (
    ConvergenceError,
    DegenerateContourError,
    DomainError,
    SchemaError,
)
from minann.families import figure_eight
from minann.laurent import (
    ROOT_RESIDUAL_TOL,
    TWO_PI,
    AnnulusWindow,
    LaurentPoly,
    _dense_rows,
    _root_certificate,
    antiderivative,
    poly_from_triples,
    poly_to_triples,
    roots,
    solve_roots,
    trapezoid_circle,
    winding_on_circle,
)

from fd_oracle import circle_l2
from horner_oracle import split_horner


# Quadrature oracles: the closed forms of the package are checked against
# these sampled routes.


def circle_samples(p: LaurentPoly, r: float, n_theta: int) -> np.ndarray:
    """Values of p on the uniform n_theta-point grid of |z| = r."""
    return p.evaluate(r * np.exp(1j * TWO_PI * np.arange(n_theta) / n_theta))


def winding_argument_integral(p: LaurentPoly, r: float, n_theta: int = 4096) -> float:
    """Trapezoid estimate of the argument increment of p on |z| = r, over 2 pi."""
    z = r * np.exp(1j * TWO_PI * np.arange(n_theta) / n_theta)
    return float((1j * z * p.derivative().evaluate(z) / p.evaluate(z)).imag.mean())


finite_coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def small_polys():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4), finite_coeff, max_size=6
    ).map(LaurentPoly)


def eval_points():
    return st.complex_numbers(
        min_magnitude=0.25, max_magnitude=4.0, allow_nan=False, allow_infinity=False
    )


class TestAlgebra:
    @given(small_polys(), small_polys(), eval_points())
    @settings(max_examples=150, deadline=None)
    def test_sum_evaluates_pointwise(self, p, q, z):
        lhs = (p + q).evaluate(z)
        rhs = p.evaluate(z) + q.evaluate(z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(small_polys(), small_polys(), eval_points())
    @settings(max_examples=150, deadline=None)
    def test_product_evaluates_pointwise(self, p, q, z):
        lhs = (p * q).evaluate(z)
        rhs = p.evaluate(z) * q.evaluate(z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-6 * scale

    @given(small_polys(), st.integers(min_value=-3, max_value=3), eval_points())
    @settings(max_examples=100, deadline=None)
    def test_shift_multiplies_by_power(self, p, k, z):
        lhs = p.shifted(k).evaluate(z)
        rhs = p.evaluate(z) * z**k
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs), 1.0)

    @given(small_polys(), eval_points())
    @settings(max_examples=100, deadline=None)
    def test_conj_reflect_is_inversion_conjugate(self, p, z):
        lhs = p.conj_reflect().evaluate(z)
        rhs = p.evaluate(1.0 / z.conjugate()).conjugate()
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs), 1.0)

    def test_terms_canonical_sorted_and_merged(self):
        p = LaurentPoly([(2, 1.0), (-1, 2.0), (2, 3.0)])
        assert p.terms == ((-1, 2.0 + 0j), (2, 4.0 + 0j))
        assert p.coefficient(0) == 0j
        assert p.lowest == -1 and p.highest == 2

    def test_overflowing_sum_names_the_lowest_exponent(self):
        # Each input is finite; the sums at z^-1 and z^2 overflow.
        terms = [(2, 1e308), (-1, -1e308), (2, 1e308), (-1, -1e308), (0, 1.0)]
        with pytest.raises(DomainError, match=r"coefficient of z\^-1 must be finite, got \(-inf\+0j\)"):
            LaurentPoly(terms)
        big = LaurentPoly({0: 1e308, 3: -1e308})
        with pytest.raises(DomainError, match=r"coefficient of z\^0 must be finite, got \(inf\+0j\)"):
            big + big

    def test_non_finite_input_names_its_own_value(self):
        # The per-input check runs before the sums are checked.
        with pytest.raises(DomainError, match=r"coefficient of z\^1 must be finite, got nan$"):
            LaurentPoly([(0, 1e308), (0, 1e308), (1, math.nan)])
        with pytest.raises(DomainError, match=r"coefficient of z\^-2 must be finite, got inf$"):
            LaurentPoly({-2: math.inf})

    @pytest.mark.parametrize("n", [True, 2.0, 1.5, None, "2", np.float64(2.0)])
    def test_exponents_follow_the_one_integer_rule(self, n):
        with pytest.raises(DomainError, match="exponent must be an integer, got"):
            LaurentPoly({n: 1.0})
        with pytest.raises(DomainError, match="exponent must be an integer, got"):
            LaurentPoly({0: 1.0}).shifted(n)

    def test_numpy_integer_exponents_read_as_ints(self):
        p = LaurentPoly({np.int64(2): 1.0}).shifted(np.int32(-1))
        assert p.terms == ((1, 1 + 0j),) and type(p.terms[0][0]) is int

    def test_zero_has_no_extremal_exponents(self):
        with pytest.raises(DomainError):
            _ = LaurentPoly().lowest
        with pytest.raises(DomainError):
            _ = LaurentPoly().highest

    def test_evaluate_rejects_origin(self):
        p = LaurentPoly({-1: 1.0})
        with pytest.raises(DomainError):
            p.evaluate(0.0)

    def test_derivative_drops_constants(self):
        p = LaurentPoly({-2: 1.0, 0: 5.0, 3: 2.0})
        d = p.derivative()
        assert d.coefficient(-3) == -2.0 + 0j
        assert d.coefficient(2) == 6.0 + 0j
        assert d.coefficient(-1) == 0j


def _bits(values):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


class TestInPlaceHorner:
    # Only positive, only negative, one term each way, a constant, and mixed
    # exponents with gaps and a zero top coefficient of the z part.
    CASES = {
        "positive": LaurentPoly({0: 1 - 2j, 1: 0.5, 3: -3 + 1j, 4: 2j}),
        "positive_no_constant": LaurentPoly({2: 1.5, 5: -1j}),
        "negative": LaurentPoly({-1: 2 + 1j, -2: -0.25, -4: 3j}),
        "one_positive_term": LaurentPoly({3: 1 + 1j}),
        "one_negative_term": LaurentPoly({-2: -2 + 0.5j}),
        "constant": LaurentPoly.constant(0.75 - 0.5j),
        "mixed": LaurentPoly({-3: 1j, -1: -0.5, 0: 2.0, 2: 1 - 1j, 6: 0.125j}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_reference_split_horner_bit_for_bit(self, name):
        p = self.CASES[name]
        rng = np.random.default_rng(7)
        # One-element arrays included: numpy multiplies them in place by its
        # scalar rule, which can differ from its array loop in the last bit.
        for shape in ((), (1,), (1, 1), (2,), (37,), (3, 512)):
            mag = np.exp(rng.uniform(-2.0, 2.0, shape))
            z = np.asarray(mag * np.exp(1j * rng.uniform(0.0, TWO_PI, shape)))
            w = 1.0 / z
            want = split_horner(p, z, w)
            got = p._horner(z, w)
            assert np.shape(got) == np.shape(want)
            assert _bits(np.ravel(got)) == _bits(np.ravel(want))
            value = p.evaluate(z if shape else complex(z))
            assert _bits(np.ravel(value)) == _bits(np.ravel(want))

    @given(
        terms=st.dictionaries(
            st.integers(-6, 6),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_polynomials_match_bit_for_bit(self, terms, seed):
        p = LaurentPoly(terms)
        rng = np.random.default_rng(seed)
        z = np.exp(rng.uniform(-1.0, 1.0, 64) + 1j * rng.uniform(0.0, TWO_PI, 64))
        assert _bits(p._horner(z, 1.0 / z)) == _bits(split_horner(p, z, 1.0 / z))


class TestDenseRows:
    def test_rows_sit_at_their_own_offsets_on_exact_zeros(self):
        p = LaurentPoly({-2: 1 + 2j, 1: 3.0})
        q = LaurentPoly({0: 2 - 1j})
        rows = _dense_rows([p, q], [-3, -1], 5)
        assert rows.shape == (2, 5) and rows.dtype == complex
        assert _bits(rows[0]) == _bits([0j, 1 + 2j, 0j, 0j, 3 + 0j])
        assert _bits(rows[1]) == _bits([0j, 2 - 1j, 0j, 0j, 0j])

    def test_keeps_signed_zero_parts(self):
        p = LaurentPoly._from_row([-1, 0], [complex(-0.0, 1.0), complex(2.0, -0.0)])
        row = _dense_rows([p], [-1], 3)[0]
        assert _bits(row) == _bits([complex(-0.0, 1.0), complex(2.0, -0.0), 0j])

    def test_zero_polynomial_and_empty_stack(self):
        assert _bits(_dense_rows([LaurentPoly()], [0], 3)[0]) == _bits([0j] * 3)
        empty = _dense_rows([], [], 4)
        assert empty.shape == (0, 4) and empty.dtype == complex

    @pytest.mark.parametrize(
        "coeffs",
        [
            {0: 1.0, 2: 2 - 1j},
            {1: 3j},
            {-3: 1.5, -1: -2j},
            {-2: 1j, 0: 4.0, 3: -1.0},
            {},
        ],
        ids=["non_negative", "positive", "negative", "both", "zero"],
    )
    def test_split_equals_terms_lookup(self, coeffs):
        p = LaurentPoly(coeffs)
        pos, neg = p._split
        hi = max([*coeffs, 0])
        lo = min([*coeffs, 0])
        assert _bits(pos) == _bits(p.coefficient(n) for n in range(hi + 1))
        assert _bits(neg) == _bits(p.coefficient(-k - 1) for k in range(-lo))


class TestCircleIntegrals:
    def test_l2_closed_form_hand_value(self):
        # |2|^2 + |-3|^2 r^4 + |1+2i|^2 r^-2, times 2*pi
        p = LaurentPoly({0: 2.0, 2: -3.0, -1: 1.0 + 2.0j})
        r = 1.0
        assert circle_l2(p, r) == pytest.approx(TWO_PI * 18.0, rel=1e-14)
        r = 2.0
        expected = TWO_PI * (4.0 + 9.0 * r**4 + 5.0 / r**2)
        assert circle_l2(p, r) == pytest.approx(expected, rel=1e-14)

    def test_l2_matches_trapezoid_quadrature_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            exps = rng.choice(np.arange(-5, 6), size=4, replace=False)
            coeffs = {
                int(n): complex(*rng.standard_normal(2)) for n in exps
            }
            p = LaurentPoly(coeffs)
            r = float(rng.uniform(0.5, 2.0))
            quad = trapezoid_circle(np.abs(circle_samples(p, r, 4096)) ** 2).real
            closed = circle_l2(p, r)
            assert abs(closed - quad) <= 1e-10 * max(closed, 1.0)

    def test_circle_mean_is_constant_coefficient(self):
        p = LaurentPoly({-2: 5.0, 0: 1.0 - 2j, 3: 7.0})
        assert p.coefficient(0) == 1.0 - 2j
        quad = trapezoid_circle(circle_samples(p, 1.7, 512)) / TWO_PI
        assert abs(quad - (1.0 - 2j)) < 1e-12

    def test_antiderivative_inverts_derivative(self):
        p = LaurentPoly({-3: 1.0, -1: 2.0 + 1j, 0: 4.0, 2: -1.0})
        anti = antiderivative(p)
        assert anti.log_coefficient == 2.0 + 1j
        back = anti.poly_part.derivative() + LaurentPoly.monomial(-1, anti.log_coefficient)
        assert (back - p).max_abs_coeff < 1e-14

    def test_antiderivative_is_a_frozen_value(self):
        anti = antiderivative(LaurentPoly({-1: 2.0, 0: 4.0}))
        for field in ("poly_part", "log_coefficient"):
            with pytest.raises(AttributeError):
                setattr(anti, field, 0j)
        assert anti.poly_part == LaurentPoly({1: 4.0}) and anti.log_coefficient == 2.0


class TestRoots:
    def test_quadratic_formula_oracle(self):
        # z^2 + (1+1j) z - 2, roots from the quadratic formula.
        b, c = 1.0 + 1.0j, -2.0
        disc = cmath.sqrt(b * b - 4.0 * c)
        expected = sorted([(-b + disc) / 2.0, (-b - disc) / 2.0], key=abs)
        got = roots(LaurentPoly({0: c, 1: b, 2: 1.0}))
        for e, g in zip(expected, got):
            assert abs(e - g) < 1e-10

    def test_three_term_factor_moduli_frozen(self):
        # z + i*sqrt(2) + 1/z: product of root moduli is 1, sum of roots
        # is -i*sqrt(2); moduli sqrt(2)/2*(sqrt(3)-1) and its reciprocal.
        g = LaurentPoly({-1: 1.0, 0: 1j * math.sqrt(2.0), 1: 1.0})
        mods = sorted(abs(z) for z in roots(g))
        assert mods[0] == pytest.approx(0.5176380902050415, abs=1e-12)
        assert mods[1] == pytest.approx(1.9318516525781366, abs=1e-12)
        assert mods[0] * mods[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_on_random_quintics(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            p = LaurentPoly({n: coeffs[n] for n in range(6)})
            mine = sorted(roots(p), key=lambda z: (abs(z), z.real, z.imag))
            ref = sorted(
                np.roots(coeffs[::-1]), key=lambda z: (abs(z), z.real, z.imag)
            )
            for a, b in zip(mine, ref):
                assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_laurent_roots_ignore_origin_pole(self):
        # (z - 0.5)(z - 2)/z has exactly the two finite nonzero roots.
        p = LaurentPoly({-1: 1.0}) * LaurentPoly({0: -0.5, 1: 1.0}) * LaurentPoly(
            {0: -2.0, 1: 1.0}
        )
        got = sorted(roots(p), key=abs)
        assert abs(got[0] - 0.5) < 1e-10
        assert abs(got[1] - 2.0) < 1e-10

    @pytest.mark.parametrize("real", [True, False])
    def test_bit_identical_to_numpy_roots(self, real):
        # The companion matrix is built as np.roots builds it, so the sorted
        # roots are the same floats, for real and for complex coefficients.
        rng = np.random.default_rng(13 if real else 14)
        for _ in range(200):
            deg = int(rng.integers(1, 9))
            low = int(rng.integers(-4, 3))
            coeffs = rng.standard_normal(deg + 1)
            if not real:
                coeffs = coeffs + 1j * rng.standard_normal(deg + 1)
            p = LaurentPoly({low + k: coeffs[k] for k in range(deg + 1)})
            ref = np.roots(coeffs[::-1].astype(complex))
            ref = ref[np.lexsort((ref.imag, ref.real, np.abs(ref)))]
            assert roots(p) == ref.tolist()

    def test_uncertified_companion_roots_raise(self, monkeypatch):
        # Roots off by 1e-9 relative leave a residual far above the scaled
        # 1e-12 certificate, so the solve fails loudly instead of returning them.
        solve = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solve(a) * (1.0 + 1e-9))
        with pytest.raises(ConvergenceError, match="residual certificate"):
            roots(LaurentPoly({-1: 1.0, 0: 0.3, 2: 1.0}))

    def test_constant_span_has_empty_root_set(self):
        assert roots(LaurentPoly({3: 2.0})) == []


class TestRootMemo:
    def test_one_solve_per_polynomial_object(self, monkeypatch):
        solves = []
        solve = np.linalg.eigvals

        def counting(a):
            solves.append(len(a))
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        data = figure_eight(1.0, 1.0)
        assert len(solves) == 2  # one per factor, shared by every check
        first = roots(data.g_minus)
        assert len(solves) == 2
        first[0] = 0j
        first.append(1.0)
        assert roots(data.g_minus) != first
        assert len(roots(data.g_minus)) == 2
        twin = LaurentPoly(data.g_minus.terms)
        assert twin == data.g_minus and twin is not data.g_minus
        assert roots(twin) == roots(data.g_minus)
        assert len(solves) == 3


def _companion(p: LaurentPoly) -> np.ndarray:
    deg = p.highest - p.lowest
    coeffs = np.zeros(deg + 1, complex)
    for n, c in p.terms:
        coeffs[p.highest - n] = c
    companion = np.diag(np.ones(deg - 1, complex), -1)
    companion[0, :] = -coeffs[1:] / coeffs[0]
    return companion


def _roots_one_at_a_time(p: LaurentPoly) -> tuple[complex, ...]:
    """The per-polynomial solve that solve_roots replaced, for comparison."""
    if p.highest == p.lowest:
        return ()
    z = np.linalg.eigvals(_companion(p))
    order = np.lexsort((z.imag, z.real, np.abs(z)))
    return tuple(complex(v) for v in z[order])


def _certificate_by_scalars(p, z):
    """(|q(u)|, sum |c_n| |u|^n) for every root u in z, both by Horner on
    Python scalars over the descending coefficients p."""
    coeffs = p.tolist()
    moduli = [abs(a) for a in coeffs]
    out = []
    for u in z.tolist():
        value = 0j
        scale = 0.0
        m = abs(u)
        for a, b in zip(coeffs, moduli):
            value = value * u + a
            scale = scale * m + b
        out.append((abs(value), scale))
    return out


def _roots_accepted(p, z, tol) -> bool:
    """The scalar certificate that solve_roots ran on one root set at a time:
    finite roots with |q(u)| <= tol * sum |c_n| |u|^n at every root u."""
    if not np.all(np.isfinite(z)):
        return False
    return all(value <= tol * scale for value, scale in _certificate_by_scalars(p, z))


def _mixed_stack():
    rng = np.random.default_rng(21)
    polys = []
    for deg in (0, 1, 2, 4, 16, 4, 2):
        low = int(rng.integers(-3, 3))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        polys.append(LaurentPoly({low + k: coeffs[k] for k in range(deg + 1)}))
    # a middle term below PRUNE_EPS is dropped at construction
    polys.append(LaurentPoly({-1: 0.7 - 0.2j, 0: 1e-301, 1: 0.3 + 1.1j, 3: -1.4}))
    return polys


class TestStackedRoots:
    def test_mixed_stack_equals_numpy_roots_bit_for_bit(self):
        polys = _mixed_stack()
        assert len(polys[-1].terms) == 3
        solve_roots(polys)
        for p in polys:
            assert "_roots" in p.__dict__
            coeffs = np.zeros(p.highest - p.lowest + 1, complex)
            for n, c in p.terms:
                coeffs[p.highest - n] = c
            ref = np.roots(coeffs)
            ref = ref[np.lexsort((ref.imag, ref.real, np.abs(ref)))]
            assert roots(p) == ref.tolist()

    def test_stack_of_one_equals_the_single_solve(self):
        for p in _mixed_stack():
            solve_roots([p])
            assert p._roots == _roots_one_at_a_time(p)

    def test_one_eigenvalue_call_per_degree(self, monkeypatch):
        shapes = []
        solve = np.linalg.eigvals

        def recording(a):
            shapes.append(a.shape)
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        polys = _mixed_stack()
        solve_roots(polys)
        assert sorted(shapes) == [(1, 1, 1), (1, 16, 16), (2, 2, 2), (3, 4, 4)]
        solve_roots(polys + [LaurentPoly()])  # solved members and zero are skipped
        assert len(shapes) == 4

    def test_failing_member_raises_on_its_own_read_only(self, monkeypatch):
        solve = np.linalg.eigvals
        polys = _mixed_stack()
        reference = [_roots_one_at_a_time(p) for p in polys]
        quartics = [i for i, p in enumerate(polys) if p.highest - p.lowest == 4]
        spoiled = polys[quartics[1]]
        target = _companion(spoiled)

        def spoil(a):
            # Roots off by 1e-9 relative fail the 1e-12 certificate.
            z = solve(a)
            for i, matrix in enumerate(a):
                if np.array_equal(matrix, target):
                    z[i] *= 1.0 + 1e-9
            return z

        monkeypatch.setattr(np.linalg, "eigvals", spoil)
        solve_roots(polys)
        assert "_roots" not in spoiled.__dict__
        for p, ref in zip(polys, reference):
            if p is not spoiled:
                assert roots(p) == list(ref)
        with pytest.raises(ConvergenceError, match="residual certificate"):
            roots(spoiled)
        monkeypatch.setattr(np.linalg, "eigvals", solve)
        assert roots(spoiled) == list(reference[quartics[1]])

    @pytest.mark.parametrize("deg", [1, 2, 4, 7, 12])
    def test_array_certificate_equals_the_scalar_reference(self, deg):
        rng = np.random.default_rng(30 + deg)
        coeffs = rng.standard_normal((40, deg + 1)) + 1j * rng.standard_normal((40, deg + 1))
        coeffs[::3] = coeffs[::3].real  # real rows: conjugate root pairs
        coeffs[1::7, 0] *= 1e-6  # a small leading coefficient: large roots
        companion = np.zeros((40, deg, deg), complex)
        sub = np.arange(deg - 1)
        companion[:, sub + 1, sub] = 1.0
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        z = np.linalg.eigvals(companion)
        # Crafted failures: roots off by 1e-9 relative, and a non-finite root;
        # every other row of the stack stays certified.
        z[5] *= 1.0 + 1e-9
        z[6, 0] = complex(math.nan, 0.0)
        residual, scale = _root_certificate(coeffs, z)
        accepted = (np.isfinite(z) & (residual <= ROOT_RESIDUAL_TOL * scale)).all(axis=1)
        decisions = [_roots_accepted(q, u, ROOT_RESIDUAL_TOL) for q, u in zip(coeffs, z)]
        assert accepted.tolist() == decisions
        assert not decisions[5] and not decisions[6] and sum(decisions) == 38
        for row in (k for k in range(40) if k != 6):
            ref = _certificate_by_scalars(coeffs[row], z[row])
            got = list(zip(residual[row].tolist(), scale[row].tolist()))
            assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in ref]

    def test_zero_expression_keeps_its_error(self):
        zero = LaurentPoly()
        solve_roots([zero])
        with pytest.raises(DomainError, match="no root set"):
            roots(zero)


class TestProduct:
    @staticmethod
    def _through_construction(p, q):
        out = {}
        for n, a in p.terms:
            for m, b in q.terms:
                out[n + m] = out.get(n + m, 0j) + a * b
        return LaurentPoly(out)

    @given(small_polys(), small_polys())
    @settings(max_examples=200, deadline=None)
    def test_terms_equal_the_constructed_product(self, p, q):
        got = (p * q).terms
        want = self._through_construction(p, q).terms
        assert [(n, c.real.hex(), c.imag.hex()) for n, c in got] == [
            (n, c.real.hex(), c.imag.hex()) for n, c in want
        ]

    def test_cancellation_and_pruning(self):
        p = LaurentPoly({-1: 1.0, 1: 1.0})
        q = LaurentPoly({-1: 1.0, 1: -1.0})
        assert (p * q).terms == ((-2, 1 + 0j), (2, -1 + 0j))
        tiny = LaurentPoly({0: 1e-200}) * LaurentPoly({3: 1e-200})
        assert tiny.is_zero
        assert (LaurentPoly() * p).is_zero and (p * LaurentPoly()).is_zero

    def test_overflow_names_the_first_coefficient_formed(self):
        # z^3 overflows in the first row of the double loop and z^1 in the
        # second; construction from the accumulated dict named z^3.
        p = LaurentPoly({0: 1e10, 1: 1e300})
        q = LaurentPoly({0: 1e100, 3: 1e300})
        with pytest.raises(DomainError, match=r"coefficient of z\^3 must be finite, got \(inf"):
            p * q
        with pytest.raises(DomainError, match=r"coefficient of z\^3 must be finite, got \(inf"):
            self._through_construction(p, q)

    def test_trusted_rows_equal_dict_construction(self):
        # Sorted rows of finite coefficients: the public constructor's terms,
        # prune included (1e-301 and an exact zero drop out).
        row = [1.5 - 2j, 1e-301 + 0j, 0j, complex(0.0, -3.0), 1e-300 + 0j]
        exponents = range(-2, 3)
        trusted = LaurentPoly._from_row(exponents, row)
        assert trusted.terms == LaurentPoly(dict(zip(exponents, row))).terms
        assert [n for n, _ in trusted.terms] == [-2, 1, 2]
        assert LaurentPoly._from_row([-1, 4], [1e-301 + 0j, 0j]).is_zero

    def test_trusted_rows_name_the_lowest_non_finite_exponent(self):
        row = [1.0 + 0j, complex(math.inf, 0.0), complex(0.0, math.nan)]
        with pytest.raises(DomainError, match=r"coefficient of z\^4 must be finite, got \(inf"):
            LaurentPoly._from_row([3, 4, 7], row)


class TestWindings:
    def test_monomial_windings(self):
        assert winding_on_circle(LaurentPoly({2: 1.0}), 1.0) == 2
        assert winding_on_circle(LaurentPoly({-3: 1.0}), 0.7) == -3

    def test_algebraic_and_integral_routes_agree(self):
        # Root moduli of this expression are near 0.900 and 1.054 (double);
        # the test radii stay clearly away from both.
        p = LaurentPoly({-1: 1.0, 0: 0.3, 2: 1.0})
        for r in (0.4, 0.75, 1.6):
            alg = winding_on_circle(p, r)
            quad = winding_argument_integral(p, r)
            assert abs(alg - quad) < 1e-6

    def test_winding_jumps_across_root_modulus(self):
        p = LaurentPoly({0: -1.0, 1: 1.0})  # root at z = 1
        assert winding_on_circle(p, 0.5) == 0
        assert winding_on_circle(p, 2.0) == 1
        with pytest.raises(DegenerateContourError):
            winding_on_circle(p, 1.0)


class TestWindow:
    def test_membership_and_logspan(self):
        w = AnnulusWindow(0.5, 2.0)
        assert w.contains(1.0) and not w.contains(0.5) and not w.contains(2.0)
        assert w.geometric_mean == pytest.approx(1.0)
        lo, hi = w.log_span()
        assert lo == pytest.approx(-math.log(2.0))
        assert hi == pytest.approx(math.log(2.0))

    def test_rejects_bad_radii(self):
        with pytest.raises(DomainError):
            AnnulusWindow(2.0, 0.5)
        with pytest.raises(DomainError):
            AnnulusWindow(0.0, 1.0)

    def test_is_a_frozen_value_with_float_radii(self):
        w = AnnulusWindow(1, 2)
        assert type(w.r_inner) is float and type(w.r_outer) is float
        assert w == AnnulusWindow(1.0, 2.0) and hash(w) == hash(AnnulusWindow(1.0, 2.0))
        assert w != AnnulusWindow(1.0, 3.0)
        assert w != (1.0, 2.0) and w != "AnnulusWindow(1.0, 2.0)"
        for field in ("r_inner", "r_outer"):
            with pytest.raises(AttributeError):
                setattr(w, field, 50.0)
        assert w == AnnulusWindow(1.0, 2.0)

    def test_data_window_cannot_be_widened_in_place(self):
        data = figure_eight(1, 1)
        before = hash(data)
        with pytest.raises(AttributeError):
            data.window.r_outer = 50.0
        assert hash(data) == before


class TestSerialization:
    def test_roundtrip_exact(self):
        p = LaurentPoly({-2: 1.25 + 0.5j, 0: -3.0, 5: 1e-7j})
        back = poly_from_triples(poly_to_triples(p))
        assert back == p

    def test_schema_rejections(self):
        with pytest.raises(SchemaError):
            poly_from_triples("nope")
        with pytest.raises(SchemaError):
            poly_from_triples([[0, 1.0]])
        with pytest.raises(SchemaError):
            poly_from_triples([[0, 1.0, 0.0], [0, 2.0, 0.0]])
        with pytest.raises(SchemaError):
            poly_from_triples([[0.5, 1.0, 0.0]])

    @pytest.mark.parametrize(
        "triple",
        [
            ["a", 1, 0],
            [1, None, 0],
            [1, 0, "0"],
            [float("inf"), 1, 0],  # a JSON exponent of 1e400
            [float("nan"), 1, 0],
            [True, 1, 0],
            [1, False, 0],
            [1, [1, 0], 0],
        ],
    )
    def test_every_number_is_decoded_or_refused(self, triple):
        with pytest.raises(SchemaError):
            poly_from_triples([triple])

    def test_integral_float_exponents_are_read(self):
        assert poly_from_triples([[2.0, 1, -1]]) == LaurentPoly({2: 1 - 1j})
