import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_estimators import lmmse_error_variance_mc
from secrelay import converse, fractional, verify
from secrelay.af import af_achievable_rate_at, af_batch, af_secrecy_capacity
from secrelay.channel import (
    ChannelRealization,
    DerivedParams,
    PowerBudget,
    derive_params,
    surrogate_channel,
)
from secrelay.converse import (
    DegenerateDistributionError,
    NoiseCorrelation,
    PSDViolationError,
    bound_objective,
    genie_upper_bound,
    lmmse_error_variance,
    select_phi,
)

# h_r=1, h_d=2, h_e=1 with P_s=1: alpha=4, beta=1, mu=2.
CH = ChannelRealization(1.0, 2.0, 1.0)
PARAMS = DerivedParams(4.0, 1.0, 2.0)
PB = PowerBudget(1.0, 0.5)


def random_channel(rng, p_r=None):
    gains = rng.normal(size=(3, 2))
    ch = ChannelRealization(
        complex(*gains[0]), complex(*gains[1]), complex(*gains[2])
    )
    pb = PowerBudget(rng.uniform(0.1, 10.0), p_r if p_r is not None else rng.uniform(0.0, 20.0))
    return ch, derive_params(ch, pb), pb


def random_phi(rng, r_max=0.999):
    r = rng.uniform(0.0, r_max)
    t = rng.uniform(0.0, 2.0 * math.pi)
    return NoiseCorrelation(r * complex(math.cos(t), math.sin(t)))


class TestPSDGate:
    def test_correlation_above_one_rejected(self):
        with pytest.raises(PSDViolationError):
            NoiseCorrelation(1.0 + 1e-6)
        with pytest.raises(PSDViolationError):
            NoiseCorrelation(complex(0.8, 0.8))

    def test_ops_reject_raw_overcorrelated_phi(self):
        with pytest.raises(PSDViolationError):
            lmmse_error_variance(CH, PARAMS, 0.1, 1.5)
        with pytest.raises(PSDViolationError):
            bound_objective(CH, PARAMS, 0.1, 1.5)

    def test_unit_magnitude_admitted(self):
        NoiseCorrelation(complex(0.0, 1.0))


class TestLMMSEVariance:
    def test_no_relay_signal(self):
        phi = NoiseCorrelation(0.6)
        assert lmmse_error_variance(CH, PARAMS, 0.0, phi) == pytest.approx(1.0 - 0.36, abs=1e-15)

    def test_uncorrelated_noises(self):
        x = 0.3
        expected = (1.0 + 5.0 * PARAMS.mu * x) / (1.0 + PARAMS.mu * x)
        assert lmmse_error_variance(CH, PARAMS, x, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_reference_point(self):
        # (1 + 2.5 - 0.25 - 1) / 1.5; cross-checked by the sampled covariance below.
        assert lmmse_error_variance(CH, PARAMS, 0.25, 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_monte_carlo_covariance_agrees(self):
        pb = PowerBudget(1.0, 10.0)
        est, se = lmmse_error_variance_mc(
            CH, pb, 0.25, 0.5, n_samples=400_000, rng=np.random.default_rng(40)
        )
        assert abs(est - 1.5) <= 5.0 * se

    def test_nonnegative_for_admissible_phi(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            ch, params, _ = random_channel(rng)
            phi = random_phi(rng, r_max=1.0)
            assert lmmse_error_variance(ch, params, rng.uniform(0.0, 5.0), phi) >= 0.0

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            lmmse_error_variance(CH, PARAMS, -0.1, 0.0)


class TestConditionalEntropy:
    """The conditional noise variance N(x)/(1+beta*x), whose log2(pi*e*...) is
    the conditional noise entropy of the bound. It is `lmmse_error_variance`
    at gain x/mu, whose N(mu*(x/mu)) is N(x)."""

    def test_no_relay_signal(self):
        phi = NoiseCorrelation(0.5)
        assert lmmse_error_variance(CH, PARAMS, 0.0, phi) == pytest.approx(0.75, rel=1e-15)

    def test_independent_unit_noise(self):
        assert lmmse_error_variance(CH, PARAMS, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_reference_point_matches_determinant(self):
        # Oracle: determinant of the effective-noise covariance matrix.
        x, phi = 0.25, complex(0.5)
        k = np.array(
            [
                [x * 4.0 + 1.0, x * 2.0 * 1.0 + np.conj(phi)],
                [x * 2.0 * 1.0 + phi, x * 1.0 + 1.0],
            ]
        )
        det = float(np.linalg.det(k).real)
        got = lmmse_error_variance(CH, PARAMS, x / PARAMS.mu, phi)
        assert got == pytest.approx(det / (1.0 + 1.0 * x), rel=1e-12)
        assert got == pytest.approx(1.2, rel=1e-12)

    def test_degenerate_covariance_rejected(self):
        # |phi| = 1 makes the noise covariance singular whatever the phase.
        with pytest.raises(DegenerateDistributionError):
            bound_objective(CH, PARAMS, 0.0, complex(0.0, 1.0))

    def test_determinant_nonnegative_for_admissible_phi(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            ch, params, _ = random_channel(rng)
            phi = random_phi(rng, r_max=1.0)
            x = rng.uniform(0.0, 5.0)
            # For t >= 0 the variance N(t)/(1 + beta*t) has the sign of N(t).
            c0, c1, _ = converse._coefficients(ch, params, phi)
            assert c0 + c1 * x >= -1e-12


class TestSelectPhi:
    def test_weak_destination_choice(self):
        ch = ChannelRealization(1.0, 1.0, 2.0)
        params = DerivedParams(1.0, 4.0, 2.0)
        phi = select_phi(ch, params)
        assert phi.phi == pytest.approx(0.5)
        assert phi.abs2 == pytest.approx(params.alpha / params.beta, rel=1e-15)

    def test_strong_destination_choice(self):
        phi = select_phi(CH, PARAMS)
        assert phi.phi == pytest.approx(0.5)
        assert phi.abs2 == pytest.approx(PARAMS.beta / PARAMS.alpha, rel=1e-15)

    def test_zero_eavesdropper_gain(self):
        ch = ChannelRealization(1.0, 2.0, 0.0)
        assert select_phi(ch, DerivedParams(4.0, 0.0, 2.0)).phi == 0.0

    def test_all_zero_second_hop(self):
        ch = ChannelRealization(1.0, 0.0, 0.0)
        assert select_phi(ch, DerivedParams(0.0, 0.0, 2.0)).phi == 0.0

    def test_random_choices_always_admissible(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            ch, params, _ = random_channel(rng)
            assert select_phi(ch, params).abs2 <= 1.0 + 1e-12


class TestBoundObjective:
    def test_zero_gain_is_zero(self):
        for phi in (0.0, 0.3, complex(0.2, -0.4)):
            assert bound_objective(CH, PARAMS, 0.0, phi) == pytest.approx(0.0, abs=1e-15)

    def test_collapses_to_achievable_objective(self):
        phi = select_phi(CH, PARAMS)
        for x in np.linspace(0.0, 0.25, 26):
            rate = af_achievable_rate_at(PARAMS, PB, float(x))
            assert bound_objective(CH, PARAMS, float(x), phi) == pytest.approx(rate, abs=1e-12)

    @pytest.mark.parametrize("a, b, m, x", [
        (4.0, 1.0, 2.0, 0.7),
        # The bound_collapse draw of `secrelay verify --draws 200 --seed
        # 9468588589655178845`, beta/alpha = 1 - 1.4e-5.
        (0.4360221745830397, 0.43601608942034314, 7.7961142380176405, 2.6291177168475297),
    ], ids=["reference_point", "near_cancelling"])
    def test_collapse_within_rounding_count(self, a, b, m, x):
        # verify.bound_collapse's per-draw check against its tolerance.
        (scaled_gap,) = verify._collapse_draw(a, b, m, x)
        assert scaled_gap <= verify.TOLERANCES["bound_collapse"]["scaled_gap"]

    def test_weak_destination_identically_zero(self):
        ch = ChannelRealization(1.0, 1.0, 2.0)
        pb = PowerBudget(1.0, 4.0)
        params = derive_params(ch, pb)
        phi = select_phi(ch, params)
        for x in np.linspace(0.0, pb.p_r / params.mu, 30):
            assert abs(bound_objective(ch, params, float(x), phi)) <= 1e-12

    def test_dominates_achievable_rate_for_any_phi(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            ch, params, pb = random_channel(rng)
            x_max = pb.p_r / params.mu
            x = rng.uniform(0.0, x_max) if x_max > 0 else 0.0
            phi = random_phi(rng)
            rate = af_achievable_rate_at(params, pb, x)
            assert bound_objective(ch, params, x, phi) >= rate - 1e-9

    @pytest.mark.parametrize("x", [-1.0, np.array(-1.0), np.array([0.5, -1.0])],
                             ids=["float", "0-d", "1-d"])
    def test_negative_gain_rejected(self, x):
        # x = -1/beta: a scalar once divided by zero, an array warned and
        # raised DegenerateDistributionError.
        with pytest.raises(ValueError, match="x must be nonnegative"):
            bound_objective(CH, PARAMS, x, 0.3)

    def test_vectorized_evaluation(self):
        xs = np.linspace(0.0, 0.25, 5)
        vals = bound_objective(CH, PARAMS, xs, select_phi(CH, PARAMS))
        assert vals.shape == xs.shape


class TestBlockedBoundObjective:
    """Grids longer than `fractional._BLOCK` are evaluated block by block;
    values must be those of one whole-array evaluation, bit for bit."""

    BLOCK = 64

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("phi", [None, complex(0.3, -0.5)])
    def test_matches_single_block(self, monkeypatch, n, phi):
        phi = select_phi(CH, PARAMS) if phi is None else phi
        xs = np.linspace(0.0, 3.0, n)
        monkeypatch.setattr(fractional, "_BLOCK", 10**9)
        whole = bound_objective(CH, PARAMS, xs, phi)
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        blocked = bound_objective(CH, PARAMS, xs, phi)
        assert blocked.shape == xs.shape
        assert np.array_equal(blocked, whole)

    def test_scalar_and_size_one_types(self, monkeypatch):
        monkeypatch.setattr(fractional, "_BLOCK", 1)
        phi = complex(0.3, -0.5)
        for x in (0.2, np.float64(0.2), 0, np.array(0.2)):
            assert type(bound_objective(CH, PARAMS, x, phi)) is float
        one = bound_objective(CH, PARAMS, np.array([0.2]), phi)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == bound_objective(CH, PARAMS, 0.2, phi)
        # A 0-d array is a scalar: written into a 0-d `out` in place.
        buf = np.array(0.2)
        assert bound_objective(CH, PARAMS, buf, phi, out=buf) is buf
        assert buf[()] == one[0]
        # NaN variances do not raise; a zero one does, at |phi| = 1 and x = 0.
        for x in (np.nan, np.array(np.nan)):
            assert math.isnan(bound_objective(CH, PARAMS, x, phi))
        with pytest.raises(DegenerateDistributionError):
            bound_objective(CH, PARAMS, np.array(0.0), 1.0)

    @pytest.mark.parametrize("n", [1, BLOCK, 2 * BLOCK + 3])
    def test_output_over_input_matches_fresh_output(self, monkeypatch, n):
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        phi = complex(0.3, -0.5)
        xs = np.linspace(0.0, 3.0, n)
        kept = xs.copy()
        fresh = bound_objective(CH, PARAMS, xs, phi)
        assert np.array_equal(xs, kept)  # out=None leaves the input alone
        assert bound_objective(CH, PARAMS, xs, phi, out=xs) is xs
        assert np.array_equal(xs, fresh)

    def test_genie_grid_peak_below_two_grid_arrays(self):
        # The grid's values are written over the grid: one full-size array
        # plus a block's temporaries.
        n = 200_001
        pb = PowerBudget(1.0, 30.0)
        params = derive_params(CH, pb)
        expected = genie_upper_bound(CH, params, pb, n_points=n)
        tracemalloc.start()
        try:
            got = genie_upper_bound(CH, params, pb, n_points=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 2 * 8 * n

    def test_scalar_equals_array_element(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            ch, params, pb = random_channel(rng)
            phi = random_phi(rng)
            xs = rng.uniform(0.0, 5.0, 7)
            vals = bound_objective(ch, params, xs, phi)
            for scalar in (float, np.array):
                assert [bound_objective(ch, params, scalar(x), phi) for x in xs] == list(vals)

    def test_degenerate_variance_in_last_block_raises(self, monkeypatch):
        # At phi = 1 both variances are proportional to x for this channel
        # (N(x) = x, N(mu*x) = 2x), so only x = 0, the last point, is
        # degenerate.
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        xs = np.linspace(1.0, 0.0, 2 * self.BLOCK + 3)
        assert np.all(np.isfinite(bound_objective(CH, PARAMS, xs[:-1], 1.0)))
        with pytest.raises(DegenerateDistributionError):
            bound_objective(CH, PARAMS, xs, 1.0)
        with pytest.raises(DegenerateDistributionError):
            bound_objective(CH, PARAMS, 0.0, 1.0)
        # A NaN lane has NaN variances: it does not raise and stays NaN, and
        # it does not hide the zero variance in its block, the last.
        xs[-2] = np.nan
        vals = bound_objective(CH, PARAMS, xs[:-1], 1.0)
        assert np.isnan(vals[-1]) and np.all(np.isfinite(vals[:-1]))
        with pytest.raises(DegenerateDistributionError):
            bound_objective(CH, PARAMS, xs, 1.0)
        empty = bound_objective(CH, PARAMS, np.empty(0), 1.0)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


class TestGenieBound:
    def test_weak_destination_is_exactly_zero(self):
        ch = ChannelRealization(1.0, 1.0, 2.0)
        pb = PowerBudget(1.0, 4.0)
        params = derive_params(ch, pb)
        assert genie_upper_bound(ch, params, pb).bound_value == 0.0

    def test_tight_at_full_power_regime(self):
        bound = genie_upper_bound(CH, PARAMS, PB, n_points=200_001)
        assert bound.bound_value == pytest.approx(0.16096404744368117, abs=1e-10)

    def test_tight_at_saturated_regime(self):
        pb = PowerBudget(1.0, 10.0)
        bound = genie_upper_bound(CH, PARAMS, pb, n_points=200_001)
        assert bound.bound_value == pytest.approx(0.16519849227621203, abs=1e-10)

    def test_tightness_random(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            ch, params, pb = random_channel(rng)
            bound = genie_upper_bound(ch, params, pb, n_points=100_001)
            cap = af_secrecy_capacity(params, pb).capacity
            assert abs(bound.bound_value - cap) <= 1e-9

    @pytest.mark.parametrize("n_points", [200_001, 1_000_000])
    @pytest.mark.parametrize("p_r", [1e22, 1e25, 1e30])
    def test_peak_inside_first_grid_cell(self, p_r, n_points):
        # `compute --strategy af --alpha 2 --beta 1 --mu 3 --pr 1e22` once
        # printed genie_bound 4.805e-16: the peak, near x = 0.41, lies in the
        # first grid cell.
        params = DerivedParams(2.0, 1.0, 3.0)
        pb = PowerBudget(1.0, p_r)
        bound = genie_upper_bound(surrogate_channel(params), params, pb, n_points=n_points)
        assert abs(bound.bound_value - af_secrecy_capacity(params, pb).capacity) <= 1e-9

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(*[st.floats(-150.0, 150.0)] * 4)
    def test_tight_at_every_scale(self, e_alpha, e_beta, e_mu, e_pr):
        # alpha, beta, mu - 1 and p_r log-uniform over 1e-150..1e150: the
        # bound equals `af_batch`'s capacity to 1e-9 relative, whether the
        # peak is in the first grid cell, past the float spacing of a huge
        # interval, or at x_max.
        alpha, beta, mu, p_r = 10.0**e_alpha, 10.0**e_beta, 1.0 + 10.0**e_mu, 10.0**e_pr
        params = DerivedParams(alpha, beta, mu)
        pb = PowerBudget(1.0, p_r)
        bound = genie_upper_bound(surrogate_channel(params), params, pb, n_points=200_001)
        capacity = float(af_batch(alpha, beta, mu, p_r)[0])
        assert abs(bound.bound_value - capacity) <= 1e-9 * capacity


def reference(ch, params, phi, x):
    """(v(mu*x), v(x)), (N(mu*x), N(x)) and the bound 0.5*log2(v(mu*x)/v(x))
    from the determinant's definition
    N(t) = 1 + (alpha+beta)*t - |phi|^2 - 2*t*Re{h_d*conj(h_e)*phi}
    and v(t) = N(t)/(1 + beta*t), on the float inputs as given: exact
    rational arithmetic up to the excess e = v(mu*x)/v(x) - 1, so the bound
    keeps its relative precision however small it is, and log1p(e) at 60
    digits."""
    p, q, r, s, f, g, a, b, m, x = (Fraction(float(v)) for v in (
        ch.h_d.real, ch.h_d.imag, ch.h_e.real, ch.h_e.imag,
        phi.phi.real, phi.phi.imag, params.alpha, params.beta, params.mu, x))
    # h_d*conj(h_e) = (p*r + q*s) + i*(q*r - p*s)
    cross = (p * r + q * s) * f - (q * r - p * s) * g

    def n_v(t):
        n = 1 + (a + b) * t - (f * f + g * g) - 2 * t * cross
        return n, n / (1 + b * t)

    (n_mu, v_mu), (n_one, v_one) = n_v(m * x), n_v(x)
    e = v_mu / v_one - 1
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(e.numerator) / e.denominator
        # Below 1e-20 the series' next term, d^3/3, is under 1e-40*|d|;
        # above, 1 + d at 60 digits keeps 40 digits of its log.
        log1p = d - d * d / 2 if abs(d) < Decimal("1e-20") else (1 + d).ln()
        bound = log1p / (2 * Decimal(2).ln())
    return (float(v_mu), float(v_one)), (float(n_mu), float(n_one)), float(bound)


def condition(ch, params, phi, t, n):
    """kappa(t) = A(t)/|N(t)|, A(t) = S0 + S1*t: N's terms taken in absolute
    value, S0 = 1 + |phi|^2 and S1 = alpha + beta + 2*R, where R sums the
    absolute values of the four triple products that form
    Re{h_d*conj(h_e)*phi}."""
    p, q, r, s = ch.h_d.real, ch.h_d.imag, ch.h_e.real, ch.h_e.imag
    f, g = phi.phi.real, phi.phi.imag
    big_r = (abs(p * r) + abs(q * s)) * abs(f) + (abs(q * r) + abs(p * s)) * abs(g)
    s1 = params.alpha + params.beta + 2.0 * big_r
    return (1.0 + phi.abs2 + s1 * t) / abs(n)


def k_error_terms(ch, params, phi):
    """(k, KB, KA, D) for the error of k = |d|^2, d = h_d - conj(phi)*h_e =
    d_r + i*d_i: KB = |d_r|*B_r + |d_i|*B_i, with B_r = |p| + |f*r| + |g*s|
    and B_i = |q| + |f*s| + |g*r| (the terms of each component in absolute
    value), KA = alpha + |phi|^2*beta and D = |d_r| + |d_i|."""
    p, q, r, s = ch.h_d.real, ch.h_d.imag, ch.h_e.real, ch.h_e.imag
    f, g = phi.phi.real, phi.phi.imag
    d = complex(ch.h_d) - complex(phi.phi).conjugate() * complex(ch.h_e)
    kb = (abs(d.real) * (abs(p) + abs(f * r) + abs(g * s))
          + abs(d.imag) * (abs(q) + abs(f * s) + abs(g * r)))
    return (abs(d) ** 2, kb, params.alpha + phi.abs2 * params.beta,
            abs(d.real) + abs(d.imag))


class TestReference:
    U = 2.0**-53
    TINY = 2.0**-1074  # the least subnormal; an underflow loses at most half
    C = 0.5 / math.log(2.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.0, 0.999),
        st.one_of(st.none(), st.floats(0.0, 2.0 * math.pi)),
        st.floats(1.0, 20.0),
        st.floats(0.0, 5.0),
    )
    def test_bound_and_variance_match_reference(self, ua, ub, near, th_d, th_e, radius,
                                                 th_phi, mu, x):
        """`bound_objective` and `lmmse_error_variance` against `reference`,
        the bound relative to its own size at any scale.

        alpha and beta are Exp(1), as `verify` draws them, here by inversion;
        `near` given, beta is alpha*(1 + near). Gains take any phases. phi
        has |phi| <= 0.999 at any phase, or (th_phi None) the phase of
        conj(h_d*conj(h_e)), where Re{h_d*conj(h_e)*phi} = |h_d*h_e*phi| and
        c1 = alpha + beta - 2*Re{...} cancels most: at alpha ~ beta and
        |phi| = 0.999, kappa (below) reaches about 2/0.001 = 2000.

        Tolerance (Higham, Accuracy and Stability of Numerical Algorithms,
        2002, ch. 2-3; u = 2**-53, gamma_k = k*u/(1 - k*u)), first order.
        The bound is C*log1p(E), C = 1/(2 ln 2), with the excess
        E = k*W, W = x*(mu-1)/((1 + beta*mu*x)*N(x)), formed as
        [k/N(x)] * [(mu-1)*x/(1 + beta*mu*x)]. The reference's k is
        c1 - beta*c0; the program's is |d|^2 (`k_error_terms`):
        - alpha and beta are abs(h)**2 (hypot within an ulp, then a square):
          within gamma_5 of |h_d|^2 and |h_e|^2, so |d|^2 differs from the
          reference's k by at most 5u*KA. Each component of d has two
          products and two sums, within gamma_3*B; the two squares and their
          sum put k within 6u*KB + 2u*k.
        - N(x) = c0 + c1*x: c0 within gamma_3*S0, c1 within gamma_6*S1 (its
          cross term four triple products of 4 roundings, within
          gamma_4*R), so with the product and the sum N(x) is within
          gamma_8*A(x), 8u*kappa(x) relative (`condition`).
        - k/N(x) adds u; the second factor's mu - 1, (mu-1)*x, mu*x,
          beta*(mu*x), the sum and the division (all terms positive) 6u;
          the factors' product u. log1p changes relatively no more than its
          argument does, and is assumed within 2 ulps (4u); the scale adds
          u, C's own rounding 2u, and the reference's rounding u.
        So the bound is within C*u*(6*KB + 5*KA)*W + (8*kappa(x) + 18)*u*|ref|.
        An underflowing result loses at most ETA = TINY/2. Underflow can
        only happen in k's terms (inputs below about 1e-154), which leaves
        k within (5 + 8*D)*ETA, in k/N(x), in (mu-1)*x and its quotient by
        1 + beta*mu*x >= 1, in the factors' product, in log1p and in the
        scale. With C < 1 and N(x) >= c0 > 0 the bound is then within
        (((5 + 8*D)/N(x) + 1)*x*(mu-1) + 2*k/N(x) + 3)*ETA.
        The variance v(mu*x) = N(t)/(1 + beta*t), t = mu*x rounded once: N(t)
        within gamma_9*A(t), 1 + beta*t (positive terms) within gamma_3, and
        the division u, so within 13u*kappa(t) relative, plus the reference's
        u. The factor 1.01 covers the second-order terms while the
        first-order counts stay below 1e-6 (relative to k for k's), which
        the test asserts.
        """
        alpha, beta = -math.log1p(-ua), -math.log1p(-ub)
        if near is not None:
            beta = alpha * (1.0 + near)
        h_d = math.sqrt(alpha) * complex(math.cos(th_d), math.sin(th_d))
        h_e = math.sqrt(beta) * complex(math.cos(th_e), math.sin(th_e))
        ch = ChannelRealization(1.0, h_d, h_e)
        params = DerivedParams(abs(h_d) ** 2, abs(h_e) ** 2, mu)
        th = th_e - th_d if th_phi is None else th_phi
        phi = NoiseCorrelation(radius * complex(math.cos(th), math.sin(th)))
        (v_mu, v_one), (n_mu, n_one), ref = reference(ch, params, phi, x)
        k_mu = condition(ch, params, phi, mu * x, n_mu)
        k_one = condition(ch, params, phi, x, n_one)
        k, kb, ka, d = k_error_terms(ch, params, phi)
        w = x * (mu - 1.0) / ((1.0 + params.beta * mu * x) * n_one)
        u = self.U
        assert (8.0 * k_one + 18.0) * u < 1e-6 and 13.0 * k_mu * u < 1e-6
        assert (6.0 * kb + 5.0 * ka) * u <= 1e-6 * k
        tol = 1.01 * (self.C * u * (6.0 * kb + 5.0 * ka) * w
                      + (8.0 * k_one + 18.0) * u * abs(ref)
                      + 0.5 * (((5.0 + 8.0 * d) / n_one + 1.0) * x * (mu - 1.0)
                               + 2.0 * k / n_one + 3.0) * self.TINY)
        assert abs(bound_objective(ch, params, x, phi) - ref) <= tol
        var = lmmse_error_variance(ch, params, x, phi)
        assert abs(var - v_mu) <= 1.01 * (13.0 * k_mu + 1.0) * u * v_mu


class TestOverflowWitness:
    """`secrelay compute --strategy af --alpha 1e300 --beta 1e299 --mu 2
    --pr 1`: the bound once multiplied (1 + beta*x) by N(mu*x), which
    overflowed to nan. Each variance is now bounded on its own."""

    PARAMS = DerivedParams(1e300, 1e299, 2.0)
    PB = PowerBudget(1.0, 1.0)
    CAPACITY = 0.2578621607392264

    def inputs(self):
        ch = surrogate_channel(self.PARAMS)
        return ch, select_phi(ch, self.PARAMS)

    def test_grid_is_finite(self):
        # RuntimeWarnings are errors in this suite, so an overflow fails here.
        ch, phi = self.inputs()
        xs = np.linspace(0.0, self.PB.p_r / self.PARAMS.mu, 200_001)
        assert np.all(np.isfinite(bound_objective(ch, self.PARAMS, xs, phi)))

    def test_bound_at_capacity_maximizer(self):
        ch, phi = self.inputs()
        res = af_secrecy_capacity(self.PARAMS, self.PB)
        assert res.capacity == self.CAPACITY
        assert abs(bound_objective(ch, self.PARAMS, res.x_hat, phi) - self.CAPACITY) <= 1e-12

    def test_genie_bound_finds_the_peak(self):
        # The peak, near x = 2.2e-300, lies inside the first grid cell; the
        # objective's own stationary point finds it.
        ch, _ = self.inputs()
        bound = genie_upper_bound(ch, self.PARAMS, self.PB)
        assert abs(bound.bound_value - self.CAPACITY) <= 1e-9


class TestOverflowingDeterminant:
    """`bound_objective` forms N(x) = c0 + c1*x, which overflows at huge
    alpha*x: at alpha = MAX, beta = 5e-324, mu = 1 + 2**-52 and x = p_r/mu,
    p_r = 1e150, it reads 0.0 where the rate is 1.6e-16, so the bound does
    not dominate. The array path also warns of the overflow. The cause is
    ROADMAP item 1's: the problem is posed in x, not in consumed power."""

    PARAMS = DerivedParams(1.7976931348623157e308, 5e-324, 1.0000000000000002)
    PB = PowerBudget(1.0, 1e150)
    X = PB.p_r / PARAMS.mu
    RATE = 1.6017132519074586e-16

    def test_rate_is_exact(self):
        p = self.PARAMS
        a, b, m, x = (Fraction(v) for v in (p.alpha, p.beta, p.mu, self.X))
        e = (a - b) * x / (1 + a * x) * (m - 1) / (1 + b * m * x)
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(e.numerator) / e.denominator
            exact = (1 + d).ln() / (2 * Decimal(2).ln())
        assert float(exact) == self.RATE
        assert af_achievable_rate_at(self.PARAMS, self.PB, self.X) == self.RATE

    @pytest.mark.xfail(strict=True, reason=(
        "c0 + c1*x overflows, so the scalar bound reads 0.0 (ROADMAP item 1)"))
    def test_bound_meets_rate(self):
        ch = surrogate_channel(self.PARAMS)
        bound = bound_objective(ch, self.PARAMS, self.X, select_phi(ch, self.PARAMS))
        assert abs(bound - self.RATE) <= 1e-9 * self.RATE
