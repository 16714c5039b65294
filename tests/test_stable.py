import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhtalpha import (
    alpha_from_nu,
    default_lookup,
    estimate_alpha,
    nu_alpha,
    sample_sas,
)
from hhtalpha.stable import MIN_SAMPLES, TABLE_ALPHA, TABLE_NU, hazen_ranks

GAUSS_NU = 2.4388  # (2*1.6449)/(2*0.6745)
CAUCHY_NU = 6.3138  # tan(0.45*pi)/tan(0.25*pi)


class TestNuAlpha:
    def test_gaussian(self):
        x = sample_sas(2.0, 100_000, 1)
        assert nu_alpha(x) == pytest.approx(GAUSS_NU, abs=0.05)

    def test_cauchy(self):
        x = sample_sas(1.0, 100_000, 1)
        assert nu_alpha(x) == pytest.approx(CAUCHY_NU, abs=0.3)

    def test_degenerate_rejected(self):
        assert np.isnan(nu_alpha(np.ones(1000)))
        with pytest.raises(ValueError, match="interquartile"):
            estimate_alpha(np.ones(1000))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_by_name(self, bad):
        x = np.random.default_rng(5).standard_normal(500)
        assert estimate_alpha(x).alpha > 1.5
        x[250] = bad
        with pytest.raises(ValueError, match="non-finite") as err:
            estimate_alpha(x)
        assert "interquartile" not in str(err.value)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            nu_alpha(np.arange(50.0))
        with pytest.raises(ValueError):
            nu_alpha(np.zeros((500, 50)))

    def test_rows_match_one_dimensional_calls(self):
        frames = np.stack([sample_sas(a, 400, s) for s, a in enumerate((0.8, 1.2, 1.7, 2.0))]
                          + [np.ones(400)])
        rows = nu_alpha(frames)
        assert rows.shape == (5,)
        for row, nu in zip(frames, rows):
            np.testing.assert_array_equal(nu, nu_alpha(row))
        assert np.isnan(rows[-1])


def quantile_nu(samples):
    """Reference: the ratio read from numpy's Hazen quantiles."""
    q05, q25, q75, q95 = np.quantile(samples, [0.05, 0.25, 0.75, 0.95], axis=-1,
                                     method="hazen")
    iqr = q75 - q25
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(iqr > 0.0, (q95 - q05) / iqr, np.nan)


class TestHazenOrderStats:
    @pytest.mark.parametrize("n", [100, 101, 997, 10240, 20000, 20001])
    def test_bit_equal_to_numpy_quantile(self, n):
        x = sample_sas(1.3, n, n)
        for samples in (x, np.round(x)):
            assert nu_alpha(samples) == quantile_nu(samples)

    @pytest.mark.parametrize("n", [997, 1000])  # n = 1000 puts every weight at 0.5
    def test_rows_bit_equal_to_numpy_quantile(self, n):
        frames = np.stack([sample_sas(1.5, n, s) for s in range(64)] + [np.ones(n)])
        frames[2] = np.round(frames[2] * 3)
        frames[4, 17] = np.nan
        # x05 halfway between 0.1 and 0.7, where a + (b-a)/2 and b - (b-a)/2 differ
        frames[3] = np.concatenate([np.full(n // 20, 0.1), np.linspace(0.7, 0.8, n - n // 20)])
        rows = nu_alpha(frames)
        assert np.isnan(rows[4]) and np.isnan(rows[-1])
        np.testing.assert_array_equal(rows, quantile_nu(frames))

    def test_ranks_read_by_numpy(self):
        ranks, gamma = hazen_ranks(10240)
        np.testing.assert_array_equal(ranks, [511, 2559, 7679, 9727, 512, 2560, 7680, 9728])
        np.testing.assert_array_equal(gamma, 0.5)

    def test_infinite_order_stats_bit_equal_without_warning(self):
        # the 95 % fractile reads order statistics 759 and 760 of 800
        x = np.tile(sample_sas(1.0, 800, 0), (3, 1))
        x[0, :39] = np.inf  # both finite
        x[1, :40] = -np.inf  # one infinite: x95 - x05 is +inf
        x[2, :100] = np.inf  # both infinite: inf - inf
        nu = nu_alpha(x)
        assert np.isfinite(nu[0]) and nu[1] == np.inf and np.isnan(nu[2])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(nu, quantile_nu(x))

    def test_too_few_samples_rejected(self):
        hazen_ranks(MIN_SAMPLES)
        with pytest.raises(ValueError, match="at least"):
            hazen_ranks(MIN_SAMPLES - 1)


@st.composite
def nu_inputs(draw):
    """Cauchy samples, 1-D or row-wise 2-D, optionally rounded to ties with
    signed zeros mixed in and with NaN or ±inf planted in some rows."""
    n = draw(st.integers(MIN_SAMPLES, 4000))
    rows = draw(st.sampled_from([None, 1, 3]))  # None: one 1-D array
    x = sample_sas(1.0, n * (rows or 1), draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # coarse rounding makes ties; zeroing a fraction of samples with a
        # random sign puts both -0.0 and +0.0 at or beside the quartile ranks
        x = np.round(x * draw(st.sampled_from([0.5, 2.0, 10.0])))
        zero = rng.random(x.size) < draw(st.floats(0.0, 0.6))
        x[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    x = x.reshape(-1, n)
    # up to an eighth of a row, so that ±inf can reach the 5 % and 95 % ranks
    planted = draw(st.lists(st.tuples(st.integers(0, x.shape[0] - 1), st.integers(1, n // 8),
                                      st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3))
    for row, count, value in planted:
        x[row, rng.choice(n, count, replace=False)] = value
    return x[0] if rows is None else x


class TestNuAlphaProperty:
    @given(nu_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_numpy_quantile(self, samples):
        nu = nu_alpha(samples)
        # numpy's quantile flags the inf - inf between two infinite order statistics
        with np.errstate(invalid="ignore"):
            expected = quantile_nu(samples)
        assert np.ndim(nu) == samples.ndim - 1
        np.testing.assert_array_equal(nu, expected)


class TestEstimateAlpha:
    def test_gaussian_hits_boundary(self):
        x = sample_sas(2.0, 20_000, 2)
        assert estimate_alpha(x).alpha >= 1.95

    def test_nu_at_table_boundary(self):
        assert alpha_from_nu(2.4388) == 2.0
        assert alpha_from_nu(1.0) == 2.0  # below-table clamp
        assert alpha_from_nu(1e6) == 0.5  # above-table clamp

    def test_lookup_elementwise(self):
        nus = np.array([1.0, 2.4388, 3.1, 4.7, 6.3138, 12.0, 1e6, np.nan])
        alphas = alpha_from_nu(nus)
        assert alphas.shape == nus.shape
        for nu, alpha in zip(nus, alphas):
            np.testing.assert_array_equal(alpha, alpha_from_nu(nu))
        assert np.isnan(alphas[-1])
        assert np.all((alphas[:-1] >= 0.5) & (alphas[:-1] <= 2.0))

    def test_oracle_closed_loop(self):
        hits = 0
        for seed in range(100):
            x = sample_sas(1.5, 20_000, seed)
            if 1.4 <= estimate_alpha(x).alpha <= 1.6:
                hits += 1
        assert hits >= 95

    @given(st.floats(0.001, 1000), st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_scale_and_shift_invariance(self, c, shift):
        x = sample_sas(1.5, 5_000, 7)
        base = estimate_alpha(x).alpha
        # affine transforms only reorder rounding, so match to float precision
        assert estimate_alpha(c * x + shift).alpha == pytest.approx(base, abs=1e-6)


class TestSampleSas:
    def test_gaussian_variance(self):
        x = sample_sas(2.0, 100_000, 3)
        assert np.var(x) == pytest.approx(2.0, abs=0.05)

    def test_cauchy_case(self):
        x = sample_sas(1.0, 100_000, 3)
        assert abs(np.median(x)) < 0.02
        assert nu_alpha(x) == pytest.approx(CAUCHY_NU, abs=0.3)

    def test_determinism(self):
        np.testing.assert_array_equal(sample_sas(1.3, 1000, 9), sample_sas(1.3, 1000, 9))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            sample_sas(2.5, 10, 0)
        with pytest.raises(ValueError):
            sample_sas(0.0, 10, 0)

    @pytest.mark.parametrize("n, seed, message", [
        (10.5, 1, "n must be a whole number, got 10.5"),
        (-1, 1, "n must be >= 0, got -1"),
        (10, -1, "seed must be >= 0, got -1"),
        (10, np.int64(-2), "seed must be >= 0, got "),
        (10, 1.5, "seed must be a whole number, got 1.5"),
    ])
    def test_count_or_seed_rejected_by_name(self, n, seed, message):
        with pytest.raises(ValueError, match=message):
            sample_sas(1.5, n, seed)

    def test_whole_count_and_seed_pass(self):
        expected = sample_sas(1.5, 5, 1)
        np.testing.assert_array_equal(sample_sas(1.5, 5.0, 1), expected)
        np.testing.assert_array_equal(sample_sas(1.5, np.int64(5), 1.0), expected)
        np.testing.assert_array_equal(sample_sas(1.5, 5, np.random.SeedSequence(1)), expected)
        assert len(sample_sas(1.5, 5, np.random.default_rng(1))) == 5


class TestLookup:
    def test_default_is_published(self):
        alpha, nu = default_lookup()
        assert alpha is TABLE_ALPHA and nu is TABLE_NU
        assert not (alpha.flags.writeable or nu.flags.writeable)  # shared by every caller
        assert alpha.shape == nu.shape == (16,)
        assert alpha[0] == 2.0
        assert nu[0] == pytest.approx(2.4388)

    def test_monotone_enforced(self):
        assert TABLE_ALPHA[0] == 2.0 and TABLE_ALPHA[-1] == 0.5
        assert np.all(np.diff(TABLE_ALPHA) < 0)
        assert np.all(np.diff(TABLE_NU) > 0)

    @pytest.mark.parametrize("alpha", [2.0, 1.5, 1.2, 1.0, 0.8])
    def test_rows_match_the_sampler(self, alpha):
        # the mean ratio of 8 sets of 200 000 CMS draws lands on the table row
        row = np.flatnonzero(np.isclose(TABLE_ALPHA, alpha))[0]
        nus = [nu_alpha(sample_sas(alpha, 200_000, np.random.SeedSequence([row, t])))
               for t in range(8)]
        assert np.mean(nus) == pytest.approx(TABLE_NU[row], rel=0.01)
