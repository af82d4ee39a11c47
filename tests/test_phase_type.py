import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from netsir import (ErlangSpec, PhaseType, cdf, erlang, exit_rates, mean,
                    min_with_exponential, sample)
from netsir.phase_type import (WalkBuffers, absorbing_walk, phase_type,
                               walk_table)
from conftest import ks_statistic
from walk_reference import reference_absorbing_walk

# jumps 1 -> 2 and back: a law whose walks have no step bound
BACKWARD = PhaseType(Pi=np.array([[-2.0, 1.0], [1.5, -3.0]]))


def philox(seed):
    """A Generator on Philox(key=seed)."""
    return np.random.Generator(np.random.Philox(key=seed))


class TestConstruction:
    def test_one_phase_erlang_is_exponential(self):
        d = erlang(ErlangSpec(1, 2.0))
        assert d.Pi.tolist() == [[-0.5]]
        assert d.phi.tolist() == [1.0]

    def test_two_phase_matrix_form(self):
        d = erlang(ErlangSpec(2, 1.0))
        assert d.Pi.tolist() == [[-2.0, 2.0], [0.0, -2.0]]
        assert exit_rates(d).tolist() == [0.0, 2.0]

    def test_erlang_mean_is_gamma(self):
        assert mean(erlang(ErlangSpec(3, 0.5))) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ErlangSpec(0, 1.0)
        with pytest.raises(ValueError):
            ErlangSpec(2, -1.0)

    def test_metzler_validation(self):
        with pytest.raises(ValueError):
            PhaseType(Pi=np.array([[-1.0, -0.5], [0.0, -1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            PhaseType(Pi=np.zeros((2, 2)))

    def test_positive_row_sum_rejected(self):
        with pytest.raises(ValueError):
            PhaseType(Pi=np.array([[-1.0, 2.0], [0.0, -1.0]]))


class TestStack:
    """`phase_type` stacks each distinct law object once and indexes it
    per node; repeated objects give the per-law stack and are refused
    alike."""

    def test_repeated_laws_give_the_per_law_stack(self):
        a, b = erlang(ErlangSpec(3, 1.0)), erlang(ErlangSpec(3, 2.5))
        laws = (a, b, a, a, b, erlang(ErlangSpec(3, 1.0)))
        stack = phase_type(laws)
        assert stack.shape == (6, 3, 3)
        assert np.array_equal(stack, np.stack([law.Pi for law in laws]))

    def test_mixed_phase_counts_refused(self):
        two, three = erlang(ErlangSpec(2, 1.0)), erlang(ErlangSpec(3, 1.0))
        with pytest.raises(ValueError, match="one phase count"):
            phase_type((two, two, three, two))

    def test_phi_other_than_u1_refused(self):
        good = erlang(ErlangSpec(2, 1.0))
        late = PhaseType(Pi=good.Pi, phi=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="phase 1"):
            phase_type((good, good, late, good, late))


class TestMinWithExponential:
    def test_exponential_rates_add(self):
        gamma = 2.0
        d = min_with_exponential(erlang(ErlangSpec(1, gamma)), 0.3)
        assert d.Pi[0, 0] == pytest.approx(-(1 / gamma + 0.3))

    def test_two_phase_shift(self):
        d = min_with_exponential(erlang(ErlangSpec(2, 1.0)), 0.1)
        assert d.Pi.tolist() == [[-2.1, 2.0], [0.0, -2.1]]
        assert exit_rates(d).tolist() == pytest.approx([0.1, 2.1])

    def test_delta_zero_forbidden(self):
        with pytest.raises(ValueError):
            min_with_exponential(erlang(ErlangSpec(1, 1.0)), 0.0)

    def test_small_delta_approaches_input(self):
        base = erlang(ErlangSpec(2, 1.0))
        d = min_with_exponential(base, 1e-12)
        assert np.allclose(d.Pi, base.Pi, atol=1e-11)


class TestCdf:
    def test_no_mass_at_zero(self):
        for spec in (ErlangSpec(1, 1.0), ErlangSpec(3, 0.7)):
            assert cdf(erlang(spec), 0.0) == 0.0

    def test_exponential_closed_form(self):
        assert cdf(erlang(ErlangSpec(1, 1.0)), 1.0) == pytest.approx(
            1 - np.exp(-1), abs=1e-12)

    def test_erlang2_closed_form(self):
        # shape 2, rate 2: F(1) = 1 - e^-2 (1 + 2)
        assert cdf(erlang(ErlangSpec(2, 1.0)), 1.0) == pytest.approx(
            1 - np.exp(-2) * 3, abs=1e-12)

    def test_vectorized(self):
        d = erlang(ErlangSpec(2, 1.0))
        ts = np.array([0.0, 0.5, 1.0, 2.0])
        vals = cdf(d, ts)
        assert vals.shape == (4,)
        assert np.all(np.diff(vals) > 0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            cdf(erlang(ErlangSpec(1, 1.0)), -0.5)

    @pytest.mark.parametrize("law", [erlang(ErlangSpec(1, 1.3)),
                                     erlang(ErlangSpec(2, 1.3)),
                                     erlang(ErlangSpec(4, 1.3)), BACKWARD],
                             ids=["erlang1", "erlang2", "erlang4",
                                  "backward"])
    @pytest.mark.parametrize("delta", [0.0, 0.6])
    def test_uniformization_matches_expm(self, law, delta):
        # one expm a point is the reference; the grid spans the bulk,
        # where 1 - phi exp(t Pi) 1 is itself accurate to ~1e-16
        d = min_with_exponential(law, delta) if delta else law
        ts = np.linspace(0.25, 4.0, 16) * mean(d)
        ref = [1.0 - d.phi @ scipy.linalg.expm(t * d.Pi) @ np.ones(d.p)
               for t in ts]
        np.testing.assert_allclose(cdf(d, ts), ref, rtol=1e-12, atol=0)


class TestSampling:
    N = 100_000

    def _samples(self, d, seed=5):
        return sample(d, philox(seed), size=self.N)[0]

    def test_exponential_sample_mean(self):
        gamma = 2.0
        xs = self._samples(erlang(ErlangSpec(1, gamma)))
        assert abs(xs.mean() - gamma) < 3 * gamma / np.sqrt(self.N)

    def test_erlang_sample_variance(self):
        # Erlang(p, gamma) variance is gamma^2 / p
        xs = self._samples(erlang(ErlangSpec(4, 2.0)))
        assert xs.var() == pytest.approx(1.0, abs=0.05)

    def test_min_of_exponentials(self):
        d = min_with_exponential(erlang(ErlangSpec(1, 1.0)), 1.0)
        xs = self._samples(d)
        assert abs(xs.mean() - 0.5) < 3 * 0.5 / np.sqrt(self.N)

    @pytest.mark.parametrize("spec", [ErlangSpec(1, 1.0), ErlangSpec(2, 0.5),
                                      ErlangSpec(4, 2.0)])
    def test_empirical_cdf_matches_analytic(self, spec):
        d = erlang(spec)
        xs = np.sort(self._samples(d, seed=9))
        assert ks_statistic(xs, cdf(d, xs)) < 0.01

    def test_sample_mean_matches_mean_identity(self):
        d = min_with_exponential(erlang(ErlangSpec(3, 1.5)), 0.4)
        xs = self._samples(d, seed=13)
        se = xs.std(ddof=1) / np.sqrt(self.N)
        assert abs(xs.mean() - mean(d)) < 3 * se


class TestMinLawCheck:
    """min(sample(Y), Exp(delta)) must follow min_with_exponential(Y, delta)."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_lemma_grid(self, p):
        n = 100_000
        delta = 0.7
        y = erlang(ErlangSpec(p, 1.3))
        gen = np.random.Generator(np.random.Philox(key=31).jumped(p))
        ys, _ = sample(y, gen, size=n)
        xs = gen.exponential(1.0 / delta, size=n)
        zs = np.minimum(ys, xs)
        law = min_with_exponential(y, delta)
        grid = np.linspace(0.05, np.quantile(zs, 0.99), 20)
        emp = np.searchsorted(np.sort(zs), grid, side="right") / n
        assert np.max(np.abs(emp - cdf(law, grid))) < 0.01


def test_exit_rates_identity_exact():
    for spec in (ErlangSpec(1, 1.0), ErlangSpec(3, 0.25)):
        d = min_with_exponential(erlang(spec), 0.17)
        assert np.all(exit_rates(d) + d.Pi.sum(axis=1) == 0.0)


class TestWalks:
    def test_scalar_form_is_one_walk(self):
        d = erlang(ErlangSpec(3, 1.0))
        x = sample(d, philox(4))
        ts, _ = sample(d, philox(4), size=1)
        assert isinstance(x, float) and x == ts[0]

    def test_erlang_exits_from_its_last_phase(self):
        _, phases = sample(erlang(ErlangSpec(3, 1.0)), philox(6),
                           size=1000)
        assert np.all(phases == 2)

    def test_backward_exit_phases(self):
        # phase 1 exits or moves on w.p. 1/2 each, and so does phase 2,
        # moving back to phase 1; x = P(exit from phase 1) solves
        # x = 1/2 + x/4, so x = 2/3
        _, phases = sample(BACKWARD, philox(8), size=100_000)
        share = np.mean(phases == 0)
        assert abs(share - 2 / 3) < 4 * np.sqrt(2 / 9 / 100_000)

    def test_budget_then_more_reads_one_sequence(self):
        # a walk reads its budget, then each `more()` block in turn:
        # splitting one sequence of pairs anywhere gives the same walks
        hold, cum = walk_table(BACKWARD.Pi[None],
                               exit_rates(BACKWARD)[None, :, None])
        pairs = philox(10).random((50, 80))
        zeros = np.zeros(50, dtype=np.intp)   # law 0, from phase 1

        def walks(width):
            starts = iter(range(width, 80, width))

            def more():
                c = next(starts)
                return pairs[:, c:c + width]
            return absorbing_walk(hold, cum, zeros, pairs[:, :width], more)
        full = walks(80)
        for width in (2, 4, 10):
            for a, b in zip(full, walks(width)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("first, later", [
        ((4, 2), (5, 2)), ((5, 1, 2), (5, 2)), ((5, 0), (4, 2)),
        ((5, 0), (5, 1, 2))], ids=["budget-rows", "budget-3d", "more-rows",
                                   "more-3d"])
    def test_budget_of_another_shape_raises(self, first, later):
        # one row of uniforms a walk, on the budget and on every level
        hold, cum = walk_table(BACKWARD.Pi[None],
                               exit_rates(BACKWARD)[None, :, None])
        with pytest.raises(ValueError, match="budget shape"):
            absorbing_walk(hold, cum, np.zeros(5, dtype=np.intp),
                           np.full(first, 0.5), lambda: np.full(later, 0.5))


@st.composite
def walk_tables(draw):
    """The walk table of 1 to 3 laws of 1 to 3 phases, laid out as the
    simulator lays out its removal laws: an Erlang chain at its own mean,
    in some with a move back from the last phase to the first (a law
    with cycles), and a recovery rate, which may be 0, folded in as the
    first of two exit kinds."""
    laws, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pis, exits = [], []
    for _ in range(laws):
        pi = erlang(ErlangSpec(p, draw(st.floats(0.2, 5.0)))).Pi.copy()
        if p > 1:
            pi[-1, 0] = draw(st.sampled_from([0.0, 0.5, 0.95])) * -pi[0, 0]
        delta = draw(st.sampled_from([0.0, 0.05, 1.0]))
        pis.append(pi - delta * np.eye(p))
        exits.append(np.column_stack([np.full(p, delta), -pi.sum(axis=1)]))
    return walk_table(np.array(pis), np.array(exits)), laws, p


def uniforms(seed, level, rows, cols):
    """(rows, cols) uniforms of budget level `level` of the run `seed`,
    the first cols of rows of cols + 3, in one C-contiguous array, as
    the simulator's budgets are."""
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(level))
    return np.ascontiguousarray(gen.random((rows, cols + 3))[:, :cols])


def same_walks(table, laws, p, rows, width, seed, buf):
    """The buffered walk of `rows` replicas of each law, on budgets of
    `width` uniforms a walk and levels of 2 or 4 after them, one row a
    walk, against the reference on the same uniforms."""
    law = np.tile(np.arange(laws), rows)
    phase = np.tile(np.arange(laws) % p, rows)
    levels = itertools.count(1)

    def more():
        level = next(levels)
        u = uniforms(seed, level, rows, laws * (2 + 2 * (level % 2)))
        return u.reshape(rows * laws, -1)

    budget = uniforms(seed, 0, rows, laws * width).reshape(rows * laws, width)
    want = reference_absorbing_walk(*table, law, phase, budget, more)
    levels = itertools.count(1)
    got = absorbing_walk(*table, law * p + phase, budget, more, buf)
    for a, b in zip(got, want):
        assert a.shape == (rows * laws,) and a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(walk_tables(), walk_tables(), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0, 2, 4, 6]), st.integers(0, 2**32 - 1))
def test_buffered_walk_matches_the_reference(first, second, big, small,
                                             width, seed):
    """Times, exit phases and exit kinds bit for bit, through one set of
    buffers for 90 walks: a call of `big` replicas of each law of one
    table, then one of `small` replicas of another's, which runs in what
    the first left behind. A count past the buffers raises, and runs in
    buffers of its own."""
    buf = WalkBuffers(90)
    for (table, laws, p), rows in ((first, max(big, small)),
                                   (second, min(big, small))):
        if rows * laws > 90:
            with pytest.raises(ValueError, match="buffers for"):
                same_walks(table, laws, p, rows, width, seed, buf)
            same_walks(table, laws, p, rows, width, seed, None)
        else:
            same_walks(table, laws, p, rows, width, seed, buf)
