"""Property-based equivalence: engine vs scalar MIC vs frozen reference.

Three implementations must agree:

- :func:`repro.stats.mic.mic` — the scalar path (shared kernels);
- :func:`repro.stats.micfast.mic_matrix_fast` — the batched engine,
  contractually *exactly* equal to the scalar path;
- :func:`repro.stats._mic_reference.mic_reference` — the frozen pre-engine
  snapshot (original loops, log-based entropies) carrying only the
  tie-collapse keying fix, which the optimised paths must match to 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats._mic_reference import mic_reference
from repro.stats.mic import mic
from repro.stats.micfast import mic_matrix_fast

#: Samples per generated window: the pipeline's 30-tick abnormal window,
#: the 80% runt (24) that window slicing keeps, and a longer window (48)
#: whose wide grids reach the superclump path.
_SIZES = st.sampled_from([24, 30, 48])


def _columns(seed, kinds, n):
    """Build an (n, len(kinds)) window of the requested column kinds."""
    r = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind == "random":
            cols.append(r.normal(size=n))
        elif kind == "monotone":
            cols.append(np.sort(r.uniform(0, 1, n)))
        elif kind == "constant":
            cols.append(np.full(n, float(r.integers(-3, 4))))
        elif kind == "tied":
            cols.append(r.choice([0.0, 1.0, 2.0], size=n))
        elif kind == "nan":
            c = r.normal(size=n)
            c[r.integers(0, n, size=5)] = np.nan
            cols.append(c)
        else:  # pragma: no cover - guard against typos in strategies
            raise AssertionError(kind)
    return np.column_stack(cols)


_KIND = st.sampled_from(["random", "monotone", "constant", "tied", "nan"])


class TestEngineAgainstScalar:
    @given(
        st.integers(0, 2**31 - 1), st.lists(_KIND, min_size=2, max_size=4),
        _SIZES,
    )
    @settings(max_examples=25, deadline=None)
    def test_matrix_equals_scalar_pairs(self, seed, kinds, n):
        data = _columns(seed, kinds, n)
        fast = mic_matrix_fast(data)
        m = data.shape[1]
        for i in range(m):
            for j in range(i + 1, m):
                assert fast[i, j] == mic(data[:, i], data[:, j])


class TestScalarAgainstReference:
    @given(st.integers(0, 2**31 - 1), _KIND, _KIND, _SIZES)
    @settings(max_examples=25, deadline=None)
    def test_pair_within_1e9(self, seed, kind_x, kind_y, n):
        data = _columns(seed, [kind_x, kind_y], n)
        x, y = data[:, 0], data[:, 1]
        assert mic(x, y) == pytest.approx(mic_reference(x, y), abs=1e-9)

    @given(st.integers(0, 2**31 - 1), _SIZES)
    @settings(max_examples=10, deadline=None)
    def test_heavily_tied_pair_within_1e9(self, seed, n):
        r = np.random.default_rng(seed)
        x = r.choice([0.0, 1.0], size=n, p=[0.9, 0.1])
        y = r.choice([0.0, 1.0, 2.0], size=n)
        assert mic(x, y) == pytest.approx(mic_reference(x, y), abs=1e-9)


class TestSingleSuperclumpItems:
    """Items the superclump walk coarsens to one column score nothing.

    When a tie group covers most of the x axis, every clump before it can
    fall inside the first superclump's target and the walk closes a single
    superclump over the whole axis.  Such an item has no grid of two or
    more columns; the pair's MIC comes from its other items, as in the
    reference.
    """

    def test_clumps_factor_one_on_a_pipeline_window(self):
        from repro.stats.mic import MICParameters

        params = MICParameters(clumps_factor=1)
        x = np.array([1.0, 2.0, 3.0] + [4.0] * 27)
        y = np.random.default_rng(3).normal(size=30)
        expected = mic_reference(x, y, params)
        assert mic(x, y, params) == pytest.approx(expected, abs=1e-9)
        assert mic(y, x, params) == mic(x, y, params)
        fast = mic_matrix_fast(np.column_stack((x, y)), params)
        assert fast[0, 1] == mic(x, y, params)

    def test_default_params_with_a_tail_tied_column(self):
        n = 1000
        x = np.concatenate((np.arange(32.0), np.full(n - 32, 100.0)))
        y = np.random.default_rng(4).normal(size=n)
        assert mic(x, y) == pytest.approx(mic_reference(x, y), abs=1e-9)
        assert mic_matrix_fast(np.column_stack((x, y)))[0, 1] == mic(x, y)
