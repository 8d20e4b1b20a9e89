"""The orbit SVG writer: its points text against Python's "%.2f,%.2f" on
every kind of input, and the document's stride, bounds and title."""

import re
import warnings
from xml.dom import minidom

import numpy as np
import pytest

from frachp import svgplot
from frachp.svgplot import MAX_POINTS, _points, orbit_svg

# Every half cent below 1000.00, as the nearest double.
TIES = (np.arange(100_000) + 0.5) / 100


def percent(px, py) -> str:
    """The points text formatted pair by pair with Python's `%`."""
    return " ".join("%.2f,%.2f" % xy
                    for xy in zip(np.asarray(px).tolist(),
                                  np.asarray(py).tolist()))


def check(values) -> None:
    """_points on the interleaved values gives the bytes of `%`."""
    v = np.asarray(values, dtype=float)
    assert _points(v[0::2], v[1::2]) == percent(v[0::2], v[1::2])


def ulps_away(v, k: int) -> np.ndarray:
    """v moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        v = np.nextafter(v, np.inf if k > 0 else -np.inf)
    return v


def points_of(doc: str) -> str:
    return re.search(r'points="([^"]*)"', doc).group(1)


class TestPointsText:
    def test_random_pixels(self):
        rng = np.random.default_rng(2501)
        check(rng.uniform(0.0, 640.0, 40_000))
        check(rng.uniform(0.0, 1000.0, 40_000))
        check(rng.uniform(0.0, 0.01, 4_000))

    def test_exact_cents(self):
        check(np.arange(100_000) / 100)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_half_cent_ties_in_one_call(self, k):
        check(ulps_away(TIES, k))

    @pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
    def test_half_cent_ties_one_pair_at_a_time(self, k):
        # One pair per call, so that a tie sends only its own pair to `%`
        # and its neighbours take the numpy path where they can.
        sample = np.random.default_rng(2502).choice(TIES, 300, replace=False)
        for t in ulps_away(sample, k).tolist():
            check([t, 320.0])
            check([320.0, t])

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, 1e-300, 0.001, 0.0049999999999999, 0.005,
        0.0050000000000001, 9.995, 99.995, 999.99, 999.994999, 999.995,
        999.999, 1000.0, 1e300, -0.001, -1.0, np.nan, np.inf, -np.inf])
    def test_edge_values(self, value):
        check([value, 320.0])
        check([320.0, value])
        check([value, value])

    def test_no_points(self):
        assert _points(np.empty(0), np.empty(0)) == ""


@pytest.fixture
def seen(monkeypatch):
    """The (px, py) of every _points call orbit_svg makes."""
    calls = []

    def spy(px, py):
        calls.append((px, py))
        return _points(px, py)

    monkeypatch.setattr(svgplot, "_points", spy)
    return calls


class TestOrbitSvg:
    def test_orbit_points(self, seen):
        t = np.linspace(0.0, 20.0, 7001)
        doc = orbit_svg(np.cos(t) * t, np.sin(3 * t))
        (px, py), = seen
        assert px.size == 7001
        assert points_of(doc) == percent(px, py)

    def test_non_finite_data_without_warning(self, seen):
        xs = [0.0, 1.0, np.nan, 2.0, np.inf, 3.0, -np.inf]
        ys = [1.0, np.inf, 2.0, -np.inf, 0.5, np.nan, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = orbit_svg(xs, ys)
        (px, py), = seen
        assert points_of(doc) == percent(px, py)
        assert {"nan", "inf", "-inf"} <= set(re.split("[ ,]",
                                                      points_of(doc)))

    def test_constant_data(self):
        doc = orbit_svg(np.full(5, 2.0), np.zeros(5))
        assert "x in [1, 3]; y in [-1, 1]" in doc
        assert points_of(doc) == " ".join(["320.00,260.00"] * 5)

    def test_long_path_is_strided(self, seen):
        n = MAX_POINTS + 1
        xs = np.linspace(-1.0, 1.0, n)
        doc = orbit_svg(xs, xs ** 2)
        (px, py), = seen
        assert "<!-- stride=2;" in doc
        assert px.size == (n + 1) // 2
        assert points_of(doc) == percent(px, py)
        assert points_of(doc).split()[-1] == "600.00,40.00"

    def test_title_is_escaped(self):
        title = "a<b & c>d"
        doc = orbit_svg([0.0, 1.0], [1.0, 0.0], title=title)
        assert "a&lt;b &amp; c&gt;d" in doc
        (text,) = minidom.parseString(doc).getElementsByTagName("text")
        assert text.firstChild.data == title
