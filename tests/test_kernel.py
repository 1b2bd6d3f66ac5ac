import json
import math

import numpy as np
import pytest

from vcterm import DEFAULT_KERNEL, kernel_eval, kernel_moments
from vcterm.cli import main
from vcterm.kernel import Kernel

import oracles

# closed forms for the truncated bivariate normal, frozen up front
RADIUS_SQ = 5.991464547107979
VALUE_AT_ORIGIN = 0.16753151904410035
MU0 = 0.08795404749815268
MU2_DIAG = 0.8423298803392634


def test_radius_matches_chi2_quantile():
    assert DEFAULT_KERNEL.truncation_radius ** 2 == pytest.approx(
        oracles.RADIUS_SQ, abs=1e-12)
    assert DEFAULT_KERNEL.truncation_radius ** 2 == pytest.approx(
        RADIUS_SQ, abs=1e-12)


def test_value_at_origin():
    assert kernel_eval(DEFAULT_KERNEL, 0.0, 0.0) == pytest.approx(
        VALUE_AT_ORIGIN, abs=1e-15)


def test_matches_scalar_oracle_on_random_points():
    rng = np.random.default_rng(7)
    u = rng.uniform(-3.5, 3.5, size=200)
    v = rng.uniform(-3.5, 3.5, size=200)
    got = kernel_eval(DEFAULT_KERNEL, u, v)
    want = np.array([oracles.kernel_scalar(a, b) for a, b in zip(u, v)])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_truncation_boundary():
    r = DEFAULT_KERNEL.truncation_radius
    inside = kernel_eval(DEFAULT_KERNEL, r - 1e-9, 0.0)
    outside = kernel_eval(DEFAULT_KERNEL, r + 1e-9, 0.0)
    assert inside > 0.0
    assert outside == 0.0


def test_scalar_input_returns_float():
    out = kernel_eval(DEFAULT_KERNEL, 0.1, -0.2)
    assert isinstance(out, float)


def test_moments_mass_and_symmetry():
    m = kernel_moments(DEFAULT_KERNEL)
    assert m.mass == pytest.approx(1.0, abs=1e-12)
    assert m.mu1[0] == pytest.approx(0.0, abs=1e-14)
    assert m.mu1[1] == pytest.approx(0.0, abs=1e-14)
    assert m.mu2[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert m.mu2[1, 0] == pytest.approx(0.0, abs=1e-14)


def test_moments_closed_forms():
    m = kernel_moments(DEFAULT_KERNEL)
    assert m.mu0 == pytest.approx(MU0, abs=1e-12)
    assert m.mu2[0, 0] == pytest.approx(MU2_DIAG, abs=1e-12)
    assert m.mu2[1, 1] == pytest.approx(MU2_DIAG, abs=1e-12)


def test_default_normalizer_value():
    # 1 / 0.95 exactly, since the Gaussian mass inside the radius is 0.95
    assert DEFAULT_KERNEL.normalizer == pytest.approx(1.0 / 0.95, rel=1e-12)


def test_moments_quadrature_floor():
    with pytest.raises(ValueError):
        kernel_moments(DEFAULT_KERNEL, quadrature_n=32)


def test_moments_quadrature_ceiling(capsys):
    """The rule's cost grows as n^3 in time and n^2 in memory; past 2048 it is refused."""
    with pytest.raises(ValueError, match="^quadrature_n must be from 64 to 2048 per axis$"):
        kernel_moments(DEFAULT_KERNEL, quadrature_n=2049)
    assert main(["kernel-moments", "--quadrature-n", "2049"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "quadrature_n must be from 64 to 2048 per axis", "code": 2}


def _where_formula(kernel, u, v):
    """kernel_eval as first written: np.where over the whole density."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rsq = u * u + v * v
    density = kernel.normalizer * np.exp(-0.5 * rsq) / (2.0 * math.pi)
    out = np.where(rsq <= kernel.truncation_radius**2, density, 0.0)
    return float(out) if out.ndim == 0 else out


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("kernel", [DEFAULT_KERNEL, Kernel(truncation_radius=1.5, normalizer=3.0)])
def test_kernel_eval_equals_the_where_formula_bit_for_bit(kernel):
    rng = np.random.default_rng(17)
    u = rng.normal(scale=2.0, size=(12, 40))
    v = rng.normal(scale=2.0, size=(12, 40))
    for a, b in [(u, v), (u, v[0]), (0.25, v), (u[0, 0], v[0, 0])]:
        assert _bits(kernel_eval(kernel, a, b)) == _bits(_where_formula(kernel, a, b))
    # offsets exactly on the truncation circle, where the disk test is decided by <=
    r2 = kernel.truncation_radius**2
    angle = rng.uniform(0.0, 2.0 * math.pi, size=20000)
    cu = kernel.truncation_radius * np.cos(angle)
    cv = kernel.truncation_radius * np.sin(angle)
    edge = cu * cu + cv * cv == r2
    cu = np.append(cu[edge], kernel.truncation_radius)
    cv = np.append(cv[edge], 0.0)
    assert cu.size > 100
    got = kernel_eval(kernel, cu, cv)
    assert _bits(got) == _bits(_where_formula(kernel, cu, cv))
    assert (got > 0.0).all()
    out = np.nextafter(cu, 2 * cu)
    assert _bits(kernel_eval(kernel, out, cv)) == _bits(_where_formula(kernel, out, cv))
    # 0-d inputs give a float with the same bits
    for a, b in [(0.0, 0.0), (0.3, -1.1), (kernel.truncation_radius, 0.0), (np.float64(5.0), 0.0)]:
        got = kernel_eval(kernel, a, b)
        assert isinstance(got, float)
        assert _bits(got) == _bits(_where_formula(kernel, a, b))


def test_kernel_eval_leaves_its_inputs_alone():
    u, v = np.array([0.5, 1.0]), np.array([-0.5, 3.0])
    kernel_eval(DEFAULT_KERNEL, u, v)
    assert u.tolist() == [0.5, 1.0] and v.tolist() == [-0.5, 3.0]
