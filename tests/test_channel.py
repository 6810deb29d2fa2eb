"""Channel gains: distances, steering structure, Rician composition, vectorization.

The frozen constants below are hand derivations on the default geometry (UAV at
(200, 50, 70), RIS at (200, 0, 40), one GU at (200, 25, 0)):

    d_ug = sqrt(25^2 + 70^2)      = sqrt(5525) = 74.33034373659252 m
    d_ur = sqrt(50^2 + 30^2)      = sqrt(3400) = 58.309518948453004 m
    d_rg = sqrt(25^2 + 40^2)      = sqrt(2225) = 47.16990566028302 m
    |h_ur| entry = sqrt(0.01)/d_ur             = 1.7149858514250885e-3
"""

import dataclasses

import numpy as np
import pytest

from risuav.channel import (ChannelSet, GeometryError, ScatteringDraw,
                            build_channel_set, channel_uav_gu, channel_uav_ris,
                            distance_3d, effective_channels, instance_terms,
                            ris_gu_block, sample_scattering, steering_vector)
from risuav.scenario import RngStream, default_scenario, with_gu_positions

D_UG = 74.33034373659252
D_UR = 58.309518948453004
D_RG = 47.16990566028302
H_UR_MAG = 1.7149858514250885e-3

GU = (200.0, 25.0)
UAV = (200.0, 50.0)


def channel_ris_gu(scn, k, scatter):
    """Reference formula: the Rician RIS to GU k vector, one GU at a time.

    The LOS part is the GU-side steering response; ris_gu_block must agree.
    """
    gu = scn.gu_array()[k]
    ris = np.asarray(scn.ris_position, dtype=float)
    hnorm = float(np.linalg.norm(gu - ris))
    if hnorm == 0.0:
        raise GeometryError(f"GU {k} horizontally coincident with the RIS")
    d = float(np.hypot(hnorm, scn.ris_altitude))
    phi = (gu[1] - ris[1]) / hnorm
    varphi = (gu[0] - ris[0]) / hnorm
    psi = scn.ris_altitude / d
    los = steering_vector(scn.ris_rows, scn.ris_cols, scn.row_spacing, scn.col_spacing,
                          scn.wavelength, phi, varphi, psi)
    amp = np.sqrt(scn.ref_path_loss / d ** scn.pathloss_exp_rg)
    kap = scn.rician_rg
    los_w = np.sqrt(kap / (kap + 1.0))
    sc_w = np.sqrt(1.0 / (kap + 1.0))
    return amp * (los_w * los + sc_w * scatter.ris_gu[k])


def effective_channel(h_ug, h_rg, h_ur, theta, x):
    """Reference formula: one GU's effective gain, direct plus phase-shifted reflection.

    C = h_ug + sum_m conj(h_rg[m]) * x[m] * exp(j*theta[m]) * h_ur[m];
    effective_channels must agree for every GU.
    """
    h_rg = np.asarray(h_rg)
    h_ur = np.asarray(h_ur)
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    m = h_rg.shape[-1] if h_rg.ndim else 0
    if not (h_ur.shape[-1] == theta.shape[-1] == x.shape[-1] == m):
        raise ValueError(
            f"length mismatch: h_rg {h_rg.shape}, h_ur {h_ur.shape}, "
            f"theta {theta.shape}, x {x.shape}")
    if m and not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("on-off entries must be 0 or 1")
    return complex(h_ug + np.sum(np.conj(h_rg) * x * np.exp(1j * theta) * h_ur))


def one_gu_scenario():
    return with_gu_positions(default_scenario(), [GU])


def zero_scatter(k, m):
    return ScatteringDraw(direct=np.zeros(k, dtype=complex),
                          ris_gu=np.zeros((k, m), dtype=complex))


def test_distance_vertical_only():
    assert distance_3d((5.0, 5.0), 70.0, (5.0, 5.0), 0.0) == 70.0


def test_distance_coincident_points():
    assert distance_3d((1.0, 2.0), 40.0, (1.0, 2.0), 40.0) == 0.0


def test_hand_derived_distances():
    scn = one_gu_scenario()
    assert distance_3d(UAV, scn.uav_altitude, GU, 0.0) == pytest.approx(D_UG, rel=1e-12)
    assert distance_3d(UAV, scn.uav_altitude, scn.ris_position,
                       scn.ris_altitude) == pytest.approx(D_UR, rel=1e-12)
    assert distance_3d(scn.ris_position, scn.ris_altitude, GU,
                       0.0) == pytest.approx(D_RG, rel=1e-12)


def test_steering_single_element_is_one():
    sv = steering_vector(1, 1, 0.05, 0.05, 0.1, 0.3, -0.2, 0.9)
    np.testing.assert_allclose(sv, [1.0 + 0.0j])


def test_steering_dimension_and_unimodularity():
    sv = steering_vector(3, 4, 0.05, 0.05, 0.1, 0.5, 0.5, 0.7)
    assert sv.shape == (12,)
    np.testing.assert_allclose(np.abs(sv), 1.0, rtol=1e-12)


def test_steering_kron_order_row_major():
    d_r, d_c, lam = 0.05, 0.07, 0.1
    phi, varphi, psi = 0.4, -0.3, 0.8
    sv = steering_vector(2, 3, d_r, d_c, lam, phi, varphi, psi)
    row = np.exp(-1j * 2 * np.pi * (d_r / lam) * np.arange(2) * phi * psi)
    col = np.exp(-1j * 2 * np.pi * (d_c / lam) * np.arange(3) * varphi * psi)
    for i in range(6):
        assert sv[i] == pytest.approx(row[i // 3] * col[i % 3], rel=1e-12)


def test_steering_rejects_bad_direction_cosine():
    with pytest.raises(ValueError, match="phi"):
        steering_vector(2, 2, 0.05, 0.05, 0.1, 1.5, 0.0, 0.5)


def test_uav_ris_entry_magnitude():
    scn = one_gu_scenario()
    h = channel_uav_ris(scn, UAV)
    assert h.shape == (60,)
    np.testing.assert_allclose(np.abs(h), H_UR_MAG, rtol=1e-12)


def test_uav_ris_single_element_collapses_to_path_loss():
    scn = dataclasses.replace(one_gu_scenario(), ris_rows=1, ris_cols=1)
    h = channel_uav_ris(scn, UAV)
    assert h.shape == (1,)
    assert h[0] == pytest.approx(np.sqrt(scn.ref_path_loss) / D_UR, rel=1e-12)


def test_uav_ris_rejects_overhead_uav():
    scn = one_gu_scenario()
    with pytest.raises(GeometryError):
        channel_uav_ris(scn, scn.ris_position)


def test_direct_link_zero_scatter_weight():
    # UAV directly above the GU at altitude 100 puts the link at d = 100 m exactly.
    scn = dataclasses.replace(one_gu_scenario(), uav_altitude=100.0)
    h = channel_uav_gu(scn, GU, 0, zero_scatter(1, 60))
    expect = np.sqrt(scn.ref_path_loss / 100.0 ** 3) * np.sqrt(2.0 / 3.0)
    assert h == pytest.approx(expect, rel=1e-12)
    assert h.imag == 0.0
    assert h.real == pytest.approx(8.164965809277261e-5, rel=1e-12)


def test_direct_link_large_rician_factor_limit():
    scn = dataclasses.replace(one_gu_scenario(), rician_ug=1.0e12)
    scatter = ScatteringDraw(direct=np.array([0.7 + 0.3j]),
                             ris_gu=np.zeros((1, 60), dtype=complex))
    h = channel_uav_gu(scn, UAV, 0, scatter)
    amp = np.sqrt(scn.ref_path_loss / D_UG ** 3)
    assert h == pytest.approx(amp, rel=1e-5)


def test_ris_gu_zero_scatter_equal_magnitudes():
    scn = one_gu_scenario()
    amp = np.sqrt(scn.ref_path_loss / D_RG ** 2.4) * np.sqrt(2.0 / 3.0)
    for h in (channel_ris_gu(scn, 0, zero_scatter(1, 60)),
              ris_gu_block(scn, zero_scatter(1, 60))[0]):
        np.testing.assert_allclose(np.abs(h), amp, rtol=1e-12)


def test_rician_weights_preserve_power():
    # kappa = 2 splits LOS and scatter as sqrt(2/3) and sqrt(1/3); weights
    # squared must sum to one so the Rician mix never rescales link power.
    kap = default_scenario().rician_rg
    los_w, sc_w = np.sqrt(kap / (kap + 1)), np.sqrt(1 / (kap + 1))
    assert los_w ** 2 + sc_w ** 2 == pytest.approx(1.0, rel=1e-15)
    assert los_w == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)


def test_effective_channel_all_off_is_direct():
    h_rg = np.array([0.3 + 1j, -0.2j, 0.5 + 0.5j])
    h_ur = np.array([1.0, 0.7j, -0.1 + 0.2j])
    theta = np.array([0.3, 1.0, 2.0])
    c = effective_channel(0.4 - 0.1j, h_rg, h_ur, theta, np.zeros(3))
    assert c == pytest.approx(0.4 - 0.1j)
    cs = ChannelSet(direct=np.array([0.4 - 0.1j]), uav_ris=h_ur, ris_gu=h_rg[None, :],
                    ris_gu_conj=np.conj(h_rg)[None, :])
    assert effective_channels(cs, theta, np.zeros(3))[0] == pytest.approx(0.4 - 0.1j)


def test_effective_channel_single_element_expansion():
    h_ug, h_rg, h_ur, th = 0.2 + 0.1j, 0.5 - 0.3j, -0.4 + 0.8j, 1.3
    c = effective_channel(h_ug, np.array([h_rg]), np.array([h_ur]),
                          np.array([th]), np.array([1.0]))
    expect = h_ug + np.conj(h_rg) * np.exp(1j * th) * h_ur
    assert c == pytest.approx(expect)
    cs = ChannelSet(direct=np.array([h_ug]), uav_ris=np.array([h_ur]),
                    ris_gu=np.array([[h_rg]]), ris_gu_conj=np.array([[np.conj(h_rg)]]))
    assert effective_channels(cs, np.array([th]), np.array([1.0]))[0] == pytest.approx(expect)


def test_effective_channel_validates_inputs():
    with pytest.raises(ValueError, match="length mismatch"):
        effective_channel(0j, np.ones(3), np.ones(2), np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="0 or 1"):
        effective_channel(0j, np.ones(2), np.ones(2), np.zeros(2),
                          np.array([0.5, 1.0]))


def test_build_channel_set_matches_per_link_functions():
    scn = with_gu_positions(default_scenario(),
                            [(190.0, 20.0), (212.0, 35.0), (201.0, 12.0)])
    scatter = sample_scattering(RngStream(5, "scatter"), 3, 60)
    cs = build_channel_set(scn, UAV, instance_terms(scn, scatter))
    for k in range(3):
        assert cs.direct[k] == pytest.approx(channel_uav_gu(scn, UAV, k, scatter),
                                             rel=1e-12)
        np.testing.assert_allclose(cs.ris_gu[k], channel_ris_gu(scn, k, scatter),
                                   rtol=1e-12)
    np.testing.assert_allclose(cs.uav_ris, channel_uav_ris(scn, UAV), rtol=1e-12)


def test_build_channel_set_reuses_cached_block():
    scn = with_gu_positions(default_scenario(), [(190.0, 20.0), (212.0, 35.0)])
    scatter = sample_scattering(RngStream(2, "scatter"), 2, 60)
    terms = instance_terms(scn, scatter)
    assert np.array_equal(terms.ris_gu, ris_gu_block(scn, scatter))
    assert np.array_equal(terms.ris_gu_conj, np.conj(terms.ris_gu))
    cs = build_channel_set(scn, UAV, terms)
    assert cs.ris_gu is terms.ris_gu and cs.ris_gu_conj is terms.ris_gu_conj
    fresh = build_channel_set(scn, UAV, instance_terms(scn, scatter))
    for name in ("direct", "uav_ris", "ris_gu", "ris_gu_conj"):
        assert np.array_equal(getattr(cs, name), getattr(fresh, name))


def test_effective_channels_matches_scalar_composition():
    scn = with_gu_positions(default_scenario(), [(195.0, 30.0), (208.0, 18.0)])
    scatter = sample_scattering(RngStream(9, "scatter"), 2, 60)
    cs = build_channel_set(scn, UAV, instance_terms(scn, scatter))
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, 60)
    x = rng.integers(0, 2, 60).astype(float)
    vec = effective_channels(cs, theta, x)
    for k in range(2):
        scalar = effective_channel(cs.direct[k], cs.ris_gu[k], cs.uav_ris, theta, x)
        assert vec[k] == pytest.approx(scalar, rel=1e-12)


def test_sample_scattering_deterministic_and_normalized():
    a = sample_scattering(RngStream(4, "scatter"), 3, 40)
    b = sample_scattering(RngStream(4, "scatter"), 3, 40)
    np.testing.assert_array_equal(a.direct, b.direct)
    np.testing.assert_array_equal(a.ris_gu, b.ris_gu)
    big = sample_scattering(RngStream(4, "scatter"), 10, 2000)
    var = np.mean(np.abs(big.ris_gu) ** 2)
    assert var == pytest.approx(1.0, rel=0.05)


# ---------------------------------------------------------------------------
# Batches of UAV positions: each row must get the bits it gets alone
# ---------------------------------------------------------------------------

def batch_instance(rows, cols, k=4, seed=3):
    scn = dataclasses.replace(
        with_gu_positions(default_scenario(),
                          [(190.0, 15.0), (205.0, 30.0), (212.0, 22.0), (198.0, 38.0)][:k]),
        ris_rows=rows, ris_cols=cols)
    scatter = sample_scattering(RngStream(seed, "scatter"), k, rows * cols)
    return scn, scatter


def uav_batch(n, seed=0):
    """n UAV positions around the users, plus the Adam stencil of the first one."""
    rng = np.random.default_rng(seed)
    w = np.column_stack([rng.uniform(150.0, 250.0, n), rng.uniform(-40.0, 90.0, n)])
    h = 0.5
    stencil = w[0] + np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    return np.vstack([w, stencil])


def ref_channel_uav_ris(scn, w):
    """One position at a time, with the norm of one vector (a BLAS dot product)."""
    ris = np.asarray(scn.ris_position, dtype=float)
    hnorm = float(np.linalg.norm(ris - w))
    d = float(np.hypot(hnorm, scn.uav_altitude - scn.ris_altitude))
    sv = steering_vector(scn.ris_rows, scn.ris_cols, scn.row_spacing, scn.col_spacing,
                         scn.wavelength, (w[1] - ris[1]) / hnorm, (ris[0] - w[0]) / hnorm,
                         (scn.uav_altitude - scn.ris_altitude) / d)
    return (np.sqrt(scn.ref_path_loss) / d) * sv


@pytest.mark.parametrize("rows,cols", [(1, 2), (6, 10), (12, 20)])
def test_channel_uav_ris_batch_matches_per_point_loop(rows, cols):
    scn, _ = batch_instance(rows, cols)
    w = uav_batch(40)
    batch = channel_uav_ris(scn, w)
    assert batch.shape == (len(w), rows * cols)
    for i, point in enumerate(w):
        assert np.array_equal(batch[i], channel_uav_ris(scn, point))
        assert np.array_equal(batch[i], ref_channel_uav_ris(scn, point))
    # Any leading axes, not only one.
    grid = channel_uav_ris(scn, w[:12].reshape(3, 4, 2))
    assert np.array_equal(grid.reshape(12, -1), batch[:12])


@pytest.mark.parametrize("rows,cols", [(1, 2), (6, 10), (12, 20)])
def test_build_channel_set_batch_matches_per_point_loop(rows, cols):
    scn, scatter = batch_instance(rows, cols)
    terms = instance_terms(scn, scatter)
    cached = terms.ris_gu
    w = uav_batch(40, seed=1)
    batch = build_channel_set(scn, w, terms)
    assert batch.direct.shape == (len(w), scn.num_gus)
    assert batch.uav_ris.shape == (len(w), rows * cols)
    assert batch.ris_gu is cached
    assert np.array_equal(batch.cascade, np.conj(cached) * batch.uav_ris[..., None, :])
    rng = np.random.default_rng(rows)
    theta = rng.uniform(0.0, 2.0 * np.pi, rows * cols)
    x = rng.integers(0, 2, rows * cols).astype(float)
    c_batch = effective_channels(batch, theta, x)
    assert c_batch.shape == (len(w), scn.num_gus)
    # A batch of exactly K positions must not pair GU k with position k.
    c_square = effective_channels(build_channel_set(scn, w[:scn.num_gus], terms), theta, x)
    assert np.array_equal(c_square, c_batch[:scn.num_gus])
    for i, point in enumerate(w):
        one = build_channel_set(scn, point, terms)
        assert np.array_equal(batch.direct[i], one.direct)
        assert np.array_equal(batch.uav_ris[i], one.uav_ris)
        assert np.array_equal(one.cascade, np.conj(cached) * one.uav_ris[None, :])
        assert np.array_equal(c_batch[i], effective_channels(one, theta, x))


def test_steering_vector_broadcasts_over_directions():
    rng = np.random.default_rng(4)
    phi, varphi = rng.uniform(-1.0, 1.0, (2, 9))
    psi = rng.uniform(0.1, 1.0, 9)
    batch = steering_vector(3, 4, 0.05, 0.05, 0.1, phi, varphi, psi)
    assert batch.shape == (9, 12)
    for i in range(9):
        assert np.array_equal(batch[i], steering_vector(3, 4, 0.05, 0.05, 0.1,
                                                        phi[i], varphi[i], psi[i]))


def test_steering_vector_batch_rejects_one_bad_direction_cosine():
    varphi = np.array([0.2, -0.4, 1.0 + 1.0e-6])
    with pytest.raises(ValueError, match="varphi"):
        steering_vector(2, 2, 0.05, 0.05, 0.1, np.zeros(3), varphi, np.full(3, 0.5))


def test_batch_with_one_uav_over_the_ris_raises():
    scn, scatter = batch_instance(6, 10)
    w = uav_batch(5)
    w[3] = scn.ris_position
    with pytest.raises(GeometryError):
        channel_uav_ris(scn, w)
    with pytest.raises(GeometryError):
        build_channel_set(scn, w, instance_terms(scn, scatter))
