"""Channel gains for the RIS-assisted UAV downlink.

Three links per GU: a Rician direct UAV-GU scalar, a pure-LOS UAV-RIS vector built
from the planar-array steering response, and a Rician RIS-GU vector whose LOS part
is the matching steering response on the GU side. ``effective_channels`` composes
them with the per-element phase shifts and on-off states. Every term that does
not depend on the UAV position is built once per instance (:func:`instance_terms`).

Scattering components are drawn once per run (see :class:`ScatteringDraw`) and held
fixed, so every gain is a deterministic function of the decision variables. That
determinism is what makes finite-difference placement gradients meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import RngStream, Scenario

# Tolerance on direction cosines: absorbs roundoff in ratios of distances.
_COS_TOL = 1.0e-9


class GeometryError(ValueError):
    """Node geometry makes a path loss or steering angle undefined."""


def distance_3d(a_horizontal, a_alt: float, b_horizontal, b_alt: float) -> float:
    """Euclidean distance between two points given horizontally plus altitude."""
    a = np.asarray(a_horizontal, dtype=float)
    b = np.asarray(b_horizontal, dtype=float)
    dz = float(a_alt) - float(b_alt)
    return float(np.sqrt(np.sum((a - b) ** 2) + dz * dz))


def _planar_response(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Element responses in Kronecker order (row factor first) over the last axis.

    row (..., m_r) and col (..., m_c) are the per-axis phase ramps; entry
    i*m_c + j of the result is row[i]*col[j].
    """
    return (row[..., :, None] * col[..., None, :]).reshape(row.shape[:-1] + (-1,))


def _ramp(m: int, spacing: float, wavelength: float) -> np.ndarray:
    """(m,) phase-ramp prefix -2j*pi*(d/lambda)*n of one array axis, before the direction."""
    return (-1j * 2.0 * np.pi * (spacing / wavelength)) * np.arange(m)


def _steer(row_ramp: np.ndarray, col_ramp: np.ndarray, phi, varphi, psi) -> np.ndarray:
    """steering_vector from the two axes' ramp prefixes (see :func:`_ramp`)."""
    for name, val in (("phi", phi), ("varphi", varphi), ("psi", psi)):
        if (np.abs(val) > 1.0 + _COS_TOL).any():
            raise ValueError(f"direction component {name}={val} outside [-1, 1]")
    phi, varphi, psi = (np.asarray(a, dtype=float)[..., None] for a in (phi, varphi, psi))
    return _planar_response(np.exp(row_ramp * phi * psi), np.exp(col_ramp * varphi * psi))


def steering_vector(m_r: int, m_c: int, d_r: float, d_c: float, wavelength: float,
                    phi, varphi, psi) -> np.ndarray:
    """Planar-array response, length m_r*m_c, row factor first in the Kronecker order.

    phi, varphi, psi are direction sines/cosines and must lie in [-1, 1] up to
    roundoff. They may be arrays that broadcast together to shape (...,); the
    result is then (..., m_r*m_c), one response per direction. Every entry has
    magnitude 1.
    """
    return _steer(_ramp(m_r, d_r, wavelength), _ramp(m_c, d_c, wavelength), phi, varphi, psi)


@dataclass(frozen=True)
class ScatteringDraw:
    """Frozen scattering components for one run.

    direct: (K,) complex, the non-LOS part of each UAV-GU link.
    ris_gu: (K, M) complex, the non-LOS part of each RIS-GU link.
    All entries are standard circularly-symmetric complex Gaussians (variance 1,
    split evenly between real and imaginary parts).
    """

    direct: np.ndarray
    ris_gu: np.ndarray


def sample_scattering(rng: RngStream, num_gus: int, num_elements: int) -> ScatteringDraw:
    """Draw one ScatteringDraw for num_gus GUs and num_elements elements from the
    start of rng: the direct parts first, then the (K, M) RIS-GU parts."""
    gen = rng.generator()
    scale = np.sqrt(0.5)
    direct = scale * (gen.standard_normal(num_gus) + 1j * gen.standard_normal(num_gus))
    ris = scale * (gen.standard_normal((num_gus, num_elements))
                   + 1j * gen.standard_normal((num_gus, num_elements)))
    return ScatteringDraw(direct=direct, ris_gu=ris)


@dataclass(frozen=True)
class ChannelSet:
    """All channel gains for one UAV position, or for a batch of them.

    direct: (..., K) complex UAV-GU scalars; uav_ris: (..., M) complex; ris_gu:
    (K, M) complex and ris_gu_conj its conjugate. The leading axes are those of
    the UAV positions, none for one position. ris_gu does not depend on the UAV
    position; both blocks come from the instance's :class:`InstanceTerms`.
    """

    direct: np.ndarray
    uav_ris: np.ndarray
    ris_gu: np.ndarray
    ris_gu_conj: np.ndarray

    @property
    def cascade(self) -> np.ndarray:
        """(..., K, M) reflected paths UAV -> element m -> GU k, before x and theta."""
        return self.ris_gu_conj * self.uav_ris[..., None, :]

    def effective(self, weights: np.ndarray) -> np.ndarray:
        """(..., K) effective gains for element weights x*exp(j*theta) (see
        :func:`reflection_weights`)."""
        return self.direct + self.cascade @ weights


@dataclass(frozen=True)
class InstanceTerms:
    """The parts of :func:`build_channel_set` that do not depend on the UAV position.

    gus (K, 2) and ris (2,) are the positions; direct_mix (K,) is the Rician mix
    sqrt(k/(k+1)) + sqrt(1/(k+1))*scatter.direct that the UAV-GU amplitude scales;
    row_ramp (M_r,) and col_ramp (M_c,) are the UAV-side steering ramp prefixes;
    ris_gu (K, M) is :func:`ris_gu_block`, checked finite once, and ris_gu_conj its
    conjugate, taken nowhere else. Build them with :func:`instance_terms`, once per run.
    """

    gus: np.ndarray
    ris: np.ndarray
    direct_mix: np.ndarray
    row_ramp: np.ndarray
    col_ramp: np.ndarray
    ris_gu: np.ndarray
    ris_gu_conj: np.ndarray


def instance_terms(scn: Scenario, scatter: ScatteringDraw) -> InstanceTerms:
    """Every UAV-position-independent term of the channels of (scn, scatter)."""
    ris_gu = ris_gu_block(scn, scatter)
    if not np.isfinite(ris_gu).all():
        raise GeometryError("non-finite channel gain")
    kap = scn.rician_ug
    return InstanceTerms(
        gus=scn.gu_array(), ris=np.asarray(scn.ris_position, dtype=float),
        direct_mix=np.sqrt(kap / (kap + 1.0)) + np.sqrt(1.0 / (kap + 1.0)) * scatter.direct,
        row_ramp=_ramp(scn.ris_rows, scn.row_spacing, scn.wavelength),
        col_ramp=_ramp(scn.ris_cols, scn.col_spacing, scn.wavelength),
        ris_gu=ris_gu, ris_gu_conj=np.conj(ris_gu))


def channel_uav_gu(scn: Scenario, w_u, k: int, scatter: ScatteringDraw) -> complex:
    """Rician direct link to GU k. The LOS term is the constant 1, no phase ramp."""
    gu = scn.gu_array()[k]
    d = distance_3d(w_u, scn.uav_altitude, gu, 0.0)
    if d == 0.0:
        raise GeometryError(f"UAV coincides with GU {k}")
    amp = np.sqrt(scn.ref_path_loss / d ** scn.pathloss_exp_ug)
    kap = scn.rician_ug
    los_w = np.sqrt(kap / (kap + 1.0))
    sc_w = np.sqrt(1.0 / (kap + 1.0))
    return complex(amp * (los_w + sc_w * scatter.direct[k]))


def channel_uav_ris(scn: Scenario, w_u) -> np.ndarray:
    """Pure-LOS UAV to RIS vector, free-space exponent 2.

    w_u is one horizontal position (2,) or a batch (..., 2); returns (..., M).
    """
    return _uav_ris(scn, np.asarray(w_u, dtype=float), np.asarray(scn.ris_position, dtype=float),
                    _ramp(scn.ris_rows, scn.row_spacing, scn.wavelength),
                    _ramp(scn.ris_cols, scn.col_spacing, scn.wavelength))


def _uav_ris(scn: Scenario, w: np.ndarray, ris: np.ndarray, row_ramp: np.ndarray,
             col_ramp: np.ndarray) -> np.ndarray:
    """channel_uav_ris from the RIS position and the steering ramp prefixes."""
    d_h = ris - w
    # A dot product per position: the same bits as np.linalg.norm of one vector.
    hnorm = np.sqrt((d_h[..., None, :] @ d_h[..., :, None])[..., 0, 0])
    if (hnorm == 0.0).any():
        raise GeometryError("UAV horizontally coincident with the RIS")
    d = np.hypot(hnorm, scn.uav_altitude - scn.ris_altitude)
    phi = (w[..., 1] - ris[1]) / hnorm
    varphi = d_h[..., 0] / hnorm
    psi = (scn.uav_altitude - scn.ris_altitude) / d
    sv = _steer(row_ramp, col_ramp, phi, varphi, psi)
    return (np.sqrt(scn.ref_path_loss) / d)[..., None] * sv


def build_channel_set(scn: Scenario, w_u, terms: InstanceTerms) -> ChannelSet:
    """All gains for one UAV position (2,) or a batch of them (..., 2), vectorized over GUs.

    terms is the instance's :func:`instance_terms`, built once per run; only
    the links that depend on w_u are built here. Agrees with the per-link
    functions entrywise, and each position of a batch gets the same bits as it
    would alone.
    """
    w = np.asarray(w_u, dtype=float)

    dvec = terms.gus - w[..., None, :]
    d_ug = np.sqrt((dvec ** 2).sum(axis=-1) + scn.uav_altitude ** 2)
    if (d_ug == 0.0).any():
        raise GeometryError("UAV coincides with a GU")
    direct = np.sqrt(scn.ref_path_loss / d_ug ** scn.pathloss_exp_ug) * terms.direct_mix
    uav_ris = _uav_ris(scn, w, terms.ris, terms.row_ramp, terms.col_ramp)
    # ris_gu was checked once, in instance_terms.
    if not (np.isfinite(direct).all() and np.isfinite(uav_ris).all()):
        raise GeometryError("non-finite channel gain")
    return ChannelSet(direct=direct, uav_ris=uav_ris, ris_gu=terms.ris_gu,
                      ris_gu_conj=terms.ris_gu_conj)


def ris_gu_block(scn: Scenario, scatter: ScatteringDraw) -> np.ndarray:
    """(K, M) RIS to GU gains for all GUs at once; UAV-position independent."""
    gus = scn.gu_array()
    ris = np.asarray(scn.ris_position, dtype=float)
    dvec = gus - ris[None, :]
    hnorm = np.linalg.norm(dvec, axis=1)
    if np.any(hnorm == 0.0):
        raise GeometryError("a GU is horizontally coincident with the RIS")
    d = np.hypot(hnorm, scn.ris_altitude)
    phi = dvec[:, 1] / hnorm
    varphi = dvec[:, 0] / hnorm
    psi = scn.ris_altitude / d

    c_row = -1j * 2.0 * np.pi * (scn.row_spacing / scn.wavelength)
    c_col = -1j * 2.0 * np.pi * (scn.col_spacing / scn.wavelength)
    rows = np.exp(c_row * np.outer(phi * psi, np.arange(scn.ris_rows)))    # (K, M_r)
    cols = np.exp(c_col * np.outer(varphi * psi, np.arange(scn.ris_cols)))  # (K, M_c)
    los = _planar_response(rows, cols)

    amp = np.sqrt(scn.ref_path_loss / d ** scn.pathloss_exp_rg)
    kap = scn.rician_rg
    return amp[:, None] * (np.sqrt(kap / (kap + 1.0)) * los
                           + np.sqrt(1.0 / (kap + 1.0)) * scatter.ris_gu)


def reflection_weights(theta, x) -> np.ndarray:
    """(M,) element weights x*exp(j*theta) that multiply the cascade."""
    return np.asarray(x, dtype=float) * np.exp(1j * np.asarray(theta, dtype=float))


def effective_channels(chans: ChannelSet, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., K) effective gains for every GU and every UAV position of chans."""
    return chans.effective(reflection_weights(theta, x))
