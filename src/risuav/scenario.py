"""Problem instances and seeded randomness.

A :class:`Scenario` bundles the geometry, RF constants, and power constants of one
RIS-assisted UAV downlink instance. All values are SI: meters, watts, Hz, bits/s.
:class:`RngStream` derives reproducible, label-separated random substreams from a
single master seed so that every stochastic stage of a run can be replayed exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# GU drop zone: uniform disk, horizontal coordinates in meters.
GU_DISK_CENTER = (200.0, 25.0)
GU_DISK_RADIUS = 20.0


class ScenarioError(ValueError):
    """Invalid scenario field or malformed scenario file."""


def is_integral(value) -> bool:
    """True for an integral number, NumPy integers included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def hover_power(mass_kg: float, gravity: float, prop_radius_m: float,
                num_props: float, air_density: float) -> float:
    """Hovering power sqrt((m*g)^3 / (2*pi*r_p^2*n_p*rho)) in watts."""
    args = {"mass_kg": mass_kg, "gravity": gravity, "prop_radius_m": prop_radius_m,
            "num_props": num_props, "air_density": air_density}
    for name, val in args.items():
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")
    thrust = mass_kg * gravity
    return float(np.sqrt(thrust ** 3 / (2.0 * np.pi * prop_radius_m ** 2
                                        * num_props * air_density)))


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one problem instance.

    GU positions are horizontal coordinates at altitude 0. ``gu_positions`` may be
    None for a template scenario; every evaluation entry point requires it to be
    populated (see :func:`sample_gu_positions` and :func:`with_gu_positions`).
    """

    num_gus: int = 4                                  # K
    gu_positions: tuple[tuple[float, float], ...] | None = None
    ris_position: tuple[float, float] = (200.0, 0.0)  # W_R, m
    ris_altitude: float = 40.0                        # Z_R, m
    uav_altitude: float = 70.0                        # Z_U, m
    uav_initial_position: tuple[float, float] = (200.0, 50.0)
    ris_rows: int = 6                                 # M_r
    ris_cols: int = 10                                # M_c
    row_spacing: float = 0.05                         # d_r, m
    col_spacing: float = 0.05                         # d_c, m
    wavelength: float = 0.1                           # m
    bandwidth: float = 2.0e7                          # Hz
    ref_path_loss: float = 1.0e-2                     # beta_0 at 1 m, linear
    noise_power: float = 5.0e-9                       # sigma^2, W (see README)
    pathloss_exp_ug: float = 3.0
    pathloss_exp_rg: float = 2.4
    rician_ug: float = 2.0                            # kappa, UAV-GU links
    rician_rg: float = 2.0                            # kappa, RIS-GU links
    max_power: float = 1.0                            # P_max, W
    min_rate: float = 100.0                           # R_min per GU, bits/s
    gu_circuit_power: float = 1.0e-3                  # per GU, W
    ru_power: float = 1.0e-3                          # per active RIS element, W
    drone_mass: float = 2.0                           # kg
    gravity: float = 9.8                              # m/s^2
    prop_radius: float = 0.2                          # m
    num_props: int = 4
    air_density: float = 1.225                        # kg/m^3

    @property
    def num_elements(self) -> int:
        return self.ris_rows * self.ris_cols

    @functools.cached_property
    def hover_power(self) -> float:
        """Hovering power of the UAV in watts; not a field, so not serialized."""
        return hover_power(self.drone_mass, self.gravity, self.prop_radius,
                           self.num_props, self.air_density)

    def gu_array(self) -> np.ndarray:
        """GU positions as a (K, 2) float array; raises if unpopulated."""
        if self.gu_positions is None:
            raise ScenarioError("gu_positions is not populated")
        return np.asarray(self.gu_positions, dtype=float)


_INT_FIELDS = ("num_gus", "ris_rows", "ris_cols", "num_props")
_POSITIVE_FIELDS = (
    "ris_altitude", "uav_altitude", "row_spacing", "col_spacing", "wavelength",
    "bandwidth", "ref_path_loss", "noise_power", "pathloss_exp_ug", "pathloss_exp_rg",
    "max_power", "gu_circuit_power", "ru_power", "drone_mass", "gravity",
    "prop_radius", "air_density",
)


def validate(scn: Scenario) -> Scenario:
    """Check scenario invariants; returns the scenario unchanged on success.

    Raises :class:`ScenarioError` naming the offending field.
    """
    for name in _INT_FIELDS:
        value = getattr(scn, name)
        if not is_integral(value) or value < 1:
            raise ScenarioError(f"{name} must be an integer >= 1, got {value!r}")
    for name in _POSITIVE_FIELDS:
        value = getattr(scn, name)
        if not np.isfinite(value) or value <= 0:
            raise ScenarioError(f"{name} must be strictly positive, got {value}")
    for name in ("min_rate", "rician_ug", "rician_rg"):
        value = getattr(scn, name)
        if not np.isfinite(value) or value < 0:
            raise ScenarioError(f"{name} must be finite and >= 0, got {value}")
    for name in ("ris_position", "uav_initial_position"):
        pos = getattr(scn, name)
        if len(pos) != 2 or not np.all(np.isfinite(pos)):
            raise ScenarioError(f"{name} must be a finite (x, y) pair, got {pos!r}")
    ris = np.asarray(scn.ris_position, dtype=float)
    # Horizontal coincidence with the RIS makes steering angles undefined.
    if np.linalg.norm(np.asarray(scn.uav_initial_position, dtype=float) - ris) == 0.0:
        raise ScenarioError("uav_initial_position coincides horizontally with ris_position")
    if scn.gu_positions is not None:
        if len(scn.gu_positions) != scn.num_gus:
            raise ScenarioError(
                f"gu_positions has {len(scn.gu_positions)} entries, num_gus is {scn.num_gus}")
        for i, p in enumerate(scn.gu_positions):
            if len(p) != 2 or not np.all(np.isfinite(p)):
                raise ScenarioError(f"gu_positions[{i}] must be a finite (x, y) pair")
            if np.linalg.norm(np.asarray(p, dtype=float) - ris) == 0.0:
                raise ScenarioError(
                    f"gu_positions[{i}] coincides horizontally with ris_position")
    return scn


@functools.cache
def default_scenario() -> Scenario:
    """Scenario populated with the default constants; GU positions left unset.

    Built and validated once: every call returns the same frozen instance, so
    runs that keep their scenario share one copy of it.
    """
    return validate(Scenario())


@dataclass(frozen=True)
class RngStream:
    """A labeled, reproducible random substream of one master seed.

    Identical (master_seed, label) pairs yield bit-identical generators; distinct
    labels give statistically independent substreams. The label is hashed so that
    stream identity does not depend on label length or ordering conventions.
    """

    master_seed: int
    label: str

    def seed_sequence(self) -> np.random.SeedSequence:
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
        return np.random.SeedSequence([int(self.master_seed)] + words)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this substream."""
        return np.random.default_rng(self.seed_sequence())


def sample_gu_positions(rng: RngStream, k: int) -> np.ndarray:
    """Draw k GU positions uniform by area over the drop disk, from the start of rng.

    The disk is GU_DISK_RADIUS around GU_DISK_CENTER. Returns a (k, 2) array.
    Uniformity by area comes from radius = R*sqrt(u).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gen = rng.generator()
    r = GU_DISK_RADIUS * np.sqrt(gen.uniform(size=k))
    ang = gen.uniform(0.0, 2.0 * np.pi, size=k)
    out = np.empty((k, 2), dtype=float)
    out[:, 0] = GU_DISK_CENTER[0] + r * np.cos(ang)
    out[:, 1] = GU_DISK_CENTER[1] + r * np.sin(ang)
    return out


def with_gu_positions(scn: Scenario, positions: Iterable[Iterable[float]]) -> Scenario:
    """Copy of scn with GU positions set (and num_gus matched); validated."""
    pts = tuple((float(x), float(y)) for x, y in positions)
    return validate(dataclasses.replace(scn, gu_positions=pts, num_gus=len(pts)))


def scenario_to_dict(scn: Scenario) -> dict:
    """JSON-ready dict with exactly the Scenario field names."""
    d = dataclasses.asdict(scn)
    if d["gu_positions"] is not None:
        d["gu_positions"] = [list(p) for p in d["gu_positions"]]
    d["ris_position"] = list(d["ris_position"])
    d["uav_initial_position"] = list(d["uav_initial_position"])
    return d


def _number(name: str, value) -> float:
    """value as a float; bools, strings, null and other non-numbers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    return float(value)


def _pair(name: str, value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{name} must be an (x, y) pair of numbers, got {value!r}")
    return (_number(name, value[0]), _number(name, value[1]))


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a dict of overrides; absent fields take defaults.

    Unknown keys are an error so that typos do not silently fall back to defaults.
    Values are not coerced: a count must be an integral number, a position a
    list of two numbers and any other field a number; a bool is not a number.
    Integers are accepted where floats are expected and stored as floats.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario document must be an object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ScenarioError(f"unknown scenario field(s): {', '.join(unknown)}")
    kwargs: dict = {}
    for key, value in data.items():
        if key == "gu_positions":
            if value is not None:
                if not isinstance(value, (list, tuple)):
                    raise ScenarioError(f"gu_positions must be a list of (x, y) pairs, "
                                        f"got {value!r}")
                value = tuple(_pair(f"gu_positions[{i}]", p) for i, p in enumerate(value))
        elif key in ("ris_position", "uav_initial_position"):
            value = _pair(key, value)
        elif key in _INT_FIELDS:
            value = _number(key, value)
            if value.is_integer():
                value = int(value)  # validate rejects the rest
        else:
            value = _number(key, value)
        kwargs[key] = value
    return validate(Scenario(**kwargs))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file; missing fields take defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2, sort_keys=True)
        fh.write("\n")
