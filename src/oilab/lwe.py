"""Learning-with-errors instances and their reduction to gap closest-vector.

The lattice attached to a sample matrix A is the set of integer vectors
congruent mod q to As for some s, which decomposes as {As mod q} + q*Z^m.
That decomposition is what makes exact desk-scale CVP possible: minimize
over all q^n choices of s with per-coordinate centered reduction, no basis
construction or lattice reduction needed.  The scan keeps a table of the
residues (t - A's') mod q over the leading n-1 secret coordinates (q^(n-1)
rows of m) and sweeps the last coordinate against it in blocks of at most
2^14 candidates, in the narrowest integer type that holds +-q, so beyond
the table one call holds one block whatever q is.  The squared distance
comes out as an exact int.

The error model is the discrete Gaussian on Z with mass proportional to
exp(-x^2 / width^2), sampled exactly over a support truncated at ten
widths (the discarded tail mass is below 1e-40, far under any test
tolerance here).

Instances keep their generating secret (s, e) in a sealed field so tests
can assert facts like dist <= ||e||; serialization never emits it.

The gap experiment keeps one row per trial (trial, origin, distance,
verdict); its report computes d, the rates, the distance lists and their
medians from the rows and the parameters where they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .config import CALIBRATED_FACTOR, CVP_BITS
from .errors import ResourceError, WidthError
from .jsonio import int_array, require_field, require_int, require_real, typed_fields
from .seeding import derive_rng


@dataclass(frozen=True)
class LweParams:
    n: int          # secret dimension
    q: int          # modulus
    m: int          # sample count
    alpha: float    # relative error width; the Gaussian width is alpha*q

    def __post_init__(self):
        for name in ("n", "q", "m"):
            require_int(getattr(self, name), name)
        if self.n < 1 or self.q < 2 or self.m < self.n:
            raise ValueError("need n >= 1, q >= 2, m >= n")
        if self.q >= 1 << 63:  # entries mod q are int64
            raise ValueError(f"q must be below 2^63, got a {len(str(self.q))}-digit q")
        if not 0 < require_real(self.alpha, "alpha") < 1:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def error_width(self) -> float:
        return self.alpha * self.q

    @property
    def distance_threshold(self) -> float:
        """The YES-side distance bound sqrt(m) * alpha * q."""
        return math.sqrt(self.m) * self.alpha * self.q

    def to_json_dict(self) -> dict:
        return {"n": self.n, "q": self.q, "m": self.m, "alpha": self.alpha}


@dataclass(frozen=True)
class LweSecret:
    s: np.ndarray
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class LweInstance:
    params: LweParams
    A: np.ndarray            # (m, n) over Z_q
    b: np.ndarray            # (m,) over Z_q
    origin: str              # "lwe" | "uniform"
    secret: LweSecret | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        A = int_array(self.A, "A") % self.params.q
        b = int_array(self.b, "b") % self.params.q
        if A.shape != (self.params.m, self.params.n) or b.shape != (self.params.m,):
            raise WidthError("A must be (m, n) and b length m")
        if self.origin not in ("lwe", "uniform"):
            raise ValueError("origin must be 'lwe' or 'uniform'")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.origin == "lwe" and self.secret is not None:
            recomputed = (A @ self.secret.s + self.secret.e) % self.params.q
            if not np.array_equal(recomputed, b):
                raise ValueError("recorded secret does not reproduce b")

    def to_json_dict(self) -> dict:
        # the sealed secret never crosses the file boundary
        return {
            **self.params.to_json_dict(),
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "origin": self.origin,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LweInstance":
        keys = ("n", "q", "m", "alpha", "A", "b", "origin")
        with typed_fields("lwe instance"):
            n, q, m, alpha, A, b, origin = (require_field(obj, key, "lwe instance") for key in keys)
            return cls(LweParams(n, q, m, alpha), A, b, origin)


@dataclass(frozen=True, eq=False)
class GapCvpInstance:
    """Lattice {z : z = As mod q}, target t, distance d, approximation gamma."""

    A: np.ndarray
    q: int
    target: np.ndarray
    d: float
    gamma: float
    alpha: float | None = None
    origin: str | None = None

    def __post_init__(self):
        A = int_array(self.A, "A")  # A's shape is checked before the target's type
        if A.ndim != 2 or 0 in A.shape:
            raise WidthError("A must be (m, n) with m, n >= 1")
        target = int_array(self.target, "b")
        if target.shape != (A.shape[0],):
            raise WidthError("the target must have length m")
        if require_int(self.q, "q") < 2:
            raise ValueError(f"q must be >= 2, got {self.q!r}")
        if not require_real(self.d, "d") > 0:
            raise ValueError(f"d must be positive, got {self.d!r}")
        if not require_real(self.gamma, "gamma") >= 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma!r}")
        if self.alpha is not None:
            require_real(self.alpha, "alpha")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "target", target)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "q": self.q,
            "m": self.m,
            "A": self.A.tolist(),
            "b": self.target.tolist(),
            "d": self.d,
            "gamma": self.gamma,
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.origin is not None:
            out["origin"] = self.origin
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GapCvpInstance":
        keys = ("n", "m", "A", "q", "b", "d", "gamma")
        with typed_fields("gapcvp instance"):
            n, m, A, q, b, d, gamma = (require_field(obj, key, "gapcvp instance") for key in keys)
            inst = cls(A, q, b, d, gamma, obj.get("alpha"), obj.get("origin"))
            if inst.A.shape != (require_int(m, "m"), require_int(n, "n")):
                raise WidthError(f"A is {inst.m}x{inst.n}, but the file gives m = {m} and n = {n}")
            return inst


# ---------------------------------------------------------------------------
# sampling

TRUNCATION_WIDTHS = 10


def sample_discrete_gaussian(width: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` exact draws from the discrete Gaussian on Z of the given width."""
    if width <= 0:
        raise ValueError("width must be positive")
    cut = max(1, math.ceil(TRUNCATION_WIDTHS * width))
    support = np.arange(-cut, cut + 1)
    mass = np.exp(-(support.astype(float) ** 2) / width ** 2)
    return rng.choice(support, size=size, p=mass / mass.sum()).astype(np.int64)


def sample_lwe(params: LweParams, rng: np.random.Generator) -> LweInstance:
    """Draw (A, As + e) with uniform secret and discrete Gaussian error."""
    s = rng.integers(0, params.q, size=params.n)
    A = rng.integers(0, params.q, size=(params.m, params.n))
    e = sample_discrete_gaussian(params.error_width, rng, size=params.m)
    b = (A @ s + e) % params.q
    return LweInstance(params, A, b, "lwe", LweSecret(s, e))


def sample_uniform(params: LweParams, rng: np.random.Generator) -> LweInstance:
    A = rng.integers(0, params.q, size=(params.m, params.n))
    b = rng.integers(0, params.q, size=params.m)
    return LweInstance(params, A, b, "uniform")


# ---------------------------------------------------------------------------
# the reduction and exact CVP

def lwe_to_gapcvp(inst: LweInstance, gamma: float) -> GapCvpInstance:
    """Purely syntactic: lattice from A, target b itself, distance sqrt(m)*alpha*q."""
    return GapCvpInstance(
        inst.A,
        inst.params.q,
        inst.b,
        inst.params.distance_threshold,
        gamma,
        inst.params.alpha,
        inst.origin,
    )


def centered_mod(values: np.ndarray, q: int) -> np.ndarray:
    """Reduce into (-q/2, q/2]; exact halves stay positive."""
    reduced = np.mod(values, q)
    return np.where(reduced * 2 > q, reduced - q, reduced)


BLOCK_CANDIDATES = 2 ** 14  # candidate secrets per block of the CVP scan


def _narrow_dtype(q: int) -> type:
    """The narrowest signed integer type that holds -q and q."""
    return next(dt for dt in (np.int8, np.int16, np.int32, np.int64) if q <= np.iinfo(dt).max)


def _residue_table(A: np.ndarray, target: np.ndarray, q: int, dtype: type) -> np.ndarray:
    """(t - A s) mod q for every s over the columns of A, one row per s,
    built one coordinate at a time."""
    table = (target % q).astype(dtype)[None, :]
    for column in A.T:
        shifts = (np.multiply.outer(np.arange(q), column) % q).astype(dtype)
        table = (table[:, None, :] - shifts[None, :, :]).reshape(-1, A.shape[0])
        table %= q
    return table


def _block_minima(A: np.ndarray, target: np.ndarray, q: int) -> Iterator[int]:
    """The least squared centered residual over each block of at most
    BLOCK_CANDIDATES secrets: the residue table of the leading coordinates
    against a run of values of the last one."""
    dtype = _narrow_dtype(q)
    table = _residue_table(A[:, :-1], target, q, dtype)
    rows = min(len(table), BLOCK_CANDIDATES)
    cols = min(q, BLOCK_CANDIDATES // rows)
    for k in range(0, q, cols):
        shifts = np.multiply.outer(np.arange(k, min(k + cols, q)), A[:, -1])
        shifts = (shifts % q).astype(dtype)
        for r in range(0, len(table), rows):
            residue = table[r:r + rows, None, :] - shifts
            residue %= q
            np.minimum(residue, q - residue, out=residue)
            yield int(np.einsum("...i,...i->...", residue, residue, dtype=np.int64).min())


def squared_distance_to_lattice(inst: GapCvpInstance, cap_bits: int = CVP_BITS) -> int:
    """Exact squared distance from the target to the lattice, by scanning
    all q^n candidate secrets and reducing each residual coordinate-wise
    into the centered range.  Valid because the lattice is
    {As mod q} + q*Z^m.  More than 2^cap_bits candidates raise
    ResourceError."""
    total = inst.q ** inst.n
    if total > 1 << cap_bits:
        raise ResourceError(f"CVP enumeration over q^n = {total} exceeds cap {1 << cap_bits}")
    return min(_block_minima(inst.A % inst.q, inst.target, inst.q))


def dist_to_lattice(inst: GapCvpInstance, cap_bits: int = CVP_BITS) -> float:
    """Exact distance from the target to the lattice: the square root of
    ``squared_distance_to_lattice``."""
    return math.sqrt(squared_distance_to_lattice(inst, cap_bits))


# ---------------------------------------------------------------------------
# counting bound and parameter regime

def no_side_log2_bound(params: LweParams, gamma: float) -> float:
    """log2 of the counting bound 2^m q^n (2R)^m / q^m with R = gamma * d."""
    radius = gamma * params.distance_threshold
    if radius <= 0:
        raise ValueError("gamma * d must be positive")
    return (
        params.m
        + params.n * math.log2(params.q)
        + params.m * math.log2(2 * radius)
        - params.m * math.log2(params.q)
    )


def alpha_bound(n: int, m: int, q: int, c_prime: float = 1.0) -> float:
    """Largest alpha for which the counting bound stays below 2^-n, up to the
    constant c_prime: c' * sqrt(log2 n) / (2^(n/m) * q^(n/m) * sqrt(n*m))."""
    if n < 2 or m < 2 or q < 2:
        raise ValueError("need n, m, q >= 2")
    return (
        c_prime
        * math.sqrt(math.log2(n))
        / (2 ** (n / m) * q ** (n / m) * math.sqrt(n) * math.sqrt(m))
    )


def szk_regime_gamma(n: int, c_prime: float = 1.0) -> float:
    """Approximation factor sqrt(n / (c log2 n)) paired with alpha_bound; the
    constant is c = (4 c')^2 so the two formulas solve the same inequality."""
    c = (4.0 * c_prime) ** 2
    return math.sqrt(n / (c * math.log2(n)))


# ---------------------------------------------------------------------------
# the gap experiment

@dataclass(frozen=True)
class GapTrialRow:
    trial: int
    origin: str
    dist: float
    verdict: str


@dataclass(frozen=True)
class GapExperimentReport:
    """The measured rows; every summary is computed from them and the params."""

    params: LweParams
    gamma: float
    calibrated_factor: float
    seed: int
    rows: tuple[GapTrialRow, ...]

    def distances(self, origin: str) -> list[float]:
        return [row.dist for row in self.rows if row.origin == origin]

    @property
    def yes_rate(self) -> float:
        """Share of LWE targets within d."""
        lwe, d = self.distances("lwe"), self.params.distance_threshold
        return sum(x <= d for x in lwe) / len(lwe)

    @property
    def uniform_beyond_rate(self) -> float:
        """Share of uniform targets beyond calibrated_factor * d."""
        uniform = self.distances("uniform")
        beyond = self.calibrated_factor * self.params.distance_threshold
        return sum(x > beyond for x in uniform) / len(uniform)

    def to_json_dict(self) -> dict:
        lwe, uniform = self.distances("lwe"), self.distances("uniform")
        n = self.params.n
        return {
            "params": self.params.to_json_dict(),
            "gamma": self.gamma,
            "calibrated_factor": self.calibrated_factor,
            # undefined at n = 1
            "asymptotic_gamma": szk_regime_gamma(n) if n >= 2 else None,
            "d": self.params.distance_threshold,
            "trials": len(lwe),
            "seed": self.seed,
            "yes_rate": self.yes_rate,
            "uniform_beyond_rate": self.uniform_beyond_rate,
            "lwe_distances": lwe,
            "uniform_distances": uniform,
            "lwe_median": float(np.median(lwe)),
            "uniform_median": float(np.median(uniform)),
        }

    def csv_rows(self) -> list[tuple]:
        d = self.params.distance_threshold
        return [(r.trial, r.origin, r.dist, d, r.verdict) for r in self.rows]


def _verdict(dist: float, d: float, factor: float) -> str:
    if dist <= d:
        return "YES"
    if dist > factor * d:
        return "NO"
    return "MID"


def gap_experiment(
    params: LweParams,
    gamma: float,
    trials: int,
    seed: int,
    calibrated_factor: float = CALIBRATED_FACTOR,
    cap_bits: int = CVP_BITS,
) -> GapExperimentReport:
    """Sample `trials` LWE and then `trials` uniform instances, measure
    exact distances, and report one row per trial.

    The NO side is judged against calibrated_factor * d (a desk-scale
    calibration); the asymptotic approximation factor for the containment
    regime is reported alongside for reference.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not calibrated_factor > 0:
        raise ValueError(f"factor must be > 0, got {calibrated_factor}")
    d = params.distance_threshold
    rows = []
    for origin, sample in (("lwe", sample_lwe), ("uniform", sample_uniform)):
        for trial in range(trials):
            inst = sample(params, derive_rng(seed, origin, trial))
            dist = dist_to_lattice(lwe_to_gapcvp(inst, gamma), cap_bits)
            rows.append(GapTrialRow(trial, origin, dist, _verdict(dist, d, calibrated_factor)))
    return GapExperimentReport(params, gamma, calibrated_factor, seed, tuple(rows))
