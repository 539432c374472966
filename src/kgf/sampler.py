"""Spectral-method sampler for real scalar fields on periodic lattices.

Lattice conventions
-------------------
Sites x = a*(n_1,...,n_D) with n_d in 0..N-1, volume V = (N a)^D, and the
discrete transform

    phi~_k = a^D sum_x phi_x exp(-i k.x),      k_j = 2 pi j / (N a),

with j in (-N/2, N/2] per axis and c(k) evaluated at the continuum |k| of
each mode (no sin-based lattice dispersion).  Under the density
exp[-(1/V) sum_k c(|k|) |phi~_k|^2] every mode then obeys the single
moment contract

    E[|phi~_k|^2] = V / (2 c(|k|))        (all modes, zero and Nyquist too),

which the generator meets by filtering real white noise (Bertschinger,
ApJS 137:1, 2001): the ``rfftn`` W of N^D independent standard normals
has E|W_k|^2 = N^D on every mode, with Re W_k and Im W_k independent
N(0, N^D/2) off the self-conjugate modes (j in {0, N/2} on every axis),
W_k a real N(0, N^D) on them, and W_k independent of W_k' unless
k' = +/-k.  So S_k = W_k sqrt(V / (2 c N^D)) has exactly the Gaussian of
the density, Hermitian symmetry and the zero and Nyquist modes included;
the field is ``irfftn(S) / a^D`` and |phi~_k|^2 = |S_k|^2.

Randomness is counter-based and comes in blocks: sample ``i`` of seed
``s`` is row ``i % BLOCK_SIZE`` of block ``i // BLOCK_SIZE``, and each
block reads one Philox stream with key (s, tag) and counter block index.
Blocks run one after another, and a block's rows come out in chunks of
bounded bytes, drawn one after another from that block's generator;
sequential draws from one generator give the same bytes as one draw, so
the chunk size does not change a byte, and the first n samples of a seed
are the same for every longer run.

The open block keeps three buffers of one chunk's rows: two of white
noise and one of its half-grid spectrum.  A chunk's noise is transformed
into the spectrum and back one axis at a time, in place, in the axis order
of ``rfftn`` and ``irfftn`` (so with their bytes), and only the chunk's
values and power are new arrays.  While one chunk is transformed and then
written, the next chunk's noise is drawn into the other noise buffer on one
helper thread, the sampler's only thread; a block of one chunk draws inline
and starts no thread.  At D=3, N=64, where a chunk is one sample, the
buffers take about 6 MB.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, InvalidInputError
from .kernels import PhysicalConstants
from .spectra import SpectralDensity, spectral_coefficient

__all__ = [
    "BLOCK_SIZE",
    "LatticeSpec",
    "FieldConfiguration",
    "SampleChunk",
    "SpectrumAccumulator",
    "SpectrumEstimate",
    "sample_chunks",
    "sample_array",
    "power_spectrum",
    "expected_power",
    "smear",
    "smear_variance",
    "hamiltonian_classical",
    "samples_writer",
    "write_samples_csv",
    "read_samples_csv",
    "write_samples_binary",
    "read_samples_binary",
    "write_spectrum_csv",
    "write_coefficients_csv",
    "spectrum_csv",
]

MAX_TOTAL_SITES = 2**24

#: Samples per Philox key block: part of the stream format, not a tuning knob.
BLOCK_SIZE = 256

#: Upper bound on the field values of one chunk (at least one sample).
#: Resident memory scales with it (the open block keeps three chunk-sized
#: buffers besides the chunk in flight); the stream bytes do not depend on it.
_CHUNK_BYTES = 2**20

#: Rows per slab of :func:`_csv_writer`: one :func:`_format_17g` call and
#: one ``%`` template each, so it bounds the memory of both; the bytes
#: written do not depend on it.
_CSV_SLAB_ROWS = 4096

#: Lines of sample CSV that :func:`read_samples_csv` parses at once.
_CSV_READ_ROWS = 2**13

#: Largest ratio of two nonzero mode scales in one draw.  Below it every
#: mode keeps at least 12 fraction bits in the site sums of the inverse FFT.
MAX_MODE_SCALE_RATIO = 2**40

#: Most field values, samples times sites, in one stream: 32 GiB of float64
#: draws, or about 100 GiB of CSV.
MAX_TOTAL_VALUES = 2**32

#: Distinguishes field-sampling Philox streams from any other use of a seed.
_PHILOX_TAG = 0x4B474631  # "KGF1"

BINARY_MAGIC = b"KGF1"

#: A binary samples file's header: the magic, D, N and the spacing.
_BINARY_HEADER = struct.Struct("<4sqqd")


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic cubic lattice at fixed time."""

    dim: int = 1
    sites_per_axis: int = 64
    spacing: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidInputError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.sites_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise InvalidInputError(
                f"sites_per_axis must be a power of two >= 8, got {n}"
            )
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise InvalidInputError(f"spacing must be > 0, got {self.spacing}")
        if n**self.dim > MAX_TOTAL_SITES:
            raise InvalidInputError(
                f"{n}^{self.dim} sites exceeds the {MAX_TOTAL_SITES} site guard"
            )
        try:  # past the site guard, a finite spacing**(2D) bounds the volume too
            cell_squared = self.spacing ** (2 * self.dim)
        except OverflowError:
            raise InvalidInputError(
                f"spacing {self.spacing} overflows spacing**{2 * self.dim}"
            ) from None
        nyquist = math.pi / self.spacing  # mode_magnitudes sums its square per axis
        if not math.isfinite(self.dim * nyquist * nyquist):
            raise InvalidInputError(
                f"spacing {self.spacing} overflows the mode wavenumbers' "
                f"|k|**2 = {self.dim} (pi/spacing)**2"
            )
        if cell_squared < sys.float_info.min:  # the draw divides by spacing**D
            raise InvalidInputError(
                f"spacing {self.spacing} underflows spacing**{2 * self.dim}"
            )

    @property
    def shape(self) -> tuple:
        return (self.sites_per_axis,) * self.dim

    @property
    def volume(self) -> float:
        return (self.sites_per_axis * self.spacing) ** self.dim

    @property
    def total_sites(self) -> int:
        return self.sites_per_axis**self.dim

    def axis_wavenumbers(self) -> np.ndarray:
        """Signed k_j = 2 pi j/(N a) over :meth:`axis_mode_indices`, so the
        Nyquist mode is +pi/a."""
        n, a = self.sites_per_axis, self.spacing
        return 2.0 * math.pi * (np.array(self.axis_mode_indices()) * (1.0 / (n * a)))

    def mode_magnitudes(self) -> np.ndarray:
        """|k| on the full mode grid, FFT layout, shape ``self.shape``."""
        axes = [self.axis_wavenumbers() for _ in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    def axis_mode_indices(self) -> list:
        """Signed mode index j per axis in FFT order, Nyquist as +N/2."""
        n = self.sites_per_axis
        return list(range(n // 2 + 1)) + list(range(1 - n // 2, 0))


@dataclass(frozen=True)
class FieldConfiguration:
    """Real scalar field values on a lattice at fixed time."""

    lattice: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.lattice.shape:
            raise InvalidInputError(
                f"values shape {values.shape} does not match lattice {self.lattice.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("field values must be finite")
        object.__setattr__(self, "values", values)

    def modes(self) -> np.ndarray:
        """phi~_k = a^D FFT(phi), FFT mode layout."""
        return self.lattice.spacing**self.lattice.dim * np.fft.fftn(self.values)


class _HalfGrid:
    """The half mode grid of ``rfftn`` (last axis j in 0..N/2).

    A mode with 0 < j_last < N/2 stands for its -k partner as well, so its
    ``multiplicity`` is 2; in the planes j_last = 0 and N/2 it is 1.
    """

    def __init__(self, lattice: LatticeSpec):
        n = lattice.sites_per_axis
        self.shape = lattice.shape[:-1] + (n // 2 + 1,)
        self.axes = tuple(range(1, lattice.dim + 1))
        self.multiplicity = np.full(self.shape, 2.0)
        self.multiplicity[..., [0, n // 2]] = 1.0
        # past j_last = N/2 a mode reads its -k partner, each axis index j
        # as (n - j) % n: source[j_last, j]; the flat index adds one term
        # per leading axis, broadcast over that axis and the last
        j = np.arange(n)
        source = np.where(j[:, None] > n // 2, (n - j) % n, j)
        full = source.diagonal().copy()
        for axis in range(lattice.dim - 1):
            shape = [1] * lattice.dim
            shape[axis] = shape[-1] = n
            stride = (n // 2 + 1) * n ** (lattice.dim - 2 - axis)
            full = full + source.T.reshape(shape) * stride
        self.full_from_half = full


@functools.lru_cache(maxsize=4)
def _half_grid(lattice: LatticeSpec) -> _HalfGrid:
    return _HalfGrid(lattice)


@dataclass(frozen=True)
class SampleChunk:
    """Samples ``start`` .. ``start + len(values) - 1`` of one stream.

    ``power`` holds |phi~_k|^2 of each sample on the half mode grid (last
    axis j in 0..N/2), read off the spectrum that ``values`` was drawn from.
    ``expected`` is the moment contract E|phi~_k|^2 of the draw on the full
    mode grid, as :func:`expected_power` gives it; every chunk of a stream
    shares one array.
    """

    lattice: LatticeSpec
    start: int
    values: np.ndarray
    power: np.ndarray
    expected: np.ndarray

    def mode_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per sample (1/V) sum_k w_k |phi~_k|^2, for weights on the full
        mode grid (FFT layout) that are even in k."""
        grid = _half_grid(self.lattice)
        half = np.asarray(weights)[..., : grid.shape[-1]] * grid.multiplicity
        rows = self.power.reshape(len(self.power), -1)
        return rows @ half.reshape(-1) / self.lattice.volume


class _SpectrumPlan:
    """The moment contract ``expected`` = V/(2 c) on the full mode grid and
    the draw's ``scale`` = sqrt(V / (2 c N^D)) on the half grid, both 0 at a
    pinned zero mode.  Read-only after construction, so one plan serves
    every block of a stream.
    """

    def __init__(self, density: SpectralDensity, lattice: LatticeSpec,
                 pin_zero_mode: bool):
        self.lattice = lattice
        coeff = spectral_coefficient(density, lattice.mode_magnitudes())
        zero = (0,) * lattice.dim
        bad = coeff <= 0.0
        pinned = pin_zero_mode and bool(bad[zero])
        bad[zero] &= not pinned
        if np.any(bad):
            mode = np.unravel_index(int(np.argmax(bad)), lattice.shape)
            labels = lattice.axis_mode_indices()
            raise DegenerateModeError(tuple(labels[j] for j in mode),
                                      float(coeff[mode]))
        safe = np.where(coeff > 0.0, coeff, 1.0)
        self.grid = _half_grid(lattice)
        with np.errstate(over="ignore"):  # sample_chunks refuses what overflows
            self.expected = lattice.volume / (2.0 * safe)
            self.scale = np.sqrt(lattice.volume / (2.0 * lattice.total_sites
                                                   * safe[..., : self.grid.shape[-1]]))
        if pinned:
            self.expected[zero] = self.scale[zero] = 0.0

    def _transform(self, noise: np.ndarray, spectrum: np.ndarray):
        """The configurations filtered from the rows of white ``noise``
        (lattice shape), and their |phi~_k|^2 on the half mode grid, through
        the block's ``spectrum`` buffer (half grid, at least as many rows)."""
        axes, n = self.grid.axes, self.lattice.sites_per_axis
        spectrum = spectrum[:len(noise)]
        np.fft.rfftn(noise, axes=axes, out=spectrum)
        spectrum *= self.scale
        power = np.square(spectrum.real)
        power += np.square(spectrum.imag)
        for axis in axes[:-1]:  # irfftn's own steps would each allocate
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        values = np.fft.irfft(spectrum, n=n, axis=axes[-1])
        cell = self.lattice.spacing**self.lattice.dim
        if cell != 1.0:  # x / 1.0 is x
            values /= cell
        return values, power

    def block_chunks(self, seed: int, block: int, rows: int):
        """The first ``rows`` samples of one block, as chunks in order.

        The first chunk's noise is drawn here.  Each later chunk's is drawn
        on one helper thread, into the other of two noise buffers, while the
        chunk before it is transformed and consumed; the generator is still
        used by one thread at a time, in order, so the bytes are those of
        one draw.  A one-chunk block starts no thread.
        """
        key = np.array([np.uint64(seed), np.uint64(_PHILOX_TAG)], dtype=np.uint64)
        counter = np.array([0, np.uint64(block), 0, 0], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        step = max(1, min(BLOCK_SIZE,
                          _CHUNK_BYTES // (8 * self.lattice.total_sites)))
        starts = range(0, rows, step)
        buffers = [np.empty((min(step, rows),) + self.lattice.shape) for _ in starts[:2]]
        spectrum = np.empty((len(buffers[0]),) + self.grid.shape, dtype=complex)

        def fill(i):  # chunk i's noise
            return rng.standard_normal(out=buffers[i % 2][:min(step, rows - starts[i])])

        noise = fill(0)
        with (ThreadPoolExecutor(1) if len(starts) > 1 else contextlib.nullcontext()) as helper:
            for i, start in enumerate(starts):
                ahead = helper.submit(fill, i + 1) if i + 1 < len(starts) else None
                values, power = self._transform(noise, spectrum)
                yield SampleChunk(self.lattice, block * BLOCK_SIZE + start, values,
                                  power, self.expected)
                if ahead is not None:
                    noise = ahead.result()

    def draw(self, seed: int, sample_index: int) -> np.ndarray:
        """One configuration's values, read off its block's stream."""
        block, row = divmod(sample_index, BLOCK_SIZE)
        for chunk in self.block_chunks(seed, block, row + 1):
            pass
        return chunk.values[-1]


def sample_chunks(density: SpectralDensity, lattice: LatticeSpec, seed: int,
                  n: int, pin_zero_mode: bool = False):
    """The ``n`` samples of ``seed`` as :class:`SampleChunk` s in index order.

    Arguments are checked and the plan is built before this returns; the
    chunks are drawn as they are consumed, one block after another.
    """
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    if n * lattice.total_sites > MAX_TOTAL_VALUES:
        raise InvalidInputError(
            f"{n} samples of {lattice.total_sites} sites exceed "
            f"MAX_TOTAL_VALUES = {MAX_TOTAL_VALUES} field values")
    if not 0 <= seed < 2**64:
        raise InvalidInputError(f"seed must be in [0, 2**64), got {seed}")
    plan = _SpectrumPlan(density, lattice, pin_zero_mode)
    # numpy's ziggurat normals lie within 14 of 0 (its tail step adds at most
    # -log(2**-53)/r ~ 10.05 to r ~ 3.65), so a draw's |phi~_k|^2 is at most
    # 14**2 N^D times its expected value; the spectrum's moments add up to
    # two squares of such powers per sample, finite while 2 n of them are
    largest = float(plan.expected.max())
    bound = math.sqrt(sys.float_info.max / (2 * n)) / (14**2 * lattice.total_sites)
    if not largest <= bound:
        raise InvalidInputError(
            f"the expected mode power V/(2c) reaches {largest:.3g}, past the {bound:.3g}"
            f" below which the powers of {n} samples of {lattice.total_sites} sites"
            f" and their squares stay finite")
    scales = plan.scale[plan.scale > 0.0]
    if scales.max() > MAX_MODE_SCALE_RATIO * scales.min():
        raise InvalidInputError(
            f"spacing {lattice.spacing!r} and mass {density.constants.mass!r} give mode "
            f"scales spanning {scales.max() / scales.min():.2g}, past MAX_MODE_SCALE_RATIO"
            f" = {MAX_MODE_SCALE_RATIO:.2g}: smaller modes would round away in the site sums")
    return itertools.chain.from_iterable(
        plan.block_chunks(seed, b, min(BLOCK_SIZE, n - b * BLOCK_SIZE))
        for b in range(-(-n // BLOCK_SIZE)))


def sample_array(density: SpectralDensity, lattice: LatticeSpec, seed: int,
                 n: int, pin_zero_mode: bool = False, workers: int = 1) -> np.ndarray:
    """All ``n`` samples stacked, shape (n,) + lattice.shape, ordered by index.

    ``workers`` is accepted and ignored: blocks are drawn one after another.
    """
    chunks = sample_chunks(density, lattice, seed, n, pin_zero_mode)
    out = np.empty((n,) + lattice.shape, dtype=float)
    for chunk in chunks:
        out[chunk.start:chunk.start + len(chunk.values)] = chunk.values
    return out


@dataclass(frozen=True)
class SpectrumEstimate:
    """Per-mode sample mean of |phi~_k|^2 with its standard error."""

    lattice: LatticeSpec
    mean: np.ndarray
    stderr: np.ndarray
    count: int


class SpectrumAccumulator:
    """Streaming per-mode moments of |phi~_k|^2.

    The moments live on the half mode grid; a real field has
    |phi~_-k|^2 = |phi~_k|^2.
    """

    def __init__(self, lattice: LatticeSpec):
        self.lattice = lattice
        self.count = 0
        self._mean = np.zeros(_half_grid(lattice).shape)
        self._m2 = np.zeros(_half_grid(lattice).shape)

    def _check(self, lattice: LatticeSpec):
        if lattice != self.lattice:
            raise InvalidInputError("mixed lattice specs in one spectrum estimate")

    def _fold(self, power: np.ndarray):
        """Fold the rows of ``power`` (|phi~_k|^2 per sample) into the moments
        in place, by the Chan-Golub-LeVeque update of two disjoint sets."""
        count, total = len(power), self.count + len(power)
        if count == 1:  # one row is its own mean, with no spread about it
            mean = power[0]
        else:
            mean = power.mean(axis=0)
            self._m2 += np.sum((power - mean) ** 2, axis=0)
        delta = mean - self._mean
        self._m2 += delta * delta * (self.count * count / total)
        self._mean += delta * (count / total)
        self.count = total

    def add(self, chunk: SampleChunk):
        """Fold in every sample of a chunk."""
        self._check(chunk.lattice)
        self._fold(chunk.power)

    def update(self, cfg: FieldConfiguration):
        """Fold in one configuration."""
        self._check(cfg.lattice)
        modes = np.fft.rfftn(cfg.values) * self.lattice.spacing**self.lattice.dim
        self._fold((modes.real**2 + modes.imag**2)[None])

    def finalize(self) -> SpectrumEstimate:
        if self.count < 2:
            raise InvalidInputError("need at least 2 samples for a spectrum estimate")
        full = _half_grid(self.lattice).full_from_half
        variance = self._m2 / (self.count - 1)
        stderr = np.sqrt(variance / self.count)
        return SpectrumEstimate(
            lattice=self.lattice,
            mean=self._mean.reshape(-1)[full],
            stderr=stderr.reshape(-1)[full],
            count=self.count,
        )


def power_spectrum(samples) -> SpectrumEstimate:
    """Per-mode mean of |phi~_k|^2 over a stream of configurations."""
    acc = None
    for cfg in samples:
        if acc is None:
            acc = SpectrumAccumulator(cfg.lattice)
        acc.update(cfg)
    if acc is None:
        raise InvalidInputError("need at least 2 samples for a spectrum estimate")
    return acc.finalize()


def expected_power(density: SpectralDensity, lattice: LatticeSpec,
                   pin_zero_mode: bool = False) -> np.ndarray:
    """The moment contract V/(2 c(k)) per mode (0 at a pinned zero mode),
    as the draw's plan holds it."""
    return _SpectrumPlan(density, lattice, pin_zero_mode).expected


def smear(cfg: FieldConfiguration, test_values: np.ndarray) -> float:
    """a^D sum_x f(x) phi(x) for a test function sampled on the lattice."""
    f = np.asarray(test_values, dtype=float)
    if f.shape != cfg.lattice.shape:
        raise InvalidInputError(
            f"test function shape {f.shape} does not match lattice {cfg.lattice.shape}"
        )
    return float(cfg.lattice.spacing**cfg.lattice.dim * np.sum(f * cfg.values))


def smear_variance(density: SpectralDensity, lattice: LatticeSpec,
                   test_values: np.ndarray, pin_zero_mode: bool = False) -> float:
    """Ensemble variance of the smeared field:

        Var X[f] = (1/V^2) sum_k |f~_k|^2 * V/(2 c(k)),

    the lattice-Parseval consequence of the per-mode moment contract.
    """
    f = np.asarray(test_values, dtype=float)
    if f.shape != lattice.shape:
        raise InvalidInputError(
            f"test function shape {f.shape} does not match lattice {lattice.shape}"
        )
    f_modes = lattice.spacing**lattice.dim * np.fft.fftn(f)
    per_mode = expected_power(density, lattice, pin_zero_mode)
    return float(np.sum(np.abs(f_modes) ** 2 * per_mode) / lattice.volume**2)


def hamiltonian_classical(cfg: FieldConfiguration,
                          constants: PhysicalConstants) -> float:
    """(1/V) sum_k (1/2)(|k|^2 + m^2) |phi~_k|^2."""
    power = np.abs(cfg.modes()) ** 2
    omega_sq = cfg.lattice.mode_magnitudes() ** 2 + constants.mass * constants.mass
    return float(np.sum(0.5 * omega_sq * power) / cfg.lattice.volume)


# --- file formats ----------------------------------------------------------


def _veltkamp_split(a):
    """``a`` as high + low, each of at most 26 significant bits, so that a
    product of two halves is exact (Veltkamp's split)."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


@functools.cache
def _format_tables():
    """The constant tables of :func:`_fixed_notation`, built on first use:

    - 10**k for k = 0..20 (exact: 5**20 < 2**53) and its Veltkamp halves;
    - the ASCII text of each 4-digit group 0000..9999 as a little-endian
      uint64, and its number of trailing zeros;
    - per uint64 lane of a 24-byte text and per byte position p, the mask
      of the bytes before p and the byte '.' at p.
    """
    pow10 = np.array([float(10**k) for k in range(21)])
    group = np.arange(10**4)
    digits4 = sum((48 + group // 10**(3 - j) % 10).astype(np.uint64) << np.uint64(8 * j)
                  for j in range(4))
    zeros4 = sum((group % 10**j == 0).astype(np.int64) for j in range(1, 5))
    lane_bytes = [[p - 8 * lane for p in range(25)] for lane in range(3)]
    below = np.array([[(1 << 8 * min(max(b, 0), 8)) - 1 for b in bytes_]
                      for bytes_ in lane_bytes], dtype=np.uint64)
    dot = np.array([[ord(".") << 8 * b if 0 <= b < 8 else 0 for b in bytes_]
                    for bytes_ in lane_bytes], dtype=np.uint64)
    tables = (pow10, *_veltkamp_split(pow10), digits4, zeros4, below, dot)
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _fixed_notation(x, lanes):
    """Write ``%.17g`` of each value of ``x`` that prints in fixed notation
    (1e-4 <= |v| < 1e17) into its row of ``lanes``, the 24 bytes of its
    text as three little-endian uint64; return the mask of those values.

    With E the decimal exponent, |v| 10**(16-E) is formed exactly as
    high + low by Dekker's product (Numer. Math. 18, 224, 1971).  It lies
    in [1e16, 1e17), where ``high`` is an even integer, so rounding ``low``
    half-even rounds the sum: that gives the 17 digits ``%.17g`` prints.
    """
    pow10, pow10_high, pow10_low, digits4, zeros4, below, dot = _format_tables()
    ax = np.abs(x)
    done = (ax >= 1e-4) & (ax < 1e17)
    ax = np.where(done, ax, 1.0)
    # log10 can put E one off near a power of ten; the range checks below
    # send such a value to the caller's fallback
    e = np.clip(np.floor(np.log10(ax)).astype(np.int64), -4, 16)
    k = 16 - e
    ah, al = _veltkamp_split(ax)
    ph, pl = pow10_high[k], pow10_low[k]
    high = ax * pow10[k]
    low = ((ah * ph - high) + ah * pl + al * ph) + al * pl
    done &= (high > 1e16) | ((high == 1e16) & (low >= 0))
    digits = high.astype(np.int64) + np.rint(low).astype(np.int64)
    done &= digits < 10**17
    digits[~done] = 10**16

    # the text t = "0000000" + the 17 digits, as three lanes
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1, g3 = upper // 10**4, lower // 10**4
    g2, g4 = upper - g1 * 10**4, lower - g3 * 10**4
    t = (np.uint64(int.from_bytes(b"0000", "little")) | digits4[lead] << np.uint64(32),
         digits4[g1] | digits4[g2] << np.uint64(32),
         digits4[g3] | digits4[g4] << np.uint64(32),
         np.uint64(0))
    zeros = np.where(g4, zeros4[g4], 4 + np.where(g3, zeros4[g3], 4 + np.where(
        g2, zeros4[g2], 4 + zeros4[g1])))

    # byte j of the text is byte j + skip of t before the point, and byte
    # j + skip - 1 after it; a negative value's byte 0 is a '0' of t
    negative = x < 0
    point = negative + np.maximum(e, 0) + 1
    fraction = np.maximum(16 - e - zeros, 0)
    length = point + np.where(fraction > 0, fraction + 1, 0)
    skip = (8 * (7 + np.minimum(e, 0) - negative)).astype(np.uint64)
    for lane in range(3):
        before = t[lane] >> skip | t[lane + 1] << (64 - skip)
        after = t[lane] >> (skip - 8) | t[lane + 1] << (72 - skip)
        lanes[:, lane] = ((before & below[lane][point])
                          | (after & ~below[lane][point + 1])
                          | dot[lane][point]) & below[lane][length]
    lanes[:, 0] -= negative * np.uint64(ord("0") - ord("-"))
    return done


def _format_17g(values) -> np.ndarray:
    """``b"%.17g" % v`` for each float of ``values``, flattened, as a
    NUL-padded ``S24`` array (``tolist()`` strips the padding).

    Fixed notation is built in numpy by :func:`_fixed_notation`; the other
    values (0, subnormals, inf, nan, exponent notation) and the rare value
    whose exponent estimate is off take Python's own ``%``.
    """
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    texts = np.zeros(flat.size, dtype="S24")
    done = _fixed_notation(flat, texts.view(np.uint64).reshape(-1, 3))
    for i in np.flatnonzero(~done).tolist():
        texts[i] = b"%.17g" % flat[i]
    return texts


def _csv_writer(stream, header: str, row: str, labels=(), dim: int = 0):
    """The one CSV writer: writes ``header`` to ``stream`` and returns
    ``write(leads, columns)``.

    ``write`` writes, for each string ``lead`` of ``leads`` in turn and
    each index ``(i0, ..., i{dim-1})`` over ``dim`` axes that each carry
    ``labels`` (row-major), the row ``lead + "i0,...,i{dim-1}," + row``,
    with the ``%s`` slots of ``row`` filled by ``%.17g`` of the next value
    of each float column in ``columns``.

    Rows go out in slabs of at most ``_CSV_SLAB_ROWS`` (at least one head):
    one :func:`_format_17g` call formats a slab's values, and they fill one
    ``%`` template.  The index prefixes of the trailing axes that fit in one
    slab are spelled once per writer, here; a slab joins them after each of
    its heads, a lead followed by the labels of the other axes.

    The filled template goes out as ASCII bytes, as a binary stream (a file
    opened ``"wb"``) takes them; a text stream (:class:`io.TextIOBase`) is
    handed the decoded text instead.
    """
    emit = stream.write
    if isinstance(stream, io.TextIOBase):
        def emit(data):
            stream.write(data.decode("ascii"))
    emit(header.encode())
    tail, head_axes = [""], dim
    while head_axes and len(labels) * len(tail) <= _CSV_SLAB_ROWS:
        tail = [f"{label},{t}" for label in labels for t in tail]
        head_axes -= 1
    group = max(1, _CSV_SLAB_ROWS // len(tail))

    def write(leads, columns):
        heads = iter(leads)
        for _ in range(head_axes):
            heads = (head + f"{label}," for head in heads for label in labels)
        first = 0
        while batch := list(itertools.islice(heads, group)):
            rows = len(batch) * len(tail)
            if tail == [""]:  # one row per head, many heads: join them in C
                template = row.join(batch) + row
            else:
                template = "".join(h + (row + h).join(tail) + row for h in batch)
            texts = _format_17g(np.stack([c[first:first + rows] for c in columns], axis=1))
            emit(template.encode() % tuple(texts.tolist()))
            first += rows
    return write


def _csv_header(dim: int) -> str:
    index_cols = ",".join(f"site_index_{d}" for d in range(dim))
    return f"sample,{index_cols},value\n"


def samples_writer(stream, lattice: LatticeSpec, fmt: str):
    """Write the header of a ``"csv"`` or ``"binary"`` samples file.

    Returns ``write(start, values)``, which appends the samples
    ``start, start + 1, ...`` held in ``values`` (shape (rows,) + lattice
    shape); call it with consecutive chunks in index order.  A chunk of
    another shape, or one that does not start at the next sample, is
    refused with :class:`InvalidInputError`.

    A binary file needs a binary ``stream``; a CSV file is written as
    bytes to a binary one, or as text to a text one.  A CSV chunk goes
    through :func:`_csv_writer` with its sample numbers as the leads, so
    one slab can span many samples of a small lattice.
    Besides the chunk, that holds one slab: a tracemalloc peak of 0.6 to
    1.6 MB over D = 1-3 and N = 8-65536.
    """
    if fmt == "binary":
        stream.write(_BINARY_HEADER.pack(
            BINARY_MAGIC, lattice.dim, lattice.sites_per_axis, lattice.spacing))

        def append(start, values):
            stream.write(np.ascontiguousarray(values, dtype="<f8").data)
    elif fmt == "csv":
        write_rows = _csv_writer(stream, _csv_header(lattice.dim), "%s\n",
                                 range(lattice.sites_per_axis), lattice.dim)

        def append(start, values):
            write_rows(map("{},".format, range(start, start + len(values))),
                       [values.reshape(-1)])
    else:
        raise InvalidInputError(f"unknown samples format {fmt!r}")
    written = 0

    def write(start, values):
        nonlocal written
        values = np.asarray(values, dtype=float)
        if values.shape[1:] != lattice.shape:
            raise InvalidInputError(
                f"chunk of shape {values.shape} does not hold samples of the "
                f"{lattice.shape} lattice")
        if start != written:
            raise InvalidInputError(
                f"chunk starts at sample {start}, not at the next sample {written}")
        append(start, values)
        written += len(values)
    return write


def write_samples_csv(stream, lattice: LatticeSpec, samples: np.ndarray):
    """One row per site: ``sample,site_index_0[,...],value``."""
    samples_writer(stream, lattice, "csv")(0, samples)


def read_samples_csv(stream):
    """Inverse of :func:`write_samples_csv`; returns (dim, N, samples array).

    ``stream`` must be seekable: a first pass counts its lines, which
    bounds the rows, so the values go straight into their array.  numpy's
    line parser then reads ``_CSV_READ_ROWS`` lines at a time; a row that
    is not ``dim + 1`` integers and a float is refused.  Rows must follow
    the writer's row-major order: row r holds the digits of r in base N,
    where N is the first row whose last index is 0 again (or the row
    count, if none is), and there must be n * N^D of them.  The
    tracemalloc peak is the array plus about 2 MB for one slab of lines.
    """
    header = stream.readline().strip()
    dim = header.count(",") - 1
    if dim not in (1, 2, 3) or header + "\n" != _csv_header(dim):
        raise InvalidInputError(f"unexpected sample CSV header {header!r}")
    start = stream.tell()
    blocks = iter(functools.partial(stream.read, 2**18), "")
    values = np.empty(sum(block.count("\n") for block in blocks) + 1)
    stream.seek(start)
    row = np.dtype([("index", "<i8", (dim + 1,)), ("value", "<f8")])
    count, sites = 0, None
    slabs = iter(lambda: list(itertools.islice(stream, _CSV_READ_ROWS)), [])
    for lines in slabs:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                rows = np.loadtxt(lines, dtype=row, delimiter=",",
                                  comments=None, ndmin=1)
            except ValueError as exc:
                raise InvalidInputError(
                    f"malformed sample CSV after data row {count}: {exc}") from None
        index = rows["index"]
        position = np.arange(count, count + len(rows))
        if sites is None:
            wraps = position[(index[:, -1] == 0) & (position > 0)]
            sites = int(wraps[0]) if wraps.size else None
        expected = np.zeros_like(index)
        if sites is None:
            expected[:, -1] = position
        else:
            for axis in range(dim, 0, -1):
                position, expected[:, axis] = np.divmod(position, sites)
            expected[:, 0] = position
        wrong = (index != expected).any(axis=0)
        if wrong.any():
            axis = int(np.argmax(wrong))
            name = "sample" if axis == 0 else f"site_index_{axis - 1}"
            raise InvalidInputError(
                f"sample CSV column {name} is not in writer order at data row "
                f"{count + int(np.argmax(index[:, axis] != expected[:, axis]))}")
        values[count:count + len(rows)] = rows["value"]
        count += len(rows)
    if count == 0:
        raise InvalidInputError("sample CSV has no data rows")
    sites = sites or count
    n_samples, extra = divmod(count, sites**dim)
    if extra:
        raise InvalidInputError(
            f"sample CSV has {count} rows, not a whole number of "
            f"{sites}^{dim}-site lattices")
    return dim, sites, values[:count].reshape((n_samples,) + (sites,) * dim)


def write_samples_binary(stream, lattice: LatticeSpec, samples: np.ndarray):
    """Raw block: magic ``KGF1``, then D, N as int64 LE, a as float64 LE,
    then all values as float64 LE, row-major, samples concatenated in order."""
    samples_writer(stream, lattice, "binary")(0, samples)


def read_samples_binary(stream):
    """Inverse of :func:`write_samples_binary`; returns (lattice, samples)."""
    header = stream.read(_BINARY_HEADER.size)
    if header[:4] != BINARY_MAGIC:
        raise InvalidInputError(f"bad magic {header[:4]!r}, expected {BINARY_MAGIC!r}")
    if len(header) < _BINARY_HEADER.size:
        raise InvalidInputError(f"binary header truncated: {len(header)} of "
                                f"{_BINARY_HEADER.size} bytes")
    _, dim, n, spacing = _BINARY_HEADER.unpack(header)
    lattice = LatticeSpec(dim=dim, sites_per_axis=n, spacing=spacing)
    payload = stream.read()
    if not payload:
        raise InvalidInputError("binary samples file has no samples")
    if len(payload) % (8 * lattice.total_sites):
        raise InvalidInputError("binary payload is not a whole number of samples")
    return lattice, np.frombuffer(payload, dtype="<f8").reshape((-1,) + lattice.shape)


def write_spectrum_csv(stream, estimate: SpectrumEstimate, expected: np.ndarray):
    """CSV ``k_index_0[,...],mean,stderr,count,expected`` in signed-index
    order, written a slab of rows at a time by :func:`_csv_writer`, as bytes
    to a binary ``stream`` or as text to a text one.

    Besides the three columns it holds one slab: for D=3, N=64 a
    tracemalloc peak of 4.3 MB, whatever the values.
    """
    lattice = estimate.lattice
    columns = [np.asarray(c, dtype=float).reshape(-1)
               for c in (estimate.mean, estimate.stderr, expected)]
    for column in columns:
        if column.size != lattice.total_sites:
            raise InvalidInputError(f"spectrum column has {column.size} values "
                                    f"for {lattice.total_sites} modes")
    index_cols = ",".join(f"k_index_{d}" for d in range(lattice.dim))
    _csv_writer(stream, f"{index_cols},mean,stderr,count,expected\n",
                f"%s,%s,{estimate.count},%s\n", lattice.axis_mode_indices(),
                lattice.dim)([""], columns)


def write_coefficients_csv(stream, k: np.ndarray, c: np.ndarray):
    """CSV ``k,c``: a spectral coefficient ``c`` on the wavenumbers ``k``."""
    _csv_writer(stream, "k,c\n", "%s,%s\n")(itertools.repeat("", len(k)), [k, c])


def spectrum_csv(estimate: SpectrumEstimate, expected: np.ndarray) -> str:
    """:func:`write_spectrum_csv` as a string."""
    buf = io.BytesIO()
    write_spectrum_csv(buf, estimate, expected)
    return buf.getvalue().decode("ascii")
