"""The four workloads: seeded inputs, their kgf invocations, and output referees.

The workload seed only drives the generator here; kgf sees nothing but the
generated config files, expressions and ``--seed`` values.  Each referee
checks an output against something the timed path does not compute, so a
fast path can never certify itself:

* ``expect``: a pairing sum written here, over an inner-product table built
  with ``kgf.kernels.inner_product`` (the kernel layer is refereed by the
  ``innerprod`` axioms, the algebra by this sum);
* ``innerprod``: Hermiticity, two-point orientation, xi-scaling and
  Cauchy-Schwarz between printed values, plus the printed convergence shift;
* ``sample``: files read back with kgf's readers, the moment contract on
  the written spectrum, byte-stable digests within a run, and the threaded
  file against an in-process single-worker draw;
* ``verify``: exit 0 and all eight checks passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from kgf import kernels, sampler
from kgf.spectra import Ensemble, SpectralDensity, spectral_coefficient

from harness import ChildResult, RefereeError

CONSTANTS = {"hbar": 1.0, "kT": 1.0, "mass": 1.0}

#: Inner-product identities hold to this share of sqrt((f,f)(g,g)).
IP_RTOL = 1e-8
XI_RTOL = 1e-12
#: A printed VEV may differ from the pairing sum by this share of the sum of
#: the absolute values of its pairing products (rounding only).
VEV_RTOL = 1e-9
#: Moment contract on a written spectrum, as in ``kgf verify``.
MODE_SIGMA = 5.0
MODE_PASS_FRACTION = 0.99

_COMPLEX = re.compile(r"(\S+) ([+-]) (\S+)j\s*$")
_SHIFT = re.compile(r"relative shift (\S+)\s*$", re.MULTILINE)
_VERIFY_DONE = re.compile(r"^8 checks, 8 passed, 0 failed", re.MULTILINE)


@dataclass
class Call:
    """One kgf invocation; ``args`` follow the program name."""

    label: str
    args: list
    referee: Callable[[ChildResult, Path | None], None]
    writes_files: bool = False


# --- seeded inputs ----------------------------------------------------------


def random_packet(rng: np.random.Generator, dim: int, width=(0.8, 1.8),
                  carrier: float = 2.0) -> dict:
    """Config fields of one packet.

    The defaults are the ranges ``kgf verify`` draws from, which the default
    quadrature resolves in D=1 and D=2 at mass 1.  D=3 at 64 nodes needs
    wide packets with slow carriers to pass the 1e-8 convergence check.
    """
    return {
        "center_t": float(rng.uniform(-2.0, 2.0)),
        "center_x": [float(v) for v in rng.uniform(-2.0, 2.0, size=dim)],
        "width_t": float(rng.uniform(0.8, 1.8)),
        "width_x": float(rng.uniform(*width)),
        "carrier_freq": float(rng.uniform(-2.0, 2.0)),
        "carrier_wavevector": [float(v) for v in
                               rng.uniform(-carrier, carrier, size=dim)],
        "amplitude": [float(rng.uniform(0.3, 1.5)), float(rng.uniform(-1.0, 1.0))],
    }


#: D=3 packet ranges: widths 5.5-6.5 and carriers within 0.2 per component
#: keep the 64-node shift below about 2e-9, a 5x margin under 1e-8.
D3_WIDTH = (5.5, 6.5)
D3_CARRIER = 0.2


def packet(fields: dict, dim: int) -> kernels.WavePacket:
    amp = fields["amplitude"]
    return kernels.WavePacket(
        dim=dim,
        center_t=fields["center_t"],
        center_x=tuple(fields["center_x"]),
        width_t=fields["width_t"],
        width_x=fields["width_x"],
        carrier_freq=fields["carrier_freq"],
        carrier_wavevector=tuple(fields["carrier_wavevector"]),
        amplitude=complex(amp[0], amp[1]),
    )


def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def kgf_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


# --- output parsing ---------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Inverse of the CLI's ``a + bj`` / ``a - bj`` formatting."""
    match = _COMPLEX.search(text)
    if match is None:
        raise RefereeError(f"no complex value in {text!r}")
    imag = float(match.group(3))
    return complex(float(match.group(1)), imag if match.group(2) == "+" else -imag)


def printed_value(result: ChildResult) -> complex:
    """The value on the line holding ``=`` (first line of the output)."""
    for line in result.stdout.splitlines():
        if " = " in line:
            return parse_complex(line.rsplit(" = ", 1)[1])
    raise RefereeError(f"no result line in {result.stdout[-200:]!r}")


def printed_shift(result: ChildResult) -> float:
    match = _SHIFT.search(result.stdout)
    if match is None:
        raise RefereeError("no relative shift printed")
    return float(match.group(1))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- referees ---------------------------------------------------------------


def pairing_sum(letters, ip) -> tuple:
    """<0| word |0> as a sum over perfect matchings of the word's letters.

    ``letters`` are (keyword, name) with keyword ``phi``, ``a`` or ``adag``.
    A matched pair p < q is worth ip[(f_q, f_p)] when letter p can
    annihilate (``phi``/``a``) and letter q can create (``phi``/``adag``),
    else 0.  Returns the sum and the sum of the absolute values of its
    products, the scale its rounding error is measured against.
    """
    n = len(letters)
    if n % 2:
        return 0j, 0.0
    weight = [[0j] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if letters[p][0] != "adag" and letters[q][0] != "a":
                weight[p][q] = ip[(letters[q][1], letters[p][1])]

    @lru_cache(maxsize=None)
    def rec(mask: int) -> tuple:
        if mask == 0:
            return 1 + 0j, 1.0
        p = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << p)
        total, scale = 0j, 0.0
        for q in range(p + 1, n):
            if rest >> q & 1 and weight[p][q] != 0:
                value, size = rec(rest & ~(1 << q))
                total += weight[p][q] * value
                scale += abs(weight[p][q]) * size
        return total, scale

    return rec((1 << n) - 1)


def ip_table(spec: kernels.KernelSpec, packets: dict, names) -> dict:
    """(f, g) for every ordered pair of ``names``, (g, f) by conjugation."""
    names = list(names)
    table = {}
    for i, f in enumerate(names):
        for g in names[i:]:
            value = kernels.inner_product(spec, packets[f], packets[g])
            table[(f, g)] = value
            table[(g, f)] = value.conjugate()
    return table


def parse_letters(expression: str) -> list:
    return re.findall(r"(phi|adag|a)\[(\w+)\]", expression)


def check_vev(result: ChildResult, expression: str, table: dict):
    letters = parse_letters(expression)
    value = printed_value(result)
    if len(letters) % 2:
        if value != 0:
            raise RefereeError(f"odd product printed {value!r}, must be exactly 0")
        return
    expected, scale = pairing_sum(letters, table)
    if abs(value - expected) > VEV_RTOL * max(scale, 1e-300):
        raise RefereeError(
            f"VEV {value!r} differs from the pairing sum {expected!r} "
            f"(scale {scale:.3e})")


def check_shift(result: ChildResult):
    shift = printed_shift(result)
    if not shift <= IP_RTOL:
        raise RefereeError(f"relative shift {shift:.3e} above {IP_RTOL}")


def kernel_spec(dim: int, variant=kernels.KernelVariant.QUANTUM,
                nodes: int = 256) -> kernels.KernelSpec:
    return kernels.KernelSpec(variant=variant,
                              constants=kernels.PhysicalConstants(**CONSTANTS),
                              dim=dim, quadrature=kernels.QuadratureSpec(nodes=nodes))


# --- workloads ----------------------------------------------------------------


class Workload:
    """Seeded configs in a work directory and the invocations of one pass.

    ``setup_config`` is the config a fresh interpreter loads to measure
    set-up time.  A workload object lives for one benchmark run, so it also
    holds what its referees remember between passes.
    """

    name = ""
    setup_config: Path
    calls: list


class ExpectD1(Workload):
    """Rewriting-engine VEVs on D=1 packets, shared and unshared words."""

    name = "expect_d1"
    PACKETS = 10

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        names = [f"f{i + 1}" for i in range(self.PACKETS)]
        fields = {name: random_packet(rng, 1) for name in names}
        self.setup_config = write_config(
            work_dir / "expect_d1.json",
            {"constants": CONSTANTS, "dim": 1, "packets": fields})
        self.packets = {name: packet(f, 1) for name, f in fields.items()}
        self.names = names
        self._table = None

        def distinct(n):
            return [names[i] for i in rng.permutation(self.PACKETS)[:n]]

        products = [(f"phi n={n}", distinct(n)) for n in (2, 4, 6, 8, 10)]
        products.append(("phi n=9 odd", distinct(9)))
        pair = distinct(2)
        shared = pair + [pair[int(b)] for b in rng.integers(0, 2, 8)]
        products.append(("phi n=10 over 2 packets",
                         [shared[i] for i in rng.permutation(10)]))
        ladder = distinct(5)
        self.calls = [self._call(label, " ".join(f"phi[{name}]" for name in used))
                      for label, used in products]
        text = " ".join([f"a[{name}]" for name in ladder]
                        + [f"adag[{name}]" for name in reversed(ladder)])
        self.calls.append(self._call("ladder a^5 adag^5", text))

    def table(self) -> dict:
        if self._table is None:
            self._table = ip_table(kernel_spec(1), self.packets, self.names)
        return self._table

    def _call(self, label: str, expression: str) -> Call:
        def referee(result, _out):
            check_vev(result, expression, self.table())
        return Call(label, ["expect", "--config", str(self.setup_config),
                            expression], referee)


class KernelsD23(Workload):
    """Tensor-grid quadrature in D=2 and D=3 under all three kernels."""

    name = "kernels_d23"
    D2_PACKETS = 6
    D3_NODES = 64

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.xi = float(rng.uniform(0.1, 0.9))
        names2 = [f"f{i + 1}" for i in range(self.D2_PACKETS)]
        fields2 = {name: random_packet(rng, 2) for name in names2}
        fields3 = {name: random_packet(rng, 3, D3_WIDTH, D3_CARRIER)
                   for name in ("f1", "f2")}
        constants = dict(CONSTANTS, xi=self.xi)
        self.setup_config = write_config(
            work_dir / "kernels_d2.json",
            {"constants": constants, "dim": 2, "packets": fields2})
        d3 = write_config(
            work_dir / "kernels_d3.json",
            {"constants": constants, "dim": 3, "packets": fields3,
             "quadrature": {"nodes": self.D3_NODES}})
        self.p2 = {name: packet(f, 2) for name, f in fields2.items()}
        self.p3 = {name: packet(f, 3) for name, f in fields3.items()}
        self.printed: dict = {}
        self._table = None
        d2 = str(self.setup_config)
        self.expression = "phi[f1] phi[f2] phi[f3] phi[f4]"

        def ip(label, config, kernel, f, g, check):
            def referee(result, _out):
                check_shift(result)
                value = printed_value(result)
                self.printed[(kernel, f, g)] = value
                check(value)
            return Call(label, ["innerprod", "--config", config,
                                "--kernel", kernel, "-f", f, "-g", g], referee)

        self.calls = [
            ip("quantum d2 (f1,f2)", d2, "quantum", "f1", "f2",
               lambda v: self._orientation("f1", "f2", v)),
            ip("quantum d2 (f2,f1)", d2, "quantum", "f2", "f1",
               self._hermiticity),
            ip("classical d2 (f5,f6)", d2, "classical", "f5", "f6",
               lambda v: self._cauchy_schwarz(
                   v, kernel_spec(2, kernels.KernelVariant.CLASSICAL),
                   self.p2["f5"], self.p2["f6"])),
            ip("xi d2 (f1,f2)", d2, "xi", "f1", "f2", self._xi_scaling),
            ip("quantum d3 (f1,f2)", str(d3), "quantum", "f1", "f2",
               lambda v: self._cauchy_schwarz(
                   v, kernel_spec(3, nodes=self.D3_NODES),
                   self.p3["f1"], self.p3["f2"])),
            Call("expect d2 phi^4", ["expect", "--config", d2, self.expression],
                 lambda result, _out: check_vev(result, self.expression,
                                                self.table())),
        ]

    def table(self) -> dict:
        if self._table is None:
            self._table = ip_table(kernel_spec(2), self.p2,
                                   ["f1", "f2", "f3", "f4"])
        return self._table

    def _scale(self, f: str, g: str) -> float:
        table = self.table()
        return math.sqrt(table[(f, f)].real * table[(g, g)].real)

    def _orientation(self, f: str, g: str, value: complex):
        """The printed (f, g) sits in the slot <0|phi[g] phi[f]|0> reads."""
        expected = self.table()[(f, g)]
        if abs(value - expected) > IP_RTOL * self._scale(f, g):
            raise RefereeError(f"({f},{g}) printed {value!r}, expected {expected!r}")

    def _hermiticity(self, value: complex):
        first = self.printed.get(("quantum", "f1", "f2"))
        if first is None:
            raise RefereeError("(f1,f2) missing, cannot check Hermiticity")
        if abs(value - first.conjugate()) > IP_RTOL * self._scale("f1", "f2"):
            raise RefereeError(f"(f2,f1) = {value!r} is not conj((f1,f2)) = "
                               f"{first.conjugate()!r}")
        self._orientation("f2", "f1", value)

    def _xi_scaling(self, value: complex):
        base = self.printed.get(("quantum", "f1", "f2"))
        if base is None:
            raise RefereeError("(f1,f2) missing, cannot check xi-scaling")
        if abs(value - self.xi * base) > XI_RTOL * self.xi * self._scale("f1", "f2"):
            raise RefereeError(f"xi kernel {value!r} is not {self.xi} * {base!r}")

    @staticmethod
    def _cauchy_schwarz(value: complex, spec, f, g):
        bound = math.sqrt(kernels.positivity_check(spec, f, check=False)
                          * kernels.positivity_check(spec, g, check=False))
        if not abs(value) <= (1.0 + IP_RTOL) * bound:
            raise RefereeError(f"|(f,g)| = {abs(value):.6e} exceeds "
                               f"sqrt((f,f)(g,g)) = {bound:.6e}")


@dataclass(frozen=True)
class _SampleRun:
    label: str
    dim: int
    ensemble: Ensemble
    alias: str
    samples: int
    fmt: str
    workers: int


class SampleStream(Workload):
    """Sampler draws, spectrum accumulation and both file writers."""

    name = "sample_stream"
    SITES_PER_AXIS = 64
    RUNS = (
        # 64^3 x 40 x 8 B = 84 MB of samples, about the size of a shared L3
        _SampleRun("thermal d3 x40 binary", 3, Ensemble.QUANTUM_THERMAL,
                   "thermal", 40, "binary", 1),
        _SampleRun("vacuum d2 x200 csv workers=2", 2, Ensemble.QUANTUM_VACUUM,
                   "vacuum", 200, "csv", 2),
        _SampleRun("classical d1 x2000 csv", 1, Ensemble.CLASSICAL_EQUILIBRIUM,
                   "classical", 2000, "csv", 1),
    )

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.setup_config = write_config(work_dir / "sample.json",
                                         {"constants": CONSTANTS})
        self.constants = kernels.PhysicalConstants(**CONSTANTS)
        self.digests: dict = {}
        self.calls = [self._call(run, kgf_seed(rng)) for run in self.RUNS]

    def _call(self, run: _SampleRun, seed: int) -> Call:
        args = ["sample", "--config", str(self.setup_config),
                "--dim", str(run.dim), "--ensemble", run.alias,
                "--lattice-n", str(self.SITES_PER_AXIS),
                "--samples", str(run.samples), "--seed", str(seed),
                "--format", run.fmt, "--workers", str(run.workers)]

        def referee(result, out_dir):
            self._check(run, seed, out_dir)
        return Call(run.label, args, referee, writes_files=True)

    def _check(self, run: _SampleRun, seed: int, out_dir: Path):
        name = "samples.bin" if run.fmt == "binary" else "samples.csv"
        paths = [out_dir / name, out_dir / "spectrum.csv"]
        for path in paths:
            if not path.is_file():
                raise RefereeError(f"{path.name} was not written")
        digests = [sha256(path) for path in paths]
        known = self.digests.get(run.label)
        if known is not None:
            if digests != known:
                raise RefereeError("output bytes differ from this run's first pass")
            return
        lattice = sampler.LatticeSpec(dim=run.dim,
                                      sites_per_axis=self.SITES_PER_AXIS)
        density = SpectralDensity(run.ensemble, self.constants)
        samples = self._read_samples(paths[0], run, lattice)
        if run.workers > 1:
            reference = sampler.sample_array(density, lattice, seed,
                                             run.samples, workers=1)
            if samples.tobytes() != reference.tobytes():
                raise RefereeError(f"--workers {run.workers} file differs from "
                                   "an in-process single-worker draw")
        self._check_spectrum(paths[1], run, lattice, density)
        self.digests[run.label] = digests

    def _read_samples(self, path: Path, run: _SampleRun,
                      lattice: sampler.LatticeSpec) -> np.ndarray:
        if run.fmt == "binary":
            with open(path, "rb") as fh:
                read_lattice, samples = sampler.read_samples_binary(fh)
            if read_lattice != lattice:
                raise RefereeError(f"binary header {read_lattice} != {lattice}")
        else:
            with open(path, encoding="utf-8") as fh:
                dim, n, samples = sampler.read_samples_csv(fh)
            if (dim, n) != (lattice.dim, lattice.sites_per_axis):
                raise RefereeError(f"CSV holds D={dim} N={n}")
        if samples.shape != (run.samples,) + lattice.shape:
            raise RefereeError(f"samples shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise RefereeError("non-finite sample values")
        return samples

    def _check_spectrum(self, path: Path, run: _SampleRun,
                        lattice: sampler.LatticeSpec, density):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        dim = lattice.dim
        if rows.shape != (lattice.total_sites, dim + 4):
            raise RefereeError(f"spectrum CSV shape {rows.shape}")
        index, mean, stderr, count, expected = (
            rows[:, :dim], rows[:, dim], rows[:, dim + 1], rows[:, dim + 2],
            rows[:, dim + 3])
        if not np.all(count == run.samples):
            raise RefereeError("spectrum count column is not the sample count")
        kmag = np.sqrt(np.sum(index**2, axis=1)) * (
            2.0 * math.pi / (lattice.sites_per_axis * lattice.spacing))
        contract = lattice.volume / (2.0 * spectral_coefficient(density, kmag))
        if not np.allclose(expected, contract, rtol=1e-12, atol=0.0):
            raise RefereeError("expected column is not V/(2c(|k|))")
        inside = np.abs(mean - expected) <= MODE_SIGMA * stderr
        fraction = float(np.mean(inside))
        if fraction < MODE_PASS_FRACTION:
            raise RefereeError(f"{fraction:.2%} of modes within {MODE_SIGMA} "
                               f"standard errors, need {MODE_PASS_FRACTION:.0%}")


class VerifyAll(Workload):
    """The cross-module verification suite on a seeded stream."""

    name = "verify_all"

    def __init__(self, seed: int, work_dir: Path):
        verify_seed = kgf_seed(np.random.default_rng(seed))
        self.setup_config = write_config(work_dir / "verify.json",
                                         {"seed": verify_seed})

        def referee(result, _out):
            if not _VERIFY_DONE.search(result.stdout):
                raise RefereeError("verify did not report 8 passed")
        self.calls = [Call("verify --suite all",
                           ["verify", "--suite", "all", "--config",
                            str(self.setup_config), "--seed", str(verify_seed)],
                           referee)]


WORKLOADS = {cls.name: cls for cls in (ExpectD1, KernelsD23, SampleStream, VerifyAll)}
