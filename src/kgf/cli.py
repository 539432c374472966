"""Command-line front end: reproducible batch runs with CSV/JSON artifacts.

Subcommands
-----------
innerprod   one invariant inner product with quadrature diagnostics
expect      vacuum expectation value of an operator string
spectra     spectral coefficients c(k) on a wavenumber grid, as CSV
sample      lattice field samples plus their power-spectrum estimate
verify      the cross-module verification suite

Configuration precedence: command-line flag, then --config JSON document,
then built-in default.  Every floating-point value is printed with 17
significant digits so artifacts round-trip exactly.  Exit codes: 0 on
success, 2 on validation errors, 3 on accuracy errors.  The sampling
worker count comes from --workers alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import opalgebra, sampler, spectra, verify
from .errors import AccuracyError, InvalidInputError, KGFError
from .kernels import (
    KernelSpec,
    KernelVariant,
    PhysicalConstants,
    QuadratureSpec,
    WavePacket,
    inner_product_with_diagnostics,
)
from .spectra import Ensemble, SpectralDensity, lambda_of_xi, spectral_coefficient

__all__ = ["main", "build_parser", "CONFIG_SCHEMA", "load_config"]

ENSEMBLE_ALIASES = {
    "classical": Ensemble.CLASSICAL_EQUILIBRIUM,
    "classical_equilibrium": Ensemble.CLASSICAL_EQUILIBRIUM,
    "vacuum": Ensemble.QUANTUM_VACUUM,
    "quantum_vacuum": Ensemble.QUANTUM_VACUUM,
    "thermal": Ensemble.QUANTUM_THERMAL,
    "quantum_thermal": Ensemble.QUANTUM_THERMAL,
    "xivacuum": Ensemble.XI_VACUUM,
    "xi_vacuum": Ensemble.XI_VACUUM,
    "xilambda": Ensemble.XI_LAMBDA,
    "xi_lambda": Ensemble.XI_LAMBDA,
}

KERNEL_ALIASES = {
    "quantum": KernelVariant.QUANTUM,
    "classical": KernelVariant.CLASSICAL,
    "xi": KernelVariant.XI_SCALED,
}

_NUMBER = {"type": "number"}
_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": 3}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "constants": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hbar": _NUMBER, "kT": _NUMBER, "mass": _NUMBER, "xi": _NUMBER,
            },
        },
        "dim": {"type": "integer", "enum": [1, 2, 3]},
        "packets": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "center_t": _NUMBER,
                    "center_x": _VECTOR,
                    "width_t": _NUMBER,
                    "width_x": _NUMBER,
                    "carrier_freq": _NUMBER,
                    "carrier_wavevector": _VECTOR,
                    "amplitude": {
                        "type": "array", "items": _NUMBER,
                        "minItems": 2, "maxItems": 2,
                    },
                },
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cutoff": {"type": ["number", "null"]},
                "nodes": {"type": "integer", "minimum": 16},
                "rule": {"type": "string", "enum": ["gauss-legendre"]},
            },
        },
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sites_per_axis": {"type": "integer", "minimum": 8},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "ensemble": {"type": "string", "enum": sorted(ENSEMBLE_ALIASES)},
        "lambda": {"type": "number", "exclusiveMinimum": 0},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "k_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "min": {"type": "number", "minimum": 0},
                "max": {"type": "number", "exclusiveMinimum": 0},
                "count": {"type": "integer", "minimum": 2},
            },
        },
    },
}


#: The JSON Schema keywords that :func:`_schema_error` interprets.
_SCHEMA_KEYWORDS = frozenset({
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "properties",
    "additionalProperties", "items", "minItems", "maxItems",
})
_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "null": type(None), "number": (int, float), "integer": int}


def _is_type(value, name: str) -> bool:
    """JSON Schema's ``type``: a bool is no number, 16.0 is an integer."""
    if isinstance(value, bool):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _schema_error(value, schema: dict, path: tuple = ()):
    """The first ``(path, reason)`` where ``value`` breaks ``schema``, or None.

    Interprets only :data:`_SCHEMA_KEYWORDS`, the ones CONFIG_SCHEMA uses;
    like JSON Schema, a bound ignores non-numbers and passes NaN.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(value, name) for name in types):
        return path, f"{value!r} is not of type {' or '.join(map(repr, types))}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if _is_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, f"{value!r} is not above {schema['exclusiveMinimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    children = []
    if isinstance(value, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not low <= len(value) <= high:
            return path, f"{value!r} does not have {low} to {high} items"
        children = [(i, item, schema.get("items", {})) for i, item in enumerate(value)]
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        for key, item in value.items():
            if key not in known and extra is False:
                return path, f"additional property {key!r} is not allowed"
            children.append((key, item, known.get(key, extra)))
    for key, item, sub in children:
        error = _schema_error(item, sub, path + (key,))
        if error is not None:
            return error
    return None


def load_config(path: str | None) -> dict:
    """Read and schema-validate the JSON config; {} when no path given."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError(
            f"config {path} nests arrays or objects deeper than the JSON "
            f"parser's recursion limit ({sys.getrecursionlimit()})"
        ) from None
    error = _schema_error(raw, CONFIG_SCHEMA)
    if error is not None:
        at, reason = error
        where = "/".join(str(p) for p in at) or "(top level)"
        raise InvalidInputError(
            f"config {path} failed validation at {where}: {reason}"
        )
    return raw


def _pick(flag, config: dict, key: str, default):
    """Flag beats config beats default."""
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _constants(args, config: dict) -> PhysicalConstants:
    section = config.get("constants", {})
    return PhysicalConstants(
        hbar=float(_pick(args.hbar, section, "hbar", 1.0)),
        kT=float(_pick(args.kT, section, "kT", 1.0)),
        mass=float(_pick(args.mass, section, "mass", 1.0)),
        xi=float(_pick(args.xi, section, "xi", 1.0)),
    )


def _dim(args, config: dict) -> int:
    return int(_pick(args.dim, config, "dim", 1))


def _seed(args, config: dict, default: int = 0) -> int:
    seed = int(_pick(args.seed, config, "seed", default))
    if not 0 <= seed < 2**64:
        raise InvalidInputError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _quadrature(config: dict) -> QuadratureSpec:
    section = config.get("quadrature", {})
    return QuadratureSpec(
        cutoff=section.get("cutoff"),
        nodes=int(section.get("nodes", 256)),
    )


def _packet(dim: int, fields: dict) -> WavePacket:
    amp = fields.get("amplitude", [1.0, 0.0])
    return WavePacket(
        dim=dim,
        center_t=float(fields.get("center_t", 0.0)),
        center_x=fields.get("center_x"),
        width_t=float(fields.get("width_t", 1.0)),
        width_x=float(fields.get("width_x", 1.0)),
        carrier_freq=float(fields.get("carrier_freq", 0.0)),
        carrier_wavevector=fields.get("carrier_wavevector"),
        amplitude=complex(float(amp[0]), float(amp[1])),
    )


def _registry(args, config: dict, names) -> opalgebra.FunctionRegistry:
    """The configured packets among ``names``, in config order.

    Packets the command does not name are neither built nor integrated.
    """
    dim = _dim(args, config)
    registry = opalgebra.FunctionRegistry()
    for name, fields in config.get("packets", {}).items():
        if name in names:
            registry.register(name, _packet(dim, fields))
    return registry


def _kernel_spec(args, config: dict) -> KernelSpec:
    return KernelSpec(
        variant=KERNEL_ALIASES[args.kernel],
        constants=_constants(args, config),
        dim=_dim(args, config),
        quadrature=_quadrature(config),
    )


def _density(args, config: dict) -> SpectralDensity:
    name = _pick(args.ensemble, config, "ensemble", None)
    if name is None:
        raise InvalidInputError("no ensemble given (flag --ensemble or config)")
    try:
        ensemble = ENSEMBLE_ALIASES[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown ensemble {name!r}; choose from {sorted(ENSEMBLE_ALIASES)}"
        ) from None
    constants = _constants(args, config)
    if ensemble is not Ensemble.XI_LAMBDA:
        return SpectralDensity(ensemble, constants)
    lam = _pick(args.lam, config, "lambda", None)
    if lam is None:
        lam = lambda_of_xi(constants.xi)
    return SpectralDensity(ensemble, constants, lam=float(lam))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 or math.isnan(value.imag) else "-"
    return f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}j"


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


# --- subcommands ------------------------------------------------------------


def cmd_innerprod(args) -> int:
    config = load_config(args.config)
    spec = _kernel_spec(args, config)
    registry = _registry(args, config, {args.f, args.g})
    f = registry.packet(registry.index_of(args.f))
    g = registry.packet(registry.index_of(args.g))
    value, diag = inner_product_with_diagnostics(spec, f, g)
    print(f"({args.f}, {args.g})_{args.kernel} = {_fmt_complex(value)}")
    print(
        f"quadrature: cutoff {_fmt(diag.cutoff)}, nodes {diag.nodes}, "
        f"refined {_fmt_complex(diag.refined)}, "
        f"relative shift {_fmt(diag.relative_shift)}"
    )
    return 0


def _show_pairings(term, word, pairings, table):
    count = 0
    for count, pairing in enumerate(pairings, start=1):
        product = term.coefficient
        label = "".join(f"({p + 1},{q + 1})" for p, q in pairing)
        for p, q in pairing:
            product *= table[(word[q][1], word[p][1])]
        print(f"pairing {label}: {_fmt_complex(product)}")
    print(f"{count} pairings")


def cmd_expect(args) -> int:
    config = load_config(args.config)
    spec = _kernel_spec(args, config)
    terms = opalgebra.parse_terms(args.expression)
    pairings = None
    if args.show_pairings:
        if len(terms) != 1 or not terms[0].is_phi_product:
            raise InvalidInputError(
                "--show-pairings needs a single product of phi factors"
            )
        pairings = opalgebra.enumerate_pairings(len(terms[0].factors))
    registry = _registry(args, config,
                         {ident for term in terms for _, ident in term.factors})
    words = [[(keyword, registry.index_of(ident))
              for keyword, ident in term.factors] for term in terms]
    table = opalgebra.InnerProductTable.from_kernel(spec, registry)
    if pairings is not None:
        _show_pairings(terms[0], words[0], pairings, table)
    value = sum((term.coefficient * opalgebra.contract(word, table)
                 for term, word in zip(terms, words)), 0.0 + 0.0j)
    print(f"<0| {args.expression} |0> = {_fmt_complex(value)}")
    return 0


def cmd_spectra(args) -> int:
    config = load_config(args.config)
    density = _density(args, config)
    grid_cfg = config.get("k_grid", {})
    kmin = float(_pick(args.kmin, grid_cfg, "min", 0.0))
    kmax = float(_pick(args.kmax, grid_cfg, "max", 10.0))
    count = int(_pick(args.kcount, grid_cfg, "count", 256))
    if not (kmax > kmin >= 0.0 and count >= 2):
        raise InvalidInputError(
            f"bad k grid: min {kmin}, max {kmax}, count {count}"
        )
    lines = ["k,c"]
    step = (kmax - kmin) / (count - 1)
    for i in range(count):
        k = kmin + step * i
        lines.append(f"{_fmt(k)},{_fmt(spectral_coefficient(density, k))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        path = _out_dir(args) / "coefficients.csv"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    config = load_config(args.config)
    density = _density(args, config)
    lattice_cfg = config.get("lattice", {})
    lattice = sampler.LatticeSpec(
        dim=_dim(args, config),
        sites_per_axis=int(
            _pick(args.lattice_n, lattice_cfg, "sites_per_axis", 64)
        ),
        spacing=float(_pick(args.spacing, lattice_cfg, "spacing", 1.0)),
    )
    n = int(_pick(args.samples, config, "samples", 100))
    seed = _seed(args, config)
    chunks = sampler.sample_chunks(density, lattice, seed, n,
                                   pin_zero_mode=args.pin_zero_mode,
                                   workers=args.workers)
    out = _out_dir(args)
    text = args.format == "csv"
    path = out / ("samples.csv" if text else "samples.bin")
    acc = sampler.SpectrumAccumulator(lattice)
    with open(path, "w" if text else "wb",
              encoding="utf-8" if text else None) as fh:
        write = sampler.samples_writer(fh, lattice, args.format)
        for chunk in chunks:
            write(chunk.start, chunk.values)
            acc.add(chunk)
    print(f"wrote {path} ({n} samples, seed {seed}, workers {args.workers})")
    if n >= 2:
        expected = sampler.expected_power(density, lattice,
                                          pin_zero_mode=args.pin_zero_mode)
        spath = out / "spectrum.csv"
        with open(spath, "w", encoding="utf-8") as fh:
            sampler.write_spectrum_csv(fh, acc.finalize(), expected)
        print(f"wrote {spath}")
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    seed = _seed(args, config, verify.DEFAULT_SEED)
    results = verify.run_suite(args.suite, seed=seed)
    print(verify.format_results(results))
    return 0 if all(r.passed for r in results) else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="U64")
    common.add_argument("--dim", type=int, choices=(1, 2, 3))
    common.add_argument("--hbar", type=float, metavar="F")
    common.add_argument("--kT", type=float, metavar="F")
    common.add_argument("--mass", type=float, metavar="F")
    common.add_argument("--xi", type=float, metavar="F")

    parser = argparse.ArgumentParser(
        prog="kgf",
        description="Klein-Gordon field toolkit: invariant kernels, operator "
                    "algebra, spectral densities, lattice sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("innerprod", parents=[common],
                       help="one inner product with quadrature diagnostics")
    p.add_argument("--kernel", choices=sorted(KERNEL_ALIASES), default="quantum")
    p.add_argument("-f", required=True, metavar="NAME", help="first packet name")
    p.add_argument("-g", required=True, metavar="NAME", help="second packet name")
    p.set_defaults(func=cmd_innerprod)

    p = sub.add_parser("expect", parents=[common],
                       help="vacuum expectation value of an operator string")
    p.add_argument("expression", help="e.g. \"phi[f1] phi[f2]\"")
    p.add_argument("--kernel", choices=sorted(KERNEL_ALIASES), default="quantum")
    p.add_argument("--show-pairings", action="store_true",
                   help="list Wick pairings of a phi product")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("spectra", parents=[common],
                       help="spectral coefficients on a k grid, as CSV")
    p.add_argument("--ensemble", choices=sorted(ENSEMBLE_ALIASES))
    p.add_argument("--lambda", dest="lam", type=float,
                   help="Gibbs scale of the xi-lambda ensemble "
                        "(default: the closure value)")
    p.add_argument("--kmin", type=float)
    p.add_argument("--kmax", type=float)
    p.add_argument("--kcount", type=int)
    p.add_argument("--out", metavar="DIR", help="write coefficients.csv here")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("sample", parents=[common],
                       help="draw lattice field samples and their spectrum")
    p.add_argument("--ensemble", choices=sorted(ENSEMBLE_ALIASES))
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lattice-n", type=int, metavar="N",
                   help="sites per axis (power of two)")
    p.add_argument("--spacing", type=float, metavar="A")
    p.add_argument("--samples", type=int, metavar="COUNT")
    p.add_argument("--workers", type=int, default=1,
                   help="sampling threads (default 1)")
    p.add_argument("--pin-zero-mode", action="store_true",
                   help="set the k=0 mode to zero instead of failing when c(0)=0")
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.add_argument("--out", metavar="DIR", help="artifact output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", parents=[common],
                       help="run the cross-module verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except KGFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
