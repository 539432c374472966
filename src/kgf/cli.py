"""Command-line front end: reproducible batch runs with CSV/JSON artifacts.

Subcommands
-----------
innerprod   one invariant inner product with quadrature diagnostics
expect      vacuum expectation value of an operator string
spectra     spectral coefficients c(k) on a wavenumber grid, as CSV
sample      lattice field samples plus their power-spectrum estimate
verify      the cross-module verification suite

Configuration precedence: command-line flag, then --config JSON document,
then default, read from the dataclass that owns the value where one does.
A flag that overrides a config key has the key as its argparse ``dest``
(``--kmin`` is ``k_grid.min``), and :func:`_settings` resolves them all
once per run.  A ``--lambda`` flag with an ensemble other than xi_lambda
exits 2; a config ``lambda`` is ignored there.  Each subcommand takes only
the flags it reads.  Every floating-point value is printed with 17
significant digits so artifacts round-trip exactly.  Exit codes: 0 on
success, 1 when ``verify`` finds a failing check, 2 on validation errors,
3 on accuracy errors, and 141 (128 + SIGPIPE, as a shell reports a
program killed by a broken pipe), with no traceback, when the reader of
stdout goes away before the output is written, as in ``kgf spectra ... |
head -1``.  ``kgf sample`` accepts --workers and ignores it: blocks are
drawn one after another, whatever it says.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import AccuracyError, FunctionLookupError, InvalidInputError, KGFError
from .kernels import (
    KernelSpec,
    KernelVariant,
    PhysicalConstants,
    QuadratureSpec,
    WavePacket,
    inner_product_with_diagnostics,
)

__all__ = ["main", "build_parser", "CONFIG_SCHEMA", "load_config"]

#: ``sorted(verify.SUITES)``, spelled out so that building the parser does
#: not import the verification suite.
_VERIFY_SUITES = ("algebra", "all", "fock", "kernels", "sampler", "spectra")

#: Exit code when stdout's reader has gone: 128 + SIGPIPE.
_EXIT_BROKEN_PIPE = 141

#: Most rows ``kgf spectra`` writes: about 40 MB of text, streamed in slabs;
#: the k and c columns and their evaluation peak at about 42 MiB.
MAX_K_GRID_COUNT = 2**20

#: Each ensemble's short alias and the ``spectra.Ensemble`` value it stands
#: for, spelled out so that building the parser does not import kgf.spectra.
ENSEMBLE_ALIASES = {"classical": "classical_equilibrium", "vacuum": "quantum_vacuum",
                    "thermal": "quantum_thermal", "xivacuum": "xi_vacuum",
                    "xilambda": "xi_lambda"}
_ENSEMBLE_NAMES = sorted([*ENSEMBLE_ALIASES, *ENSEMBLE_ALIASES.values()])

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
            "properties": {"nodes": {"type": "integer", "minimum": 16}},
        },
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sites_per_axis": {"type": "integer", "minimum": 8},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "ensemble": {"type": "string", "enum": _ENSEMBLE_NAMES},
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
               "number": (int, float), "integer": int}


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
    name = schema.get("type")
    if name is not None and not _is_type(value, name):
        return path, f"{value!r} is not of type {name!r}"
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


def _unfloatable(value, path: tuple = ()):
    """The first ``(path, reason)`` where ``value`` holds an integer past the
    float range, or None.  Not in _schema_error: JSON Schema has no such bound."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            error = _unfloatable(item, path + (key,))
            if error is not None:
                return error
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        return path, f"an integer of {len(str(abs(value)))} digits is outside the float range"
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
    except ValueError as exc:  # bad JSON, bad UTF-8, or past the int digit limit
        raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError(
            f"config {path} nests arrays or objects deeper than the JSON "
            f"parser's recursion limit ({sys.getrecursionlimit()})"
        ) from None
    error = _schema_error(raw, CONFIG_SCHEMA) or _unfloatable(raw)
    if error is not None:
        at, reason = error
        where = "/".join(str(p) for p in at) or "(top level)"
        raise InvalidInputError(
            f"config {path} failed validation at {where}: {reason}"
        )
    return raw


def _typed(value, schema: dict):
    """``value`` with each number an int or a float as ``schema`` types it."""
    kind = schema.get("type")
    if kind in ("integer", "number"):
        return int(value) if kind == "integer" else float(value)
    if isinstance(value, dict):
        known, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        return {key: _typed(item, known.get(key, extra)) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item, schema.get("items", {})) for item in value]
    return value


def _settings(args) -> dict:
    """The run's settings: the --config document with every flag given
    written over the config key its argparse ``dest`` names (``section.key``
    for an entry of a section), each number typed as CONFIG_SCHEMA declares
    it.  A key that neither gives is absent, for its default to apply."""
    settings = load_config(args.config)
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is not None and (section or key) in CONFIG_SCHEMA["properties"]:
            (settings.setdefault(section, {}) if section else settings)[key] = value
    return _typed(settings, CONFIG_SCHEMA)


def _declared(cls, **values):
    """``cls(**values)``; a value of None keeps the default ``cls`` declares."""
    return cls(**{key: value for key, value in values.items() if value is not None})


def _seed(settings: dict, default: int = 0) -> int:
    seed = settings.get("seed", default)
    if not 0 <= seed < 2**64:
        raise InvalidInputError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _packets(settings: dict, names) -> dict:
    """The configured packets of ``names``, by name, in config order, refusing
    the first of ``names`` with none.  Packets the command does not name are
    neither built nor integrated."""
    packets = {name: _declared(WavePacket, **{
                   **fields, "dim": settings.get("dim"),
                   "amplitude": complex(*fields["amplitude"]) if "amplitude" in fields else None})
               for name, fields in settings.get("packets", {}).items() if name in names}
    for name in names:
        if name not in packets:
            raise FunctionLookupError(f"unknown function name {name!r}")
    return packets


def _kernel_spec(args, settings: dict) -> KernelSpec:
    return _declared(
        KernelSpec,
        variant=None if args.kernel is None else KernelVariant(args.kernel),
        constants=PhysicalConstants(**settings.get("constants", {})),
        dim=settings.get("dim"),
        quadrature=QuadratureSpec(**settings.get("quadrature", {})),
    )


def _lattice(settings: dict) -> sampler.LatticeSpec:
    from . import sampler

    return _declared(sampler.LatticeSpec, dim=settings.get("dim"),
                     **settings.get("lattice", {}))


def _density(args, settings: dict) -> spectra.SpectralDensity:
    from .spectra import Ensemble, SpectralDensity, lambda_of_xi

    name = settings.get("ensemble")
    if name is None:
        raise InvalidInputError("no ensemble given (flag --ensemble or config)")
    try:
        ensemble = Ensemble(ENSEMBLE_ALIASES.get(name, name))
    except ValueError:
        raise InvalidInputError(
            f"unknown ensemble {name!r}; choose from {_ENSEMBLE_NAMES}"
        ) from None
    constants = PhysicalConstants(**settings.get("constants", {}))
    if ensemble is not Ensemble.XI_LAMBDA:
        # a config lambda is ignored here, a --lambda flag refused
        if getattr(args, "lambda") is not None:
            raise InvalidInputError(
                f"--lambda applies only to the xi_lambda ensemble, not {ensemble.value}"
            )
        return SpectralDensity(ensemble, constants)
    lam = settings["lambda"] if "lambda" in settings else lambda_of_xi(constants.xi)
    return SpectralDensity(ensemble, constants, lam=lam)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 or math.isnan(value.imag) else "-"
    return f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}j"


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot create output directory {path}: {exc.strerror}") from None
    return path


@contextlib.contextmanager
def _open_out(path: Path):
    """``path`` opened for writing bytes; an exit-2 error naming it if it
    cannot be.  The file is removed if the block or the closing flush
    raises, so a failed command leaves no partial artifact."""
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise InvalidInputError(
            f"cannot open {path} for writing: {exc.strerror}") from None
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


# --- subcommands ------------------------------------------------------------


def cmd_innerprod(args, settings: dict) -> int:
    spec = _kernel_spec(args, settings)
    packets = _packets(settings, dict.fromkeys((args.f, args.g)))
    f, g = packets[args.f], packets[args.g]
    value, diag = inner_product_with_diagnostics(spec, f, g)
    print(f"({args.f}, {args.g})_{spec.variant.value} = {_fmt_complex(value)}")
    print(
        f"quadrature: cutoff {_fmt(diag.cutoff)}, nodes {diag.nodes}, "
        f"refined {_fmt_complex(diag.refined)}, "
        f"relative shift {_fmt(diag.relative_shift)}"
    )
    return 0


def _show_pairings(term, pairings, table):
    count = 0
    for count, pairing in enumerate(pairings, start=1):
        product = term.coefficient
        label = "".join(f"({p + 1},{q + 1})" for p, q in pairing)
        for p, q in pairing:
            product *= table[(term.factors[q][1], term.factors[p][1])]
        print(f"pairing {label}: {_fmt_complex(product)}")
    print(f"{count} pairings")


def cmd_expect(args, settings: dict) -> int:
    from . import opalgebra

    spec = _kernel_spec(args, settings)
    terms = opalgebra.parse_terms(args.expression)
    pairings = None
    if args.show_pairings:
        if len(terms) != 1 or not terms[0].is_phi_product:
            raise InvalidInputError(
                "--show-pairings needs a single product of phi factors"
            )
        pairings = opalgebra.enumerate_pairings(len(terms[0].factors))
    packets = _packets(settings, dict.fromkeys(
        name for term in terms for _, name in term.factors))
    # a word is a term's letters (keyword, name) as they are; each distinct
    # word is contracted once, weighted by its terms' summed coefficients,
    # in the order of its first term
    words: dict = {}
    for term in terms:
        words[term.factors] = words.get(term.factors, 0.0) + term.coefficient
    # unit weights make every pair the letter kinds allow nonzero, so this
    # visits the most states any table can: a word past the limit is
    # refused before any integral is evaluated
    unit = collections.defaultdict(lambda: 1.0)
    for word in words:
        opalgebra.contract(word, unit)
    table = opalgebra.InnerProductTable.from_kernel(spec, packets)
    value = sum((coefficient * opalgebra.contract(word, table)
                 for word, coefficient in words.items()), 0.0 + 0.0j)
    if not np.isfinite(value):
        raise AccuracyError("the vacuum expectation value is not finite: "
                            f"{_fmt_complex(value)}")
    if pairings is not None:
        _show_pairings(terms[0], pairings, table)
    print(f"<0| {args.expression} |0> = {_fmt_complex(value)}")
    return 0


def cmd_spectra(args, settings: dict) -> int:
    density = _density(args, settings)
    grid = {"min": 0.0, "max": 10.0, "count": 256, **settings.get("k_grid", {})}
    kmin, kmax, count = grid["min"], grid["max"], grid["count"]
    for bound, value in (("min", kmin), ("max", kmax)):
        if not math.isfinite(value):
            raise InvalidInputError(f"bad k grid: {bound} must be finite, got {value}")
    if not (kmax > kmin >= 0.0 and 2 <= count <= MAX_K_GRID_COUNT):
        raise InvalidInputError(
            f"bad k grid: min {kmin}, max {kmax}, count {count} "
            f"(count at most MAX_K_GRID_COUNT = {MAX_K_GRID_COUNT})"
        )
    from . import sampler, spectra

    path = _out_dir(args) / "coefficients.csv" if args.out else None
    sys.stdout.flush()  # text already printed goes first: the CSV skips the text layer
    with _open_out(path) if path else contextlib.nullcontext(sys.stdout.buffer) as fh:
        k = kmin + (kmax - kmin) / (count - 1) * np.arange(count)
        sampler.write_coefficients_csv(fh, k, spectra.spectral_coefficient(density, k))
    if path:
        print(f"wrote {path}")
    return 0


def cmd_sample(args, settings: dict) -> int:
    from . import sampler

    density = _density(args, settings)
    lattice = _lattice(settings)
    n = settings.get("samples", 100)
    seed = _seed(settings)
    chunks = sampler.sample_chunks(density, lattice, seed, n,
                                   pin_zero_mode=args.pin_zero_mode)
    out = _out_dir(args)
    path = out / ("samples.csv" if args.format == "csv" else "samples.bin")
    spath = out / "spectrum.csv"
    acc = sampler.SpectrumAccumulator(lattice)
    # every artifact is opened before the first draw, and none is kept if one fails
    with contextlib.ExitStack() as files:
        fh = files.enter_context(_open_out(path))
        sfh = files.enter_context(_open_out(spath)) if n >= 2 else None
        write = sampler.samples_writer(fh, lattice, args.format)
        for chunk in chunks:
            write(chunk.start, chunk.values)
            acc.add(chunk)
        if sfh is not None:
            sampler.write_spectrum_csv(sfh, acc.finalize(), chunk.expected)
    print(f"wrote {path} ({n} samples, seed {seed})")
    if n >= 2:
        print(f"wrote {spath}")
    return 0


def cmd_verify(args, settings: dict) -> int:
    from . import verify

    seed = _seed(settings, verify.DEFAULT_SEED)
    results = verify.run_suite(args.suite, seed=seed)
    print(verify.format_results(results))
    return 0 if all(r.passed for r in results) else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One parent parser per flag group; each subcommand lists the groups
    its ``cmd_*`` reads, so argparse refuses every other flag (exit 2).  A
    flag that overrides a config key has that key as its ``dest``."""
    def group(*flags, **options):
        parent = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            parent.add_argument(flag, **options)
        return parent

    config = group("--config", metavar="PATH", help="JSON run configuration")
    seed = group("--seed", type=int, metavar="U64")
    dim = group("--dim", type=int, choices=(1, 2, 3))
    constants = group()
    for field in dataclasses.fields(PhysicalConstants):
        constants.add_argument(f"--{field.name}", dest=f"constants.{field.name}",
                               type=float, metavar="F")
    kernel = group("--kernel", choices=sorted(v.value for v in KernelVariant))
    ensemble = group("--ensemble", choices=_ENSEMBLE_NAMES)
    ensemble.add_argument("--lambda", dest="lambda", type=float, metavar="LAM",
                          help="Gibbs scale of the xi_lambda ensemble, refused "
                               "with any other (default: the closure value)")
    out = group("--out", metavar="DIR", help="artifact output directory")

    parser = argparse.ArgumentParser(
        prog="kgf",
        description="Klein-Gordon field toolkit: invariant kernels, operator "
                    "algebra, spectral densities, lattice sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("innerprod", parents=[config, dim, constants, kernel],
                       help="one inner product with quadrature diagnostics")
    p.add_argument("-f", required=True, metavar="NAME", help="first packet name")
    p.add_argument("-g", required=True, metavar="NAME", help="second packet name")
    p.set_defaults(func=cmd_innerprod)

    p = sub.add_parser("expect", parents=[config, dim, constants, kernel],
                       help="vacuum expectation value of an operator string")
    p.add_argument("expression", help="e.g. \"phi[f1] phi[f2]\"")
    p.add_argument("--show-pairings", action="store_true",
                   help="list Wick pairings of a phi product")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("spectra", parents=[config, constants, ensemble, out],
                       help="spectral coefficients on a k grid, as CSV")
    p.add_argument("--kmin", dest="k_grid.min", type=float, metavar="KMIN")
    p.add_argument("--kmax", dest="k_grid.max", type=float, metavar="KMAX")
    p.add_argument("--kcount", dest="k_grid.count", type=int, metavar="KCOUNT")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("sample",
                       parents=[config, seed, dim, constants, ensemble, out],
                       help="draw lattice field samples and their spectrum")
    p.add_argument("--lattice-n", dest="lattice.sites_per_axis", type=int, metavar="N",
                   help="sites per axis (power of two)")
    p.add_argument("--spacing", dest="lattice.spacing", type=float, metavar="A")
    p.add_argument("--samples", type=int, metavar="COUNT")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: blocks are drawn one after another")
    p.add_argument("--pin-zero-mode", action="store_true",
                   help="set the k=0 mode to zero instead of failing when c(0)=0")
    p.add_argument("--format", choices=("csv", "binary"), default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", parents=[config, seed],
                       help="run the cross-module verification suite")
    p.add_argument("--suite", choices=_VERIFY_SUITES, default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, _settings(args))
        sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except BrokenPipeError:
        # drop what is still buffered, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except KGFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
