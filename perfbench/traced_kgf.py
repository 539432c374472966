"""Run one kgf command with a span around each layer entry point it reaches.

    python perfbench/traced_kgf.py SPANS_FILE KGF_ARGS...

Each entry point is replaced where its caller looks it up (a module or
class attribute), so kgf itself is unchanged.  Spans are written to
SPANS_FILE when the command ends; the exit code is the command's.

``kgf.verify.SUITES`` is left alone: ``run_suite`` dispatches on the
identity of the functions it holds, so a wrapped check would receive the
wrong arguments.  Per-check times come from what ``kgf verify`` prints.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

from spans import Recorder


def _double_factorial(n: int) -> int:
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def _letters(expr) -> list:
    return list(max(expr.terms, key=len)) if expr.terms else []


def install(rec: Recorder):
    """Wrap the entry points of every kgf layer; returns nothing."""
    from kgf import cli, kernels, opalgebra, sampler, verify

    def plain(owner, attr: str, name: str):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return rec.call(name, original, *args, **kwargs)
        setattr(owner, attr, wrapper)

    plain(cli, "load_config", "cli.load_config")

    # Every inner product, whoever asks for it, ends in this function:
    # kernels.inner_product and positivity_check look it up in kgf.kernels,
    # the CLI holds its own reference.
    ip_original = kernels.inner_product_with_diagnostics

    @functools.wraps(ip_original)
    def inner_product_with_diagnostics(spec, f, g, check=True):
        nodes = spec.quadrature.nodes
        evaluated = nodes**spec.dim + ((2 * nodes)**spec.dim if check else 0)
        span = rec.open(f"kernels.ip_d{spec.dim}", {"nodes": evaluated})
        try:
            return ip_original(spec, f, g, check=check)
        finally:
            rec.close(span)
    kernels.inner_product_with_diagnostics = inner_product_with_diagnostics
    cli.inner_product_with_diagnostics = inner_product_with_diagnostics

    tables = set()
    from_kernel = opalgebra.InnerProductTable.from_kernel.__func__

    @functools.wraps(from_kernel)
    def table_from_kernel(cls, spec, registry, check=True):
        n = len(registry)
        span = rec.open("kernels.table_build", {"pairs": n * (n + 1) // 2})
        try:
            table = from_kernel(cls, spec, registry, check=check)
        finally:
            rec.close(span)
        tables.add(id(table))
        return table
    opalgebra.InnerProductTable.from_kernel = classmethod(table_from_kernel)

    plain(opalgebra, "parse_terms", "opalgebra.parse_terms")
    parse_expression = opalgebra.parse_expression

    @functools.wraps(parse_expression)
    def parse_expression_wrapper(text, registry):
        span = rec.open("opalgebra.parse_expression")
        try:
            expr = parse_expression(text, registry)
        finally:
            rec.close(span)
        span[4] = {"words": len(expr.terms)}
        return expr
    opalgebra.parse_expression = parse_expression_wrapper

    vacuum_expectation = opalgebra.vacuum_expectation

    @functools.wraps(vacuum_expectation)
    def vev(expr, ip, strategy="leftmost"):
        letters = _letters(expr)
        indices = {index for _, index in letters}
        if len(expr.terms) == 1:
            kind = "ladder"
        elif len(indices) == len(letters):
            kind = "distinct"
        else:
            kind = "repeated"
        n = len(letters)
        counts = {"pairings": _double_factorial(n) if n % 2 == 0 else 0}
        if id(ip) in tables:
            k = len(indices)
            counts["used_pairs"] = k * (k + 1) // 2
        span = rec.open(f"opalgebra.vev_{kind}", counts)
        try:
            return vacuum_expectation(expr, ip, strategy=strategy)
        finally:
            rec.close(span)
    opalgebra.vacuum_expectation = vev
    plain(opalgebra, "wick_vev", "opalgebra.wick_vev")

    draw = sampler._SpectrumPlan.draw

    @functools.wraps(draw)
    def draw_wrapper(plan, seed, sample_index):
        lattice = plan.lattice
        span = rec.open(f"sampler.draw_d{lattice.dim}",
                        {"sites": lattice.total_sites})
        try:
            return draw(plan, seed, sample_index)
        finally:
            rec.close(span)
    sampler._SpectrumPlan.draw = draw_wrapper

    sample_array = sampler.sample_array

    @functools.wraps(sample_array)
    def sample_array_wrapper(density, lattice, seed, n, **kwargs):
        span = rec.open("sampler.sample_array",
                        {"resident_bytes": n * lattice.total_sites * 8})
        try:
            return sample_array(density, lattice, seed, n, **kwargs)
        finally:
            rec.close(span)
    sampler.sample_array = sample_array_wrapper

    update = sampler.SpectrumAccumulator.update

    @functools.wraps(update)
    def update_wrapper(acc, cfg):
        return rec.call("sampler.accumulate", update, acc, cfg)
    sampler.SpectrumAccumulator.update = update_wrapper

    plain(sampler, "power_spectrum", "sampler.power_spectrum")
    plain(sampler, "expected_power", "sampler.expected_power")
    plain(sampler, "hamiltonian_classical", "sampler.hamiltonian_classical")
    plain(sampler, "write_samples_csv", "sampler.write_csv")
    plain(sampler, "write_samples_binary", "sampler.write_binary")
    plain(sampler, "spectrum_csv", "sampler.spectrum_csv")
    plain(verify, "run_suite", "verify.run_suite")


def main(argv: list) -> int:
    spans_path, kgf_args = Path(argv[0]), argv[1:]
    rec = Recorder()
    span = rec.open("cli.import")
    import kgf.cli
    rec.close(span)
    install(rec)
    try:
        return rec.call("cli.main", kgf.cli.main, kgf_args)
    finally:
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
