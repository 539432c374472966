"""Command-line interface: precedence, artifacts, exit codes."""

import argparse
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest depends on tomli
    import tomli as tomllib

import kgf
from kgf import cli, fockoracle, opalgebra, sampler, spectra, verify
from kgf.__main__ import _BLAS_THREAD_VARIABLES
from kgf.cli import main
from kgf.errors import InvalidInputError
from kgf.kernels import KernelSpec, PhysicalConstants, WavePacket
from kgf.sampler import read_samples_binary, read_samples_csv
from kgf.spectra import Ensemble, SpectralDensity, lambda_of_xi, spectral_coefficient

BASE_CONFIG = {
    "constants": {"mass": 1.0, "xi": 0.5},
    "packets": {
        "f1": {"width_x": 1.0, "carrier_freq": 0.5},
        "f2": {
            "center_x": [0.4],
            "carrier_wavevector": [0.8],
            "amplitude": [1.0, -0.5],
        },
    },
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def parse_value(line):
    """Trailing 're +/- imj' of a '... = value' or '...: value' line."""
    sep = " = " if " = " in line else ": "
    rhs = line.split(sep, 1)[1]
    re_s, sign, im_s = rhs.rsplit(" ", 2)
    imag = float(im_s[:-1])
    return complex(float(re_s), imag if sign == "+" else -imag)


class TestConfigHandling:
    def test_missing_file_exits_2(self, capsys):
        assert main(["innerprod", "--config", "/nonexistent.json",
                     "-f", "f1", "-g", "f2"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["innerprod", "--config", str(path),
                     "-f", "f1", "-g", "f2"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_nesting_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["spectra", "--config", str(path)]) == 2
        assert "nests arrays or objects deeper" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensemble": "maxwellian"})
        assert main(["spectra", "--config", cfg]) == 2
        assert "failed validation at ensemble" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensembel": "vacuum"})
        assert main(["spectra", "--config", cfg]) == 2
        assert "failed validation" in capsys.readouterr().err

    def test_flag_beats_config(self, tmp_path, capsys):
        heavy = dict(BASE_CONFIG, constants={"mass": 2.0, "xi": 0.5})
        cfg_heavy = write_config(tmp_path, heavy, "heavy.json")
        cfg_base = write_config(tmp_path, BASE_CONFIG, "base.json")
        assert main(["innerprod", "--config", cfg_heavy, "--mass", "1.0",
                     "-f", "f1", "-g", "f2"]) == 0
        overridden = parse_value(capsys.readouterr().out.splitlines()[0])
        assert main(["innerprod", "--config", cfg_base,
                     "-f", "f1", "-g", "f2"]) == 0
        base = parse_value(capsys.readouterr().out.splitlines()[0])
        assert overridden == base

    @pytest.mark.parametrize("key, value", [("cutoff", None), ("cutoff", 9.0),
                                            ("rule", "gauss-legendre")])
    def test_quadrature_cutoff_and_rule_keys_exit_2(self, tmp_path, capsys,
                                                    key, value):
        config = dict(BASE_CONFIG, quadrature={key: value})
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 2
        assert (f"failed validation at quadrature: additional property "
                f"{key!r} is not allowed") in capsys.readouterr().err

    def test_node_ceiling_exits_2_before_quadrature(
            self, tmp_path, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the node check")

        monkeypatch.setattr(cli, "inner_product_with_diagnostics", no_quadrature)
        config = json.loads(json.dumps(BASE_CONFIG))
        config["quadrature"] = {"nodes": 100000}
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 2
        assert "MAX_QUADRATURE_NODES" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["innerprod", "-f", "f1", "-g", "f2"],
        ["expect", "phi[f1] phi[f2]"],
        ["verify", "--suite", "spectra"],
    ])
    def test_out_is_rejected_where_nothing_is_written(self, tmp_path, command):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--config", cfg, "--out", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, out, message", [
        (["sample"], "taken", "cannot create output directory {out}: "),
        (["spectra"], "taken/sub", "cannot create output directory {out}: "),
        (["sample", "--format", "binary"], "dir", "cannot open {out}/samples.bin for writing"),
        (["sample"], "dir", "cannot open {out}/spectrum.csv for writing"),
        (["spectra"], "dir", "cannot open {out}/coefficients.csv for writing"),
    ], ids=["sample-dir-is-a-file", "spectra-dir-under-a-file", "samples-bin",
            "spectrum-csv", "coefficients-csv"])
    def test_output_that_cannot_be_created_exits_2(self, tmp_path, capsys, command,
                                                    out, message):
        (tmp_path / "taken").write_text("")
        for name in ("samples.bin", "spectrum.csv", "coefficients.csv"):
            (tmp_path / "dir" / name).mkdir(parents=True)
        sizes = (["--samples", "2", "--lattice-n", "8"] if command[0] == "sample"
                 else ["--kcount", "8"])
        out = tmp_path / out
        assert main([*command, *sizes, "--ensemble", "vacuum", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(out=out)}")

    def test_unopenable_spectrum_refuses_before_the_first_draw(self, tmp_path, capsys,
                                                               monkeypatch):
        drawn = []
        real = sampler.sample_chunks

        def spied(*args, **kwargs):
            for chunk in real(*args, **kwargs):
                drawn.append(chunk)
                yield chunk

        monkeypatch.setattr(sampler, "sample_chunks", spied)
        (tmp_path / "spectrum.csv").mkdir()
        assert main(["sample", "--ensemble", "vacuum", "--samples", "2", "--lattice-n", "8",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot open {tmp_path}/spectrum.csv")
        assert captured.out == "" and drawn == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["spectrum.csv"]

    def test_unopenable_coefficients_refuse_before_the_k_grid(self, tmp_path, capsys,
                                                              monkeypatch):
        evaluated = []

        def refused(density, k):
            evaluated.append(len(k))
            raise InvalidInputError("k grid refused")

        monkeypatch.setattr(spectra, "spectral_coefficient", refused)
        out = tmp_path / "new"
        (out / "coefficients.csv").mkdir(parents=True)
        assert main(["spectra", "--ensemble", "vacuum", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot open {out}/coefficients.csv")
        assert evaluated == []
        made = tmp_path / "made" / "sub"
        assert main(["spectra", "--ensemble", "vacuum", "--out", str(made)]) == 2
        assert capsys.readouterr().err == "error: k grid refused\n"
        assert evaluated == [256] and made.is_dir() and list(made.iterdir()) == []

    def test_failed_spectra_leaves_no_coefficients(self, tmp_path, capsys):
        assert main(["spectra", "--ensemble", "classical", "--kmax", "1e308", "--kcount", "3",
                     "--out", str(tmp_path)]) == 2
        assert "overflows at |k| = 5e+307" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensemble": "vacuum", "samples": 2})
        assert main(["sample", "--config", cfg, "--seed", "-1",
                     "--lattice-n", "8", "--out", str(tmp_path)]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert main(["verify", "--suite", "spectra", "--seed", "-1"]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err


# The options each subcommand takes, besides -h/--help.
OPTIONS = {
    "innerprod": "--config --dim --hbar --kT --mass --xi --kernel -f -g",
    "expect": "--config --dim --hbar --kT --mass --xi --kernel --show-pairings",
    "spectra": "--config --hbar --kT --mass --xi --ensemble --lambda "
               "--kmin --kmax --kcount --out",
    "sample": "--config --seed --dim --hbar --kT --mass --xi --ensemble --lambda "
              "--lattice-n --spacing --samples --workers --pin-zero-mode "
              "--format --out",
    "verify": "--config --seed --suite",
}


def subcommand_parsers():
    parser = cli.build_parser()
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_subcommand_takes_the_flags_it_reads(self, command):
        sub = subcommand_parsers()[command]
        taken = {option for action in sub._actions
                 for option in action.option_strings} - {"-h", "--help"}
        assert taken == set(OPTIONS[command].split())
        positional = [a.dest for a in sub._actions if not a.option_strings]
        assert positional == (["expression"] if command == "expect" else [])

    @pytest.mark.parametrize("command, flag", [
        (["innerprod", "-f", "f1", "-g", "f2"], ["--seed", "1"]),
        (["expect", "phi[f1] phi[f2]"], ["--seed", "1"]),
        (["spectra", "--ensemble", "thermal"], ["--dim", "3"]),
        (["spectra", "--ensemble", "thermal"], ["--seed", "9"]),
        (["verify", "--suite", "spectra"], ["--dim", "2"]),
        (["verify", "--suite", "spectra"], ["--hbar", "-1"]),
        (["verify", "--suite", "spectra"], ["--kT", "2"]),
        (["verify", "--suite", "spectra"], ["--mass", "0"]),
        (["verify", "--suite", "spectra"], ["--xi", "0.5"]),
    ])
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_unset_values_take_the_dataclass_defaults(self):
        parsers = subcommand_parsers()
        args = parsers["innerprod"].parse_args(["-f", "f", "-g", "f"])
        assert cli._settings(args) == {}
        assert cli._kernel_spec(args, {}) == KernelSpec()
        assert cli._packets({"packets": {"f": {}}}, {"f"}) == {"f": WavePacket()}
        args = parsers["sample"].parse_args([])
        assert cli._settings(args) == {}
        assert cli._density(args, {"ensemble": "vacuum"}).constants == PhysicalConstants()
        assert cli._lattice({}) == sampler.LatticeSpec()

    @pytest.mark.parametrize("command", [
        ["spectra", "--ensemble", "thermal", "--lambda", "0.3"],
        ["sample", "--ensemble", "vacuum", "--lambda", "0.3", "--lattice-n", "8",
         "--samples", "2"],
    ])
    def test_lambda_with_another_ensemble_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main([*command, "--out", str(out)]) == 2
        assert "--lambda applies only to the xi_lambda ensemble, not quantum_" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_config_lambda_with_another_ensemble_is_allowed(self, tmp_path):
        cfg = write_config(tmp_path, {"ensemble": "vacuum", "lambda": 0.3})
        assert main(["spectra", "--config", cfg, "--out", str(tmp_path)]) == 0


#: Each flag that overrides a config key: the key, a flag value, a config
#: value in JSON's other number type where the key is a number, and the
#: value when neither is given (None: the command refuses to run).
PRECEDENCE = {
    "--hbar": ("constants.hbar", 2.0, 3, PhysicalConstants().hbar),
    "--kT": ("constants.kT", 2.0, 3, PhysicalConstants().kT),
    "--mass": ("constants.mass", 2.0, 3, PhysicalConstants().mass),
    "--xi": ("constants.xi", 0.25, 0.75, PhysicalConstants().xi),
    "--dim": ("dim", 2, 3.0, 1),
    "--seed": ("seed", 7, 9.0, {"sample": 0, "verify": verify.DEFAULT_SEED}),
    "--samples": ("samples", 3, 4.0, 100),
    "--ensemble": ("ensemble", "quantum_thermal", "classical_equilibrium", None),
    "--lambda": ("lambda", 0.3, 1, lambda_of_xi(0.5)),
    "--lattice-n": ("lattice.sites_per_axis", 16, 32.0, sampler.LatticeSpec().sites_per_axis),
    "--spacing": ("lattice.spacing", 0.5, 2, sampler.LatticeSpec().spacing),
    "--kmin": ("k_grid.min", 1.0, 2, 0.0),
    "--kmax": ("k_grid.max", 5.0, 6, 10.0),
    "--kcount": ("k_grid.count", 3, 4.0, 256),
}
#: Each subcommand's argv and config without the flag under test; the
#: xi_lambda ensemble reads every constant and lambda.
PRECEDENCE_RUNS = {
    "innerprod": (["-f", "f", "-g", "f"], {"packets": {"f": {}}}),
    "expect": (["phi[f] phi[f]"], {"packets": {"f": {}}}),
    "spectra": ([], {"ensemble": "xi_lambda", "lambda": 0.2, "constants": {"xi": 0.5}}),
    "sample": ([], {"ensemble": "xi_lambda", "lambda": 0.2, "constants": {"xi": 0.5}}),
    "verify": ([], {}),
}


class Resolved(Exception):
    """Raised in place of a command's work, carrying what it was handed."""


def resolved(monkeypatch, tmp_path, command, argv, config):
    """What ``kgf command argv --config config`` hands its work, as a
    namespace whose attribute paths are the config keys."""
    def capture(**found):
        raise Resolved(found)

    monkeypatch.setattr(cli, "inner_product_with_diagnostics",
                        lambda spec, f, g: capture(spec=spec))
    monkeypatch.setattr(opalgebra.InnerProductTable, "from_kernel",
                        lambda spec, packets: capture(spec=spec))
    monkeypatch.setattr(spectra, "spectral_coefficient",
                        lambda density, k: capture(density=density, k=k))
    monkeypatch.setattr(sampler, "sample_chunks",
                        lambda density, lattice, seed, n, pin_zero_mode: capture(
                            density=density, lattice=lattice, seed=seed, n=n))
    monkeypatch.setattr(verify, "run_suite", lambda suite, seed: capture(seed=seed))
    with pytest.raises(Resolved) as found:
        main([command, *argv, "--config", write_config(tmp_path, config)])
    found = found.value.args[0]
    density, spec = found.get("density"), found.get("spec")
    run = {"seed": found.get("seed"), "samples": found.get("n"),
           "lattice": found.get("lattice")}
    if spec is not None:
        run.update(constants=spec.constants, dim=spec.dim)
    if density is not None:
        run.update(constants=density.constants, ensemble=density.ensemble.value,
                   **{"lambda": density.lam})
    if "lattice" in found:
        run["dim"] = found["lattice"].dim
    if "k" in found:
        k = found["k"]
        run["k_grid"] = SimpleNamespace(min=float(k[0]), max=float(k[-1]), count=len(k))
    return SimpleNamespace(**run)


def configured(config, key, value):
    """A copy of ``config`` with dotted ``key`` set to ``value``, or removed
    if ``value`` is None."""
    config = json.loads(json.dumps(config))
    *sections, last = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    if value is None:
        node.pop(last, None)
    else:
        node[last] = value
    return config


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, options in OPTIONS.items()
    for flag in options.split() if flag in PRECEDENCE])
def test_flag_beats_config_beats_default(command, flag, monkeypatch, tmp_path, capsys):
    """The flag wins over its config key and the config value over the
    default; a config number arrives typed as the schema declares it."""
    key, flag_value, config_value, default = PRECEDENCE[flag]
    default = default.get(command) if isinstance(default, dict) else default
    argv, config = PRECEDENCE_RUNS[command]

    def value(flags, config):
        run = resolved(monkeypatch, tmp_path, command, [*argv, *flags], config)
        return functools.reduce(getattr, key.split("."), run)

    with_config = configured(config, key, config_value)
    got = value([flag, str(flag_value)], with_config)
    assert got == flag_value and type(got) is type(flag_value)
    got = value([], with_config)
    assert got == config_value and type(got) is type(flag_value)
    without = configured(config, key, None)
    if default is None:
        assert main([command, *argv, "--config", write_config(tmp_path, without)]) == 2
        assert "no ensemble given" in capsys.readouterr().err
    else:
        assert value([], without) == default


class TestOverflowingInputs:
    @pytest.mark.filterwarnings("error")  # the exit-3 message is all of stderr
    @pytest.mark.parametrize("config", [
        {"packets": {"f": {"width_x": 1e300}, "g": {}}},
        {"constants": {"mass": 1e308}, "packets": {"f": {}, "g": {}}},
        {"dim": 2, "packets": {"f": {"carrier_wavevector": [1e200, 0]}, "g": {}}},
        {"packets": {"f": {"width_x": 1e-300}, "g": {}}},
    ])
    def test_kernel_overflow_is_a_non_finite_estimate(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "f", "-g", "g"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("accuracy error: quadrature gave a non-finite estimate")

    @pytest.mark.parametrize("command", [["innerprod", "-f", "f1", "-g", "f2"],
                                         ["expect", "phi[f1] phi[f2]"]],
                             ids=["innerprod", "expect"])
    def test_norms_past_the_float_range_still_check_convergence(self, tmp_path, capsys,
                                                                 command):
        """Massless D=1 does not converge at hbar = 1, and the product of the
        norms at hbar = 1e200 overflows; the check still fails."""
        cfg = write_config(tmp_path, BASE_CONFIG)
        shifts = []
        for hbar in ("1", "1e200"):
            assert main([*command, "--config", cfg, "--mass", "0", "--hbar", hbar]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("accuracy error: quadrature did not converge")
            shifts.append(err.rsplit("(relative shift ", 1)[1])
        assert shifts[0] == shifts[1]

    def test_norms_whose_product_underflows_are_resolved(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        lines = {}
        for hbar in ("1", "1e-170"):
            assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2",
                         "--hbar", hbar]) == 0
            lines[hbar] = capsys.readouterr().out.splitlines()
        assert parse_value(lines["1e-170"][0]) == pytest.approx(
            1e-170 * parse_value(lines["1"][0]), rel=1e-14)
        # both shifts are rounding, about 2.5e-15
        base, tiny = (float(lines[hbar][1].rsplit(" ", 1)[1]) for hbar in lines)
        assert tiny == pytest.approx(base, rel=0.5)
        assert main(["expect", "--config", cfg, "--hbar", "1e-170", "phi[f1] phi[f2]"]) == 0
        assert capsys.readouterr().out.startswith("<0| phi[f1] phi[f2] |0> = 1.69")

    @pytest.mark.parametrize("hbar, options, shown", [
        ("1e200", ["--show-pairings", "phi[f1] phi[f2] phi[f1] phi[f2]"], "nan + nanj"),
        ("1e10", ["1e300*phi[f1] phi[f2]"], "inf + infj"),
    ], ids=["nan", "inf"])
    def test_non_finite_expectation_value_exits_3(self, tmp_path, capsys, hbar, options,
                                                  shown):
        """Refused before anything is printed, the pairings too."""
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "--hbar", hbar, *options]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"accuracy error: the vacuum expectation value is not finite: {shown}\n"

    def test_spacing_whose_powers_overflow_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lattice": {"spacing": 1e300}})
        out = tmp_path / "artifacts"
        assert main(["sample", "--config", cfg, "--ensemble", "vacuum",
                     "--lattice-n", "8", "--samples", "2", "--out", str(out)]) == 2
        assert "spacing 1e+300 overflows spacing**2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_spacing_whose_wavenumbers_overflow_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lattice": {"spacing": 1e-300}})
        out = tmp_path / "artifacts"
        assert main(["sample", "--config", cfg, "--ensemble", "vacuum",
                     "--lattice-n", "8", "--samples", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("error: spacing 1e-300 overflows the mode wavenumbers' "
                        "|k|**2 = 1 (pi/spacing)**2")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_spacing_whose_powers_underflow_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dim": 3, "lattice": {"spacing": 1e-153}})
        out = tmp_path / "artifacts"
        assert main(["sample", "--config", cfg, "--ensemble", "vacuum",
                     "--lattice-n", "8", "--samples", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: spacing 1e-153 underflows spacing**6"
        assert not out.exists()

    def test_spacing_whose_mode_scales_spread_too_far_exits_2(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dim": 3, "lattice": {"spacing": 2e-51}})
        out = tmp_path / "artifacts"
        assert main(["sample", "--config", cfg, "--ensemble", "vacuum",
                     "--lattice-n", "8", "--samples", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "spacing 2e-51 and mass 1.0" in err
        assert "MAX_MODE_SCALE_RATIO" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, where", [
        ({"constants": {"mass": 10**400}}, "constants/mass: an integer of 401 digits"),
        ({"packets": {"f": {"center_x": [-(10**309)]}}}, "packets/f/center_x/0: "),
    ])
    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys, config, where):
        cfg = write_config(tmp_path, {"packets": {"f": {}}, **config})
        assert main(["innerprod", "--config", cfg, "-f", "f", "-g", "f"]) == 2
        assert f"failed validation at {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b'{"samples": ' + b"9" * 5000 + b"}",
                                      b'{"dim": \xff}'])
    def test_unreadable_numbers_and_bytes_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["spectra", "--config", str(path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err


# Every key CONFIG_SCHEMA knows, at a valid value.
FULL_CONFIG = {
    "constants": {"hbar": 1.0, "kT": 1.0, "mass": 1.0, "xi": 0.5},
    "dim": 2,
    "packets": {"f1": {
        "center_t": 0.0, "center_x": [0.0, 0.5], "width_t": 1.0,
        "width_x": 1.0, "carrier_freq": 0.0, "carrier_wavevector": [0.5, 0.0],
        "amplitude": [1.0, 0.0],
    }},
    "quadrature": {"nodes": 64},
    "lattice": {"sites_per_axis": 16, "spacing": 0.5},
    "ensemble": "vacuum",
    "lambda": 1.0,
    "samples": 3,
    "seed": 7,
    "k_grid": {"min": 0.0, "max": 4.0, "count": 8},
}

# Wrong types, bools, integral floats, each bound and its neighbours,
# vector lengths, enum members and strangers, null, NaN and +-inf.
MUTANT_VALUES = [
    True, False, None, -1, 0, 1, 2, 3, 4, 7, 8, 15, 16, 16.0, 16.5,
    -0.0, 1e-300, -1e-300, 2**64 - 1, 2**64, 1.8e19, 2.0**64,
    math.nan, math.inf, -math.inf, "", "1", "vacuum", "maxwellian",
    "gauss-legendre", "trapezoid", [], [1.0], [1.0, 2.0], [1, 2, 3],
    [1, 2, 3, 4], [True, 1.0], [None, 0.0], [1.0, "x"], {}, {"x": 1},
]


def config_places(node, path=()):
    """``(path, value)`` for ``node`` itself and for every value inside it."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from config_places(child, path + (key,))


def replaced(node, path, value):
    """A copy of ``node`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = node.copy()
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


def mutants():
    """FULL_CONFIG with each MUTANT_VALUES entry at each place, and with an
    unknown key added to each object."""
    for path, node in config_places(FULL_CONFIG):
        for value in MUTANT_VALUES:
            yield replaced(FULL_CONFIG, path, value)
        if isinstance(node, dict):
            yield replaced(FULL_CONFIG, path, dict(node, bogus=1))


def schema_keywords(schema):
    """Every keyword used anywhere in ``schema``, property names excluded."""
    for keyword, arg in schema.items():
        yield keyword
        if keyword == "properties":
            for sub in arg.values():
                yield from schema_keywords(sub)
        elif keyword in ("items", "additionalProperties") and isinstance(arg, dict):
            yield from schema_keywords(arg)


class TestConfigSchema:
    def test_every_schema_keyword_is_interpreted(self):
        used = set(schema_keywords(cli.CONFIG_SCHEMA))
        assert used <= cli._SCHEMA_KEYWORDS
        assert {"type", "enum", "minimum", "additionalProperties"} <= used

    @pytest.mark.parametrize("config, error", [
        (FULL_CONFIG, None),
        ({"samples": 16.0}, None),
        ({"lambda": math.nan, "k_grid": {"max": math.inf}}, None),
        ({"samples": True}, "at samples: True is not of type 'integer'"),
        ({"lambda": False}, "at lambda: False is not of type 'number'"),
        ({"quadrature": {"nodes": 16.5}}, "at quadrature/nodes: "),
        ({"lattice": {"spacing": -math.inf}}, "at lattice/spacing: "),
        ({"packets": {"f1": {"center_x": [0.0, "x"]}}},
         "at packets/f1/center_x/1: 'x' is not of type 'number'"),
        ({"packets": {"f1": {"width": 1.0}}}, "at packets/f1: .*'width'"),
        ([], r"at \(top level\): \[\] is not of type 'object'"),
    ])
    def test_loads_or_names_the_failing_path(self, tmp_path, config, error):
        path = write_config(tmp_path, config)
        if error is None:
            assert cli.load_config(path).keys() == config.keys()
        else:
            with pytest.raises(InvalidInputError,
                               match=f"failed validation {error}"):
                cli.load_config(path)

    def test_accepts_and_refuses_what_jsonschema_does(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        validator_class = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
        validator_class.check_schema(cli.CONFIG_SCHEMA)
        reference = validator_class(cli.CONFIG_SCHEMA)
        outcomes = {True: 0, False: 0}
        for i, config in enumerate(mutants()):
            # a fresh file each: overwriting one file costs far more on some
            # file systems than writing a new one
            path = write_config(tmp_path, config, f"mutant{i}.json")
            try:
                cli.load_config(path)
                accepted = True
            except InvalidInputError:
                accepted = False
            assert accepted == reference.is_valid(config), config
            outcomes[accepted] += 1
        assert min(outcomes.values()) > 100

    def test_loading_a_config_does_not_import_jsonschema(self, tmp_path):
        cfg = write_config(tmp_path, FULL_CONFIG)
        code = ("import sys, kgf.cli; kgf.cli.load_config(sys.argv[1]); "
                "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))")
        src = str(Path(kgf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, cfg], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestInnerprod:
    def test_output_shape_and_diagnostics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("(f1, f2)_quantum = ")
        # the cutoff is that of f2, which reaches further: 0.8 + 12/1.0
        f1 = WavePacket(width_x=1.0, carrier_freq=0.5)
        f2 = WavePacket(center_x=[0.4], carrier_wavevector=[0.8])
        assert f1.suggested_cutoff < f2.suggested_cutoff
        assert out[1].startswith(f"quadrature: cutoff {cli._fmt(f2.suggested_cutoff)}, ")
        assert "relative shift" in out[1]

    def test_xi_kernel_halves_quantum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)  # xi = 0.5
        assert main(["innerprod", "--config", cfg, "--kernel", "quantum",
                     "-f", "f1", "-g", "f2"]) == 0
        quantum = parse_value(capsys.readouterr().out.splitlines()[0])
        assert main(["innerprod", "--config", cfg, "--kernel", "xi",
                     "-f", "f1", "-g", "f2"]) == 0
        xi = parse_value(capsys.readouterr().out.splitlines()[0])
        assert xi == pytest.approx(0.5 * quantum, rel=1e-14)

    def test_unknown_packet_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "nope"]) == 2
        assert "unknown function name 'nope'" in capsys.readouterr().err

    def test_under_resolved_quadrature_exits_3(self, tmp_path, capsys):
        # massless D=1: the quantum integral diverges logarithmically at k=0
        cfg = write_config(tmp_path, {
            "constants": {"mass": 0.0},
            "packets": {"f": {"width_x": 2.0}},
        })
        assert main(["innerprod", "--config", cfg, "-f", "f", "-g", "f"]) == 3
        assert "accuracy error" in capsys.readouterr().err

    def test_narrow_packet_exits_3(self, tmp_path, capsys):
        # width 0.001 puts the cutoff at 12000, far past the integrand
        cfg = write_config(tmp_path, {
            "packets": {"f": {"width_x": 0.001, "carrier_freq": 1.0}},
        })
        assert main(["innerprod", "--config", cfg, "-f", "f", "-g", "f"]) == 3
        assert "accuracy error" in capsys.readouterr().err

    def test_d3_default_quadrature(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dim": 3, "packets": {
            "f1": {"carrier_freq": 0.5},
            "f2": {"center_x": [0.4, 0.0, -0.2], "carrier_wavevector": [0.8, 0.1, 0.0]},
        }})
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("(f1, f2)_quantum = ")
        assert "nodes 256" in out[1]


class TestExpect:
    def test_two_point_is_conjugate_of_innerprod(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 0
        ip = parse_value(capsys.readouterr().out.splitlines()[0])
        assert main(["expect", "--config", cfg, "phi[f1] phi[f2]"]) == 0
        vev = parse_value(capsys.readouterr().out.splitlines()[-1])
        assert vev == pytest.approx(ip.conjugate(), rel=1e-14)

    def test_odd_product_is_exactly_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "phi[f1] phi[f2] phi[f1]"]) == 0
        vev = parse_value(capsys.readouterr().out.splitlines()[-1])
        assert vev == 0.0

    def test_show_pairings_lists_and_sums(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "--show-pairings",
                     "phi[f1] phi[f2] phi[f1] phi[f2]"]) == 0
        out = capsys.readouterr().out.splitlines()
        pair_lines = [l for l in out if l.startswith("pairing ")]
        assert len(pair_lines) == 3
        assert "3 pairings" in out
        total = sum(parse_value(l) for l in pair_lines)
        vev = parse_value(out[-1])
        assert vev == pytest.approx(total, rel=1e-12)

    def test_show_pairings_rejects_mixed_term(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "--show-pairings",
                     "phi[f1] a[f2]"]) == 2
        assert "phi factors" in capsys.readouterr().err

    def test_syntax_error_reports_offset_and_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "phi[f1"]) == 2
        assert "offset 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--show-pairings"]])
    def test_coefficient_past_the_float_range_exits_2(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, *flags, "1e400*phi[f1] phi[f2]"]) == 2
        captured = capsys.readouterr()
        assert "'1e400' is outside the float range at offset 1" in captured.err
        assert "nan" not in captured.out

    def test_show_pairings_size_limit_exits_2_before_quadrature(
            self, tmp_path, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the size check")

        monkeypatch.setattr(opalgebra.InnerProductTable, "from_kernel",
                            no_quadrature)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "--show-pairings",
                     " ".join(["phi[f1]"] * 20)]) == 2
        assert "MAX_PAIRING_SIZE" in capsys.readouterr().err

    def test_twentieth_power_of_one_field(self, tmp_path, capsys):
        # 19!! pairings, each worth (f, f)^10: past any pairing enumeration
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f1"]) == 0
        norm = parse_value(capsys.readouterr().out.splitlines()[0])
        assert main(["expect", "--config", cfg, " ".join(["phi[f1]"] * 20)]) == 0
        vev = parse_value(capsys.readouterr().out.splitlines()[-1])
        expected = math.prod(range(1, 20, 2)) * norm**10
        assert abs(vev - expected) <= 1e-12 * abs(expected)

    def test_contraction_state_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        """Refused before any quadrature pass: 26 copies of one phi in D=1,
        and 26 distinct phi in D=2, whose table would hold 351 pairs."""
        from kgf import kernels

        passes = []
        monkeypatch.setattr(kernels, "_reduced_integral", lambda *job: passes.append(job))
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, " ".join(["phi[f1]"] * 26)]) == 2
        assert "MAX_CONTRACTION_STATES" in capsys.readouterr().err
        names = [f"g{i}" for i in range(26)]
        cfg = write_config(tmp_path, {"dim": 2, "packets": {
            name: {"center_x": [0.1 * i, 0.0]} for i, name in enumerate(names)}}, "d2.json")
        assert main(["expect", "--config", cfg, " ".join(f"phi[{n}]" for n in names)]) == 2
        assert "MAX_CONTRACTION_STATES" in capsys.readouterr().err
        assert passes == []

    def test_each_distinct_word_is_contracted_once(self, tmp_path, capsys, monkeypatch):
        """300 copies of a 20-letter word over 2 packets: one dry run and
        one value, weighted by the summed coefficients."""
        word = " ".join(["phi[f1] phi[f2]"] * 10)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, word]) == 0
        once = parse_value(capsys.readouterr().out.splitlines()[-1])
        contracted = []
        contract = opalgebra.contract
        monkeypatch.setattr(opalgebra, "contract",
                            lambda word, ip: contracted.append(word) or contract(word, ip))
        start = time.perf_counter()
        assert main(["expect", "--config", cfg, " + ".join([word] * 300)]) == 0
        assert time.perf_counter() - start < 0.5
        vev = parse_value(capsys.readouterr().out.splitlines()[-1])
        assert len(contracted) == 2
        assert abs(vev - 300 * once) <= 1e-12 * abs(300 * once)

    def test_summed_coefficients_print_as_one_term(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        printed = []
        for expression in ("2*phi[f1] phi[f2] - 3j*phi[f2] phi[f1] + 0.5*phi[f1] phi[f2]",
                           "2.5*phi[f1] phi[f2] - 3j*phi[f2] phi[f1]"):
            assert main(["expect", "--config", cfg, expression]) == 0
            printed.append(capsys.readouterr().out.split(" = ")[-1])
        assert printed[0] == printed[1]

    def test_unknown_name_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, "phi[f1] phi[x]"]) == 2
        assert "unknown function name 'x'" in capsys.readouterr().err

    def test_unnamed_packets_are_not_integrated(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["packets"]["bad"] = {"width_x": 0.001, "carrier_freq": 1.0}
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "bad", "-g", "bad"]) == 3
        capsys.readouterr()
        assert main(["expect", "--config", cfg, "phi[f1] phi[f2]"]) == 0
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 0

    def test_values_need_neither_the_referee_nor_expressions(
            self, tmp_path, capsys, monkeypatch):
        config = json.loads(json.dumps(BASE_CONFIG))
        for i in (3, 4, 5):
            config["packets"][f"f{i}"] = {"center_x": [0.3 * i],
                                          "carrier_freq": 0.1 * i}
        cfg = write_config(tmp_path, config)
        ladder = [f"f{i}" for i in (1, 2, 3, 4, 5)]
        expressions = [
            "phi[f1] phi[f2] phi[f1] phi[f3]",
            " ".join([f"a[{f}]" for f in ladder]
                     + [f"adag[{f}]" for f in reversed(ladder)]),
        ]

        def run_all():
            lines = []
            for text in expressions:
                assert main(["expect", "--config", cfg, text]) == 0
                lines.append(capsys.readouterr().out)
            return lines

        plain = run_all()

        def refuse(*args, **kwargs):
            raise AssertionError("referee or expression API on the expect path")

        monkeypatch.setattr(fockoracle, "fock_vacuum_expectation", refuse)
        monkeypatch.setattr(opalgebra, "parse_expression", refuse)
        monkeypatch.setattr(opalgebra, "vacuum_expectation", refuse)
        assert run_all() == plain


class TestSpectra:
    def test_stdout_grid_and_frozen_values(self, capsys):
        assert main(["spectra", "--ensemble", "vacuum",
                     "--kmin", "0", "--kmax", "2", "--kcount", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,c"
        assert len(lines) == 4
        k0, c0 = (float(v) for v in lines[1].split(","))
        k2, c2 = (float(v) for v in lines[3].split(","))
        assert (k0, c0) == (0.0, 1.0)  # omega(0) = m = 1
        assert k2 == 2.0
        assert c2 == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_thermal_frozen_reference(self, capsys):
        assert main(["spectra", "--ensemble", "thermal",
                     "--kmin", "0", "--kmax", "1", "--kcount", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        c0 = float(lines[1].split(",")[1])
        assert c0 == pytest.approx(0.46211715726000974, rel=1e-15)

    def test_xilambda_defaults_to_closure(self, capsys):
        args = ["--kmin", "0", "--kmax", "5", "--kcount", "11", "--xi", "0.5"]
        assert main(["spectra", "--ensemble", "xilambda", *args]) == 0
        closed = capsys.readouterr().out
        assert main(["spectra", "--ensemble", "vacuum", *args]) == 0
        vacuum = capsys.readouterr().out
        for a, b in zip(closed.strip().split("\n")[1:],
                        vacuum.strip().split("\n")[1:]):
            ca, cb = float(a.split(",")[1]), float(b.split(",")[1])
            assert ca == pytest.approx(cb, rel=1e-12)

    def test_explicit_lambda_departs_from_closure(self, capsys):
        assert main(["spectra", "--ensemble", "xilambda", "--lambda", "0.2",
                     "--kmin", "0", "--kmax", "1", "--kcount", "2"]) == 0
        off = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert main(["spectra", "--ensemble", "vacuum",
                     "--kmin", "0", "--kmax", "1", "--kcount", "2"]) == 0
        vac = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert abs(off - vac) / vac > 0.01

    def test_out_writes_csv_file(self, tmp_path, capsys):
        assert main(["spectra", "--ensemble", "classical",
                     "--out", str(tmp_path), "--kcount", "5"]) == 0
        path = tmp_path / "coefficients.csv"
        assert path.exists()
        assert f"wrote {path}" in capsys.readouterr().out
        assert path.read_text(encoding="utf-8").startswith("k,c\n")
        assert main(["spectra", "--ensemble", "classical", "--kcount", "5"]) == 0
        assert path.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_bad_grid_exits_2(self, capsys):
        assert main(["spectra", "--ensemble", "vacuum",
                     "--kmin", "3", "--kmax", "1"]) == 2
        assert "bad k grid" in capsys.readouterr().err

    def test_missing_ensemble_exits_2(self, capsys):
        assert main(["spectra"]) == 2
        assert "no ensemble" in capsys.readouterr().err

    def test_wavenumber_past_the_square_overflow_is_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectra", "--ensemble", "vacuum",
                         "--kmax", "1e200", "--kcount", "3"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert rows[0] == "k,c"
        values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert values.shape == (3, 2) and np.all(np.isfinite(values))
        assert values[-1, 1] == pytest.approx(1e200, rel=1e-15)

    def test_grid_count_above_max_exits_2_before_allocating(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated past MAX_K_GRID_COUNT")

        monkeypatch.setattr(spectra, "spectral_coefficient", refuse)
        monkeypatch.setattr(cli.np, "arange", refuse)
        count = cli.MAX_K_GRID_COUNT + 1
        cfg = write_config(tmp_path, {"ensemble": "vacuum", "k_grid": {"count": count}})
        for args in (["--ensemble", "vacuum", "--kcount", str(count)],
                     ["--config", cfg], ["--config", cfg, "--kcount", str(10**30)]):
            assert main(["spectra", *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "MAX_K_GRID_COUNT = 1048576" in captured.err

    def test_grid_count_at_max_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_K_GRID_COUNT", 5)
        assert main(["spectra", "--ensemble", "vacuum", "--kcount", "5"]) == 0
        assert len(capsys.readouterr().out.split("\n")) == 7
        assert main(["spectra", "--ensemble", "vacuum", "--kcount", "6"]) == 2
        assert "MAX_K_GRID_COUNT = 5" in capsys.readouterr().err

    def test_overflowing_coefficient_exits_2_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectra", "--ensemble", "classical",
                         "--kmax", "1e308", "--kcount", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows at |k| = 5e+307" in captured.err
        assert "Warning" not in captured.err

    @pytest.mark.parametrize("bound, value, source", [
        ("max", "inf", "flag"), ("min", "-inf", "flag"), ("max", "nan", "flag"),
        ("max", math.inf, "config"), ("min", math.nan, "config")])
    def test_non_finite_grid_bound_exits_2_without_a_warning(self, bound, value, source,
                                                             tmp_path, capsys):
        if source == "flag":
            args = ["--ensemble", "classical", f"--k{bound}={value}", "--kcount", "3"]
        else:
            args = ["--config", write_config(tmp_path, {
                "ensemble": "classical", "k_grid": {bound: value, "count": 3}})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectra", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad k grid: {bound} must be finite, got {float(value)}" in captured.err
        assert "Warning" not in captured.err


class TestSpectraGolden:
    """sha256 of ``kgf spectra`` stdout on a 1001-point grid, pinned so that
    any change to the grid, the coefficients or the text is deliberate."""

    ARGS = ["--hbar", "0.7", "--kT", "1.3", "--mass", "0.8", "--xi", "0.5",
            "--kmax", "37.3", "--kcount", "1001"]

    @pytest.mark.parametrize("ensemble,digest", [
        ("classical_equilibrium",
         "be170691ee78d9b47525cfd7af27562aeb11ea90009c35bcd7ebef5c888562dd"),
        ("quantum_vacuum",
         "312c59f2cb152df5ecb3b5fef195c50d5670abbbffc16a8746ee7167badfdca9"),
        ("quantum_thermal",
         "88e9da4dbf7bd04905a9cba6c6b512eac8300705013f95fbb48a648c0ae1efdb"),
        ("xi_vacuum",
         "544380fcf4331da13b158930d7e2d6a838e5097d836d3f2e59ad236ba0c1c7ca"),
        ("xi_lambda",
         "67bc42132588ea8596f0961ec54457b3ec9a89fc52731bec269920b5d4f34bf0"),
    ])
    def test_digest(self, ensemble, digest, capsys):
        assert main(["spectra", "--ensemble", ensemble, *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("ensemble", list(Ensemble))
    def test_rows_match_one_scalar_call_per_row(self, ensemble, capsys):
        # the per-row loop the vectorised grid replaced, as the reference
        constants = PhysicalConstants(hbar=0.7, kT=1.3, mass=0.8, xi=0.5)
        density = SpectralDensity(ensemble, constants, lam=lambda_of_xi(0.5)
                                  if ensemble is Ensemble.XI_LAMBDA else None)
        kmin, kmax, count = 0.3, 41.7, 257
        step = (kmax - kmin) / (count - 1)
        rows = [f"{k:.17g},{spectral_coefficient(density, k):.17g}"
                for k in (kmin + step * i for i in range(count))]
        assert main(["spectra", "--ensemble", ensemble.value, "--hbar", "0.7",
                     "--kT", "1.3", "--mass", "0.8", "--xi", "0.5", "--kmin", "0.3",
                     "--kmax", "41.7", "--kcount", "257"]) == 0
        assert capsys.readouterr().out == "\n".join(["k,c", *rows]) + "\n"

    @pytest.mark.parametrize("args,digest", [
        (["--ensemble", "vacuum", "--kcount", "2"],
         "ed9133a32847e28e53afd667ca29258e5026ced43ea371d4c995c4ab5184e198"),
        # c = 0 at k = 0, then values below 1e-4 in exponent notation
        (["--ensemble", "classical", "--mass", "0", "--kmin", "0", "--kmax", "3e-3",
          "--kcount", "4097"],
         "65106e037ab94a1e0937b9ff3737c8e04e032c30c3add0c1b6ee65f4b58c4a8d"),
        # k spans fixed notation and both exponent notations, over three slabs
        (["--ensemble", "thermal", "--kmin", "1e-7", "--kmax", "1e18", "--kcount", "9000"],
         "90dbf867319bd3218e5c76e7c1131b6ddcfb248b9de58e739ca70c76b2b5c09e"),
        (["--ensemble", "xilambda", "--xi", "0.5", "--kmax", "50", "--kcount", "12289"],
         "75ab0ab7ea889d9f6d7833a067072de1f8189667a9d5c9bf59938c30fe8efa2d"),
    ], ids=["two_rows", "massless_small_k", "wide_k", "four_slabs"])
    def test_slabbed_output_digest(self, args, digest, capsys):
        """The bytes of grids that fill more than one ``_CSV_SLAB_ROWS`` slab
        and reach every notation ``%.17g`` prints."""
        assert main(["spectra", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSample:
    COMMON = ["sample", "--ensemble", "vacuum", "--lattice-n", "16",
              "--samples", "6", "--seed", "11"]

    def test_csv_artifacts(self, tmp_path, capsys):
        assert main([*self.COMMON, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path}/samples.csv" in out
        assert f"wrote {tmp_path}/spectrum.csv" in out
        with open(tmp_path / "samples.csv", encoding="utf-8") as fh:
            dim, n, fields = read_samples_csv(fh)
        assert (dim, n, fields.shape) == (1, 16, (6, 16))
        spectrum = (tmp_path / "spectrum.csv").read_text(encoding="utf-8")
        assert spectrum.startswith("k_index_0,mean,stderr,count,expected\n")
        assert len(spectrum.strip().split("\n")) == 17

    @pytest.mark.parametrize("flags, shown", [
        (["--hbar", "1e308", "--samples", "2"], "reaches inf"),
        (["--hbar", "2e307", "--samples", "200"], "reaches 8e+307"),
        (["--ensemble", "classical", "--kT", "1e308", "--samples", "2"], "reaches inf"),
    ])
    def test_a_spectrum_past_the_float_range_exits_2_without_a_file(
            self, flags, shown, tmp_path):
        """Under -W error, so no overflow warning is raised on the way: the
        refusal comes before any file or directory is made."""
        out = tmp_path / "artifacts"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kgf", "sample", "--ensemble", "vacuum",
             "--lattice-n", "8", *flags, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(kgf.__file__).resolve().parents[1])))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: the expected mode power V/(2c) " + shown)
        assert "stay finite" in proc.stderr
        assert not out.exists()

    def test_csv_artifacts_are_the_text_writers_bytes(self, tmp_path):
        """The files are written as bytes; they hold the text that the
        writers give a text stream."""
        assert main([*self.COMMON, "--out", str(tmp_path)]) == 0
        lattice = sampler.LatticeSpec(dim=1, sites_per_axis=16)
        density = SpectralDensity(Ensemble.QUANTUM_VACUUM, PhysicalConstants())
        samples, spectrum = io.StringIO(), io.StringIO()
        write = sampler.samples_writer(samples, lattice, "csv")
        acc = sampler.SpectrumAccumulator(lattice)
        for chunk in sampler.sample_chunks(density, lattice, 11, 6):
            write(chunk.start, chunk.values)
            acc.add(chunk)
        sampler.write_spectrum_csv(spectrum, acc.finalize(), chunk.expected)
        assert (tmp_path / "samples.csv").read_bytes() == samples.getvalue().encode()
        assert (tmp_path / "spectrum.csv").read_bytes() == spectrum.getvalue().encode()

    def test_binary_round_trip(self, tmp_path):
        assert main([*self.COMMON, "--format", "binary",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "samples.bin", "rb") as fh:
            lattice, fields = read_samples_binary(fh)
        assert lattice.sites_per_axis == 16
        assert fields.shape == (6, 16)

    def test_reruns_are_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main([*self.COMMON, "--format", "binary", "--out", str(a_dir)]) == 0
        assert main([*self.COMMON, "--format", "binary", "--out", str(b_dir)]) == 0
        a = (a_dir / "samples.bin").read_bytes()
        b = (b_dir / "samples.bin").read_bytes()
        assert a == b

    def test_streamed_files_equal_one_in_process_draw(self, tmp_path):
        n = sampler.BLOCK_SIZE + 5
        args = ["sample", "--ensemble", "thermal", "--dim", "2",
                "--lattice-n", "8", "--samples", str(n), "--seed", "23"]
        assert main([*args, "--format", "binary", "--out", str(tmp_path / "b")]) == 0
        assert main([*args, "--out", str(tmp_path / "c")]) == 0
        lattice = sampler.LatticeSpec(dim=2, sites_per_axis=8)
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        reference = sampler.sample_array(density, lattice, 23, n)
        with open(tmp_path / "b" / "samples.bin", "rb") as fh:
            _, binary = read_samples_binary(fh)
        with open(tmp_path / "c" / "samples.csv", encoding="utf-8") as fh:
            _, _, text = read_samples_csv(fh)
        assert binary.tobytes() == reference.tobytes()
        assert text.tobytes() == reference.tobytes()
        estimate = sampler.power_spectrum(
            sampler.FieldConfiguration(lattice, v) for v in reference)
        rows = np.loadtxt(tmp_path / "c" / "spectrum.csv", delimiter=",",
                          skiprows=1)
        assert np.allclose(rows[:, 2], estimate.mean.reshape(-1), rtol=1e-12)
        assert np.all(rows[:, 4] == n)

    def test_config_seed_matches_flag_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "ensemble": "vacuum", "samples": 3, "seed": 11,
            "lattice": {"sites_per_axis": 16},
        })
        flag_dir, cfg_dir = tmp_path / "flag", tmp_path / "cfg"
        assert main([*self.COMMON, "--samples", "3", "--format", "binary",
                     "--out", str(flag_dir)]) == 0
        assert main(["sample", "--config", cfg, "--format", "binary",
                     "--out", str(cfg_dir)]) == 0
        assert (flag_dir / "samples.bin").read_bytes() == \
            (cfg_dir / "samples.bin").read_bytes()

    def test_workers_flag_is_accepted_and_changes_no_byte(self, tmp_path, capsys):
        """The D=2 x200 vacuum CSV call of the benchmark's sample_stream
        workload, which passes --workers 2."""
        cfg = write_config(tmp_path, {"constants": {"hbar": 1.0, "kT": 1.0, "mass": 1.0}})
        args = ["sample", "--config", cfg, "--dim", "2", "--ensemble", "vacuum",
                "--lattice-n", "64", "--samples", "200", "--seed", "8",
                "--format", "csv"]
        assert main([*args, "--workers", "2", "--out", str(tmp_path / "two")]) == 0
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path}/two/samples.csv (200 samples, seed 8)\n" in out
        for name in ("samples.csv", "spectrum.csv"):
            assert ((tmp_path / "two" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_samples_times_sites_above_max_exit_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        start = time.perf_counter()
        assert main(["sample", "--ensemble", "thermal", "--dim", "1", "--lattice-n", "64",
                     "--samples", "1000000000", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 0.5
        assert "MAX_TOTAL_VALUES = 4294967296" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_mode_exits_2_and_names_mode(self, tmp_path, capsys):
        assert main(["sample", "--ensemble", "classical", "--mass", "0",
                     "--lattice-n", "16", "--samples", "2", "--seed", "1",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "(0,)" in err

    def test_pin_zero_mode_recovers(self, tmp_path, capsys):
        assert main(["sample", "--ensemble", "classical", "--mass", "0",
                     "--lattice-n", "16", "--samples", "2", "--seed", "1",
                     "--pin-zero-mode", "--out", str(tmp_path)]) == 0
        spectrum = (tmp_path / "spectrum.csv").read_text(encoding="utf-8")
        first_row = spectrum.strip().split("\n")[1].split(",")
        assert first_row[0] == "0"
        assert float(first_row[-1]) == 0.0  # pinned mode expects zero power


class TestVerify:
    def test_spectra_suite_passes(self, capsys):
        assert main(["verify", "--suite", "spectra"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "0 failed" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "everything"])

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - 2])
    def test_per_check_seeds_wrap_modulo_2_64(self, seed, monkeypatch):
        drawn = []
        real = sampler.sample_chunks

        def spy(density, lattice, stream_seed, n, *args, **kwargs):
            drawn.append(stream_seed)
            return real(density, lattice, stream_seed, n, *args, **kwargs)

        monkeypatch.setattr(sampler, "sample_chunks", spy)
        monkeypatch.setattr(verify, "N_SAMPLES", 300)
        verify.check_equipartition(seed=seed)
        verify.check_fock_oracle(seed=seed)
        assert drawn == [(seed + 1) % 2**64, (seed + 2) % 2**64]
        drawn.clear()
        verify.check_sampler_moments(seed=seed)
        # one stream per ensemble
        assert drawn == [(seed + 3 + i) % 2**64 for i in range(5)]

    @pytest.mark.parametrize("suite", ["sampler", "fock"])
    def test_top_seed_runs_every_check(self, suite):
        assert main(["verify", "--suite", suite, "--seed", str(2**64 - 1)]) == 0


class TestBrokenPipe:
    """A reader that closes stdout early ends the command with exit 141 and
    no traceback, as ``kgf ... | head -1`` does."""

    @staticmethod
    def read_then_close(args, lines):
        proc = subprocess.Popen([sys.executable, "-m", "kgf", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return read, proc.wait(timeout=300), err

    def test_spectra_after_one_line(self):
        # 200 000 rows are megabytes: far more than a pipe holds
        read, code, err = self.read_then_close(
            ["spectra", "--ensemble", "vacuum", "--kcount", "200000"], 1)
        assert read == [b"k,c\n"]
        assert (code, err) == (141, b"")

    def test_verify_before_its_report(self):
        # verify writes its report at the end, in one piece: a reader that
        # stays for one line would read all of it, so this one leaves first
        read, code, err = self.read_then_close(["verify", "--suite", "spectra"], 0)
        assert (code, err) == (141, b"")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Longest shebang line, "#!" and newline included, that the kernel reads whole.
MAX_SHEBANG_BYTES = 127


def launcher_source(entry_point, executable):
    """The console-script launcher pip writes for ``module:attr``.

    Like pip, an interpreter path with a space, or too long for a shebang,
    gets a ``/bin/sh`` trampoline that re-executes the file under Python.
    """
    module, _, func = (part.strip() for part in entry_point.partition(":"))
    if " " in executable or len(os.fsencode(executable)) + 3 > MAX_SHEBANG_BYTES:
        shebang = f"#!/bin/sh\n'''exec' \"{executable}\" \"$0\" \"$@\"\n' '''\n"
    else:
        shebang = f"#!{executable}\n"
    return (
        f"{shebang}import sys\n"
        f"from {module} import {func.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )


@pytest.fixture
def console_scripts(tmp_path, monkeypatch):
    """Put first on PATH the launchers an install makes from [project.scripts].

    The launchers import the kgf under test, not any installed copy.
    """
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for name, entry_point in scripts.items():
        launcher = tmp_path / name
        launcher.write_text(launcher_source(entry_point, sys.executable),
                            encoding="utf-8")
        launcher.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(Path(kgf.__file__).resolve().parents[1]),
                       prepend=os.pathsep)


#: Run as ``python -c SPY ARGS...``: ``python -m kgf ARGS...`` through runpy,
#: then print as JSON the BLAS thread variables as they stood when numpy was
#: first imported, the kgf modules the command loaded, and whether the garbage
#: collector is on and how many objects are frozen out of it.
SPY = """
import gc, json, os, runpy, sys

seen = []

class NumpySpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

sys.meta_path.insert(0, NumpySpy())
sys.argv[0] = "kgf"
try:
    runpy.run_module("kgf", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "env": seen, "modules": sorted(sys.modules),
                  "gc_enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def run_spy(tmp_path, env_update):
    cfg = write_config(tmp_path, BASE_CONFIG)
    env = {key: value for key, value in os.environ.items()
           if key not in _BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(kgf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SPY, "innerprod", "--config", cfg, "-f", "f1", "-g", "f2"],
        capture_output=True, text=True, timeout=120, env=env | env_update,
    )
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines(keepends=True)
    report = json.loads(last)
    assert report["code"] == 0
    return dict(report, out="".join(out), config=cfg)


class TestEntryPoints:
    def test_blas_is_single_threaded_before_numpy_loads(self, tmp_path):
        report = run_spy(tmp_path, {})
        assert report["env"] == [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                  "MKL_NUM_THREADS": "1"}]

    def test_a_thread_count_the_user_set_is_kept(self, tmp_path):
        report = run_spy(tmp_path, {"OPENBLAS_NUM_THREADS": "2"})
        assert report["env"] == [{"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                                  "MKL_NUM_THREADS": "1"}]

    def test_innerprod_loads_no_sampler_or_verification_suite(self, tmp_path):
        loaded = set(run_spy(tmp_path, {})["modules"])
        assert {"kgf.cli", "kgf.kernels"} <= loaded
        assert loaded.isdisjoint({"kgf.sampler", "kgf.verify", "kgf.fockoracle",
                                  "kgf.opalgebra", "kgf.spectra", "numpy.polynomial"})

    def test_the_entry_point_freezes_its_imports_and_prints_what_the_cli_prints(
            self, tmp_path, capsys):
        report = run_spy(tmp_path, {})
        assert report["gc_enabled"] is True
        assert report["frozen"] > 0
        assert main(["innerprod", "--config", report["config"], "-f", "f1", "-g", "f2"]) == 0
        assert report["out"] == capsys.readouterr().out

    def test_importing_the_cli_loads_only_the_kernels(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import gc, sys, kgf.cli; print(*sorted(sys.modules)); "
             "print(gc.isenabled(), gc.get_freeze_count())"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(kgf.__file__).resolve().parents[1])),
        )
        modules, collector = proc.stdout.splitlines()
        # only the entry point freezes the heap
        assert collector == "True 0"
        loaded = set(modules.split())
        assert {"kgf.cli", "kgf.kernels", "kgf.errors"} <= loaded
        assert loaded.isdisjoint({"kgf.opalgebra", "kgf.spectra", "kgf.sampler",
                                  "kgf.verify", "kgf.fockoracle", "numpy.polynomial",
                                  "concurrent.futures"})

    def test_suite_choices_are_the_verify_suites(self):
        assert cli._VERIFY_SUITES == tuple(sorted(verify.SUITES))

    def test_ensemble_names_are_the_ensembles_and_their_aliases(self):
        aliases = ("classical", "vacuum", "thermal", "xivacuum", "xilambda")
        assert set(cli._ENSEMBLE_NAMES) == {e.value for e in Ensemble} | set(aliases)
        assert cli._ENSEMBLE_NAMES == sorted(cli._ENSEMBLE_NAMES)
        assert [Ensemble(cli.ENSEMBLE_ALIASES[a]) for a in aliases] == list(Ensemble)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kgf", "verify", "--suite", "spectra"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout

    @pytest.mark.usefixtures("console_scripts")
    def test_console_script_help(self):
        proc = subprocess.run(
            ["kgf", "--help"], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "innerprod" in proc.stdout
        assert "verify" in proc.stdout


#: Runs ``kgf`` on the CPUs given as the first argument and reports on
#: stderr how many threads it started.
ON_CPUS = """
import os, sys, threading
os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(",")})
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self) or start(self)
from kgf.__main__ import main
code = main(sys.argv[2:])
print(f"threads {len(started)}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
class TestUsableCpus:
    """D=2 passes run on one thread per usable CPU and print the same bytes
    on one CPU as on two."""

    CONFIG = {
        "dim": 2,
        "constants": {"mass": 0.8, "kT": 1.3},
        "packets": {
            "f1": {"width_x": 1.1, "carrier_freq": 0.5, "center_x": [0.3, -0.2]},
            "f2": {"center_x": [-0.4, 0.1], "carrier_wavevector": [0.8, -0.3],
                   "amplitude": [1.0, -0.5]},
            "f3": {"width_x": 0.9, "center_t": 0.7, "carrier_wavevector": [-0.2, 0.5]},
        },
    }

    def run_on(self, cpus, args):
        proc = subprocess.run(
            [sys.executable, "-c", ON_CPUS, ",".join(map(str, cpus)), *args],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(kgf.__file__).resolve().parents[1])),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr.split()[-1]

    @pytest.mark.parametrize("command", [
        ["innerprod", "--kernel", "classical", "-f", "f1", "-g", "f2"],
        ["expect", "phi[f1] phi[f2] phi[f3] phi[f1]"],
    ])
    def test_output_does_not_depend_on_the_cpu_count(self, command, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        cpus = sorted(os.sched_getaffinity(0))[:2]
        one, started_one = self.run_on(cpus[:1], [command[0], "--config", cfg, *command[1:]])
        two, started_two = self.run_on(cpus, [command[0], "--config", cfg, *command[1:]])
        assert one == two and one.count("\n") >= 1
        assert (started_one, started_two) == ("0", "2")
