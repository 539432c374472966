"""Command-line interface: precedence, artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest depends on tomli
    import tomli as tomllib

import kgf
from kgf import cli, opalgebra, sampler, verify
from kgf.cli import main
from kgf.errors import InvalidInputError
from kgf.kernels import PhysicalConstants
from kgf.sampler import read_samples_binary, read_samples_csv
from kgf.spectra import Ensemble, SpectralDensity

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

    def test_old_rule_key_loads_and_trapezoid_exits_2(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["quadrature"] = {"rule": "gauss-legendre"}
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 0
        config["quadrature"] = {"rule": "trapezoid"}
        cfg = write_config(tmp_path, config)
        assert main(["innerprod", "--config", cfg, "-f", "f1", "-g", "f2"]) == 2
        assert "quadrature/rule" in capsys.readouterr().err

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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensemble": "vacuum", "samples": 2})
        assert main(["sample", "--config", cfg, "--seed", "-1",
                     "--lattice-n", "8", "--out", str(tmp_path)]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert main(["verify", "--suite", "spectra", "--seed", "-1"]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err


# Every key CONFIG_SCHEMA knows, at a valid value.
FULL_CONFIG = {
    "constants": {"hbar": 1.0, "kT": 1.0, "mass": 1.0, "xi": 0.5},
    "dim": 2,
    "packets": {"f1": {
        "center_t": 0.0, "center_x": [0.0, 0.5], "width_t": 1.0,
        "width_x": 1.0, "carrier_freq": 0.0, "carrier_wavevector": [0.5, 0.0],
        "amplitude": [1.0, 0.0],
    }},
    "quadrature": {"cutoff": None, "nodes": 64, "rule": "gauss-legendre"},
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
        for config in mutants():
            path = write_config(tmp_path, config)
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
        assert "quadrature: cutoff" in out[1]
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

    def test_contraction_state_limit_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["expect", "--config", cfg, " ".join(["phi[f1]"] * 26)]) == 2
        assert "MAX_CONTRACTION_STATES" in capsys.readouterr().err

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

    def test_values_do_not_need_the_rewriting_engine(
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
            raise AssertionError("rewriting engine on the expect path")

        monkeypatch.setattr(opalgebra, "normal_order", refuse)
        monkeypatch.setattr(opalgebra, "parse_expression", refuse)
        monkeypatch.setattr(opalgebra.OperatorExpression, "__mul__", refuse)
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

    def test_bad_grid_exits_2(self, capsys):
        assert main(["spectra", "--ensemble", "vacuum",
                     "--kmin", "3", "--kmax", "1"]) == 2
        assert "bad k grid" in capsys.readouterr().err

    def test_missing_ensemble_exits_2(self, capsys):
        assert main(["spectra"]) == 2
        assert "no ensemble" in capsys.readouterr().err

    def test_overflowing_coefficient_exits_2_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectra", "--ensemble", "classical",
                         "--kmax", "1e308", "--kcount", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows at |k| = 5e+307" in captured.err
        assert "Warning" not in captured.err


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
        assert main([*self.COMMON, "--format", "binary", "--workers", "3",
                     "--out", str(b_dir)]) == 0
        a = (a_dir / "samples.bin").read_bytes()
        b = (b_dir / "samples.bin").read_bytes()
        assert a == b

    def test_streamed_files_equal_one_in_process_draw(self, tmp_path):
        n = sampler.BLOCK_SIZE + 5
        args = ["sample", "--ensemble", "thermal", "--dim", "2",
                "--lattice-n", "8", "--samples", str(n), "--seed", "23",
                "--workers", "2"]
        assert main([*args, "--format", "binary", "--out", str(tmp_path / "b")]) == 0
        assert main([*args, "--out", str(tmp_path / "c")]) == 0
        lattice = sampler.LatticeSpec(dim=2, sites_per_axis=8)
        density = SpectralDensity(Ensemble.QUANTUM_THERMAL, PhysicalConstants())
        reference = sampler.sample_array(density, lattice, 23, n, workers=1)
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

    def test_zero_workers_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main([*self.COMMON, "--workers", "0", "--out", str(out)]) == 2
        assert "worker count must be >= 1" in capsys.readouterr().err
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
        verify.check_equipartition(n_samples=300, seed=seed)
        verify.check_fock_oracle(n_samples=300, seed=seed)
        assert drawn == [(seed + 1) % 2**64, (seed + 2) % 2**64]

    @pytest.mark.parametrize("suite", ["sampler", "fock"])
    def test_top_seed_runs_every_check(self, suite):
        assert main(["verify", "--suite", suite, "--seed", str(2**64 - 1)]) == 0


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


class TestEntryPoints:
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
