"""Acceptance gate: one test per shipped criterion, run at desk scale.

Each test prints a single ``criterion N (<label>): PASS/FAIL`` line with
the measured detail, then asserts.  Tolerances and check sizes are the
shipped contract, not tuning knobs: 1e-8 for quadrature-limited kernel
identities, 1e-12 for algebraic rescalings, 1e-10 for the Fock-space
referee and oracle comparisons, five standard errors for sampled
moments.  The check sizes are constants of :mod:`kgf.verify`, so each
check takes its seed only.  Runtime budgets are asserted where the
contract states them.
"""

import subprocess
import sys

from kgf import verify

SEED = verify.DEFAULT_SEED


def report(num, label, result, budget=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {num} ({label}): {status} - {result.detail} "
          f"[{result.elapsed:.2f}s]")
    assert result.passed, f"criterion {num} ({label}): {result.detail}"
    if budget is not None:
        assert result.elapsed < budget, (
            f"criterion {num} ({label}) took {result.elapsed:.2f}s, "
            f"budget {budget}s"
        )


def test_check_sizes_are_the_contract():
    # the sizes the criteria below state, which each check reads itself
    assert (verify.KERNEL_AXIOM_PAIRS, verify.ALGEBRA_TABLES,
            verify.TWO_POINT_PAIRS, verify.N_SAMPLES) == (100, 20, 20, 20000)


def test_criterion_1_kernel_axioms():
    # 100 randomized D=1 pairs: Hermiticity and positivity to 1e-8
    # relative, xi-scaling to 1e-12; budget 30 s
    report(1, "kernel axioms", verify.check_kernel_axioms(seed=SEED),
           budget=30.0)


def test_criterion_2_algorithm_equivalence():
    # contraction-kernel VEV vs the Fock-space referee, 20 random Hermitian
    # tables, phi products and ladder words, n in {2,4,6,8} to 1e-10
    # relative, odd n exactly 0; budget 10 s
    report(2, "algorithm equivalence",
           verify.check_algebra_equivalence(seed=SEED), budget=10.0)


def test_criterion_3_two_point_orientation():
    # <0| phi[f1] phi[f2] |0> = inner_product(f2, f1) to 1e-8, 20 pairs
    report(3, "two-point orientation", verify.check_two_point(seed=SEED))


def test_criterion_4_lambda_closure():
    # max over 256-point k grid, xi in {0.1..0.9}:
    # |c_xilambda - c_vacuum| / c_vacuum <= 1e-12; budget 1 s
    report(4, "lambda closure", verify.check_lambda_closure(), budget=1.0)


def test_criterion_5_crossover():
    # hbar = kT = 1, m = 0.01: c_T within 1% of c_E for x <= 0.1 and
    # of c_Q for x >= 3, x = hbar omega / 2kT; budget 1 s
    report(5, "crossover", verify.check_crossover(), budget=1.0)


def test_criterion_6_sampler_moment_contract():
    # D=1, N=64, a=1, 20000 samples per ensemble, all five ensembles:
    # >= 99% of modes within 5 stderr of V/(2c); budget 60 s per ensemble
    report(6, "sampler moment contract",
           verify.check_sampler_moments(seed=SEED), budget=5 * 60.0)


def test_criterion_7_equipartition():
    # classical ensemble: mean H_C = (mode count) kT / 2 within 5 stderr
    # over 20000 samples
    report(7, "equipartition", verify.check_equipartition(seed=SEED))


def test_criterion_8_fock_oracle():
    # truncated <q^2> vs coth closed form to 1e-10 on 20 log-spaced x;
    # verify_density_variance to 1e-10 on 64 thermal k's and 9 xi's;
    # sampled lattice variance within 5 sigma.  The 10 s budget excludes
    # the sampling leg, so the assert allows for it.
    report(8, "fock oracle", verify.check_fock_oracle(seed=SEED),
           budget=60.0)


def test_criterion_9_cli_verify_aggregates_and_detects_corruption():
    clean = subprocess.run(
        [sys.executable, "-m", "kgf", "verify", "--suite", "all"],
        capture_output=True, text=True, timeout=600,
    )
    corrupt_src = (
        "import sys\n"
        "import kgf.kernels as K\n"
        "orig = K._variant_weight\n"
        "K._variant_weight = lambda spec, omega: -orig(spec, omega)\n"
        "from kgf.cli import main\n"
        "sys.exit(main(['verify', '--suite', 'all']))\n"
    )
    corrupted = subprocess.run(
        [sys.executable, "-c", corrupt_src],
        capture_output=True, text=True, timeout=600,
    )
    ok = clean.returncode == 0 and corrupted.returncode != 0
    print(f"criterion 9 (cli verify): {'PASS' if ok else 'FAIL'} - "
          f"clean exit {clean.returncode}, "
          f"kernel-sign corruption exit {corrupted.returncode}")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "8 passed" in clean.stdout
    assert corrupted.returncode != 0, corrupted.stdout + corrupted.stderr
