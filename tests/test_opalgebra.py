"""Operator algebra: contraction kernel, Wick oracle, parser."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from kgf.errors import (
    AccuracyError,
    ExpressionSyntaxError,
    FunctionLookupError,
    InvalidInputError,
    MissingInnerProductError,
    SizeLimitError,
)
from kgf.fockoracle import fock_vacuum_expectation
from kgf.kernels import KernelSpec, PhysicalConstants, WavePacket, inner_product
from kgf.opalgebra import (
    MAX_CONTRACTION_STATES,
    FunctionRegistry,
    InnerProductTable,
    OperatorExpression,
    contract,
    enumerate_pairings,
    parse_expression,
    parse_terms,
    vacuum_expectation,
    wick_vev,
)
from kgf.verify import _LADDER_KINDS, _random_packet

# exact in binary floating point, so algebraic identities hold bitwise
DYADIC_TABLE = InnerProductTable({
    (1, 1): 1.0,
    (2, 2): 2.0,
    (1, 2): 0.5 + 0.25j,
    (2, 1): 0.5 - 0.25j,
})


def random_table(rng, n):
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[(i, j)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return InnerProductTable(entries)


def permanent(matrix):
    n = len(matrix)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for p, q in enumerate(perm):
            prod *= matrix[p][q]
        total += prod
    return total


class TestRegistry:
    def test_register_and_lookup(self):
        reg = FunctionRegistry()
        i = reg.register("f")
        j = reg.register("g")
        assert (i, j) == (1, 2)
        assert reg.index_of("f") == 1

    def test_ensure_registers_once(self):
        reg = FunctionRegistry()
        assert reg.ensure("g") == 1
        assert reg.ensure("g") == 1
        assert reg.register("h") == 2

    def test_duplicate_name_rejected(self):
        reg = FunctionRegistry()
        reg.register("f")
        with pytest.raises(InvalidInputError):
            reg.register("f")

    def test_unknown_name_message_is_clean(self):
        reg = FunctionRegistry()
        with pytest.raises(FunctionLookupError) as err:
            reg.index_of("nope")
        assert str(err.value) == "unknown function name 'nope'"


class TestInnerProductTable:
    def test_missing_pair_raises(self):
        with pytest.raises(MissingInnerProductError) as err:
            DYADIC_TABLE[(1, 3)]
        assert err.value.pair == (1, 3)
        assert str(err.value) == "inner-product table has no entry for pair (1, 3)"

    def test_from_kernel_matches_direct_quadrature(self):
        f = WavePacket(width_x=1.2, carrier_wavevector=(0.4,))
        g = WavePacket(center_x=(0.3,), carrier_freq=0.8, amplitude=1 - 0.5j)
        spec = KernelSpec()
        table = InnerProductTable.from_kernel(spec, {"f": f, "g": g})
        assert table[("f", "g")] == inner_product(spec, f, g)
        assert table[("g", "f")] == table[("f", "g")].conjugate()
        assert table[("f", "f")].imag == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("check", [True, False])
    def test_every_entry_is_the_pairs_inner_product(self, check):
        # D=2 packets with three different automatic cutoffs, and a repeat
        packets = [WavePacket(dim=2, width_x=0.9, carrier_wavevector=(0.6, -0.2)),
                   WavePacket(dim=2, center_x=(0.3, 0.1), carrier_freq=0.8,
                              amplitude=1 - 0.5j),
                   WavePacket(dim=2, width_x=1.4, center_t=0.5)]
        packets.append(packets[0])
        spec = KernelSpec(dim=2)
        table = InnerProductTable.from_kernel(
            spec, dict(enumerate(packets, start=1)), check=check)
        for i, f in enumerate(packets, start=1):
            for j, g in enumerate(packets[i - 1:], start=i):
                assert table[(i, j)] == inner_product(spec, f, g, check=check)
                assert table[(j, i)] == table[(i, j)].conjugate()

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_a_non_converging_packet_raises(self, bad_first):
        # massless D=1: 1/(2|k|) diverges at k=0 where the second packet
        # has weight; the first sits at k=5 and converges on its own
        packets = [WavePacket(width_x=2.0, carrier_wavevector=(5.0,)),
                   WavePacket(width_x=2.0)]
        ordered = packets[::-1] if bad_first else packets
        spec = KernelSpec(constants=PhysicalConstants(mass=0.0))
        inner_product(spec, packets[0], packets[0])
        with pytest.raises(AccuracyError, match="did not converge"):
            InnerProductTable.from_kernel(
                spec, {f"f{i}": f for i, f in enumerate(ordered, start=1)})


class TestKeys:
    def test_names_and_integers_give_bit_identical_values(self):
        """A test function's key is a label only: relabelling the integer
        letters of random words of verify's letter kinds, and their table,
        to names changes no value by a bit, and from_kernel keyed by names
        gives the integer-keyed table entry for entry.  The referee numbers
        its modes by first appearance, which any relabelling keeps."""
        rng = np.random.default_rng(2468)
        size = 4
        name = {i: f"f{i:02d}" for i in range(1, size + 1)}
        table = random_table(rng, size)
        named = InnerProductTable({(name[i], name[j]): table[(i, j)]
                                   for i in name for j in name})
        nonzero = 0
        for n in (2, 4, 6, 8, 10):
            for _ in range(10):
                word = [(_LADDER_KINDS[k], int(i)) for k, i in
                        zip(rng.integers(0, 3, size=n), rng.integers(1, size + 1, size=n))]
                relabelled = [(kind, name[i]) for kind, i in word]
                value = contract(word, table)
                assert contract(relabelled, named) == value
                assert fock_vacuum_expectation(relabelled, named) == \
                    fock_vacuum_expectation(word, table)
                nonzero += value != 0
        assert nonzero > 10
        spec = KernelSpec()
        packets = {i: _random_packet(rng) for i in name}
        by_index = InnerProductTable.from_kernel(spec, packets)
        by_name = InnerProductTable.from_kernel(
            spec, {name[i]: f for i, f in packets.items()})
        for i, j in itertools.product(name, repeat=2):
            assert by_name[(name[i], name[j])] == by_index[(i, j)]


    def test_referee_values_follow_first_appearance_not_key_order(self):
        """Relabelling the integer letters to keys of mixed types whose
        sorted order, where there is one, is reversed changes no referee
        value by a bit: its modes are numbered by first appearance."""
        rng = np.random.default_rng(1357)
        size = 4
        label = {1: "f4", 2: 3, 3: "f2", 4: 1}
        table = random_table(rng, size)
        relabelled_table = InnerProductTable({(label[i], label[j]): table[(i, j)]
                                              for i in label for j in label})
        nonzero = 0
        for n in (2, 4, 6, 8):
            for _ in range(10):
                word = [(_LADDER_KINDS[k], int(i)) for k, i in
                        zip(rng.integers(0, 3, size=n), rng.integers(1, size + 1, size=n))]
                value = fock_vacuum_expectation(word, table)
                assert fock_vacuum_expectation(
                    [(kind, label[i]) for kind, i in word], relabelled_table) == value
                nonzero += value != 0
        assert nonzero > 5


class TestVacuumExpectation:
    def test_two_point_orientation(self):
        # <0| phi[1] phi[2] |0> = (f2, f1): later insertion conjugated
        word = [("phi", 1), ("phi", 2)]
        assert contract(word, DYADIC_TABLE) == DYADIC_TABLE[(2, 1)]

    def test_four_point_hand_value(self):
        # Wick by hand over positions of phi[1]phi[1]phi[2]phi[2]:
        # (01)(23) + (02)(13) + (03)(12)
        #   = ip(1,1) ip(2,2) + 2 ip(2,1)^2 = 2 + 2 (0.5-0.25j)^2
        word = [("phi", 1), ("phi", 1), ("phi", 2), ("phi", 2)]
        assert contract(word, DYADIC_TABLE) == complex(2.375, -0.5)

    def test_vacuum_expectation_trivial_cases(self):
        for terms, value in [({(): 1.0}, 1.0), ({}, 0.0),
                             ({(("adag", 1),): 1.0}, 0.0),
                             ({(("a", 1), ("a", 2)): 1.0}, 0.0)]:
            assert vacuum_expectation(OperatorExpression(terms), DYADIC_TABLE) == value


class TestWickEquivalence:
    def test_pairing_counts_are_double_factorials(self):
        assert list(enumerate_pairings(0)) == [[]]
        assert list(enumerate_pairings(2)) == [[(0, 1)]]
        assert len(list(enumerate_pairings(4))) == 3
        assert len(list(enumerate_pairings(6))) == 15
        assert list(enumerate_pairings(3)) == []

    def test_pairings_are_perfect_matchings(self):
        for matching in enumerate_pairings(6):
            seen = sorted(p for pair in matching for p in pair)
            assert seen == list(range(6))
            assert all(p < q for p, q in matching)

    def test_wick_matches_fock_referee_on_random_tables(self):
        rng = np.random.default_rng(7171)
        for _ in range(10):
            table = random_table(rng, 3)
            reg = FunctionRegistry()
            names = ("u", "v", "w")
            for name in names:
                reg.register(name)
            for n in (2, 4, 6, 8):
                indices = [int(i) for i in rng.integers(1, 4, size=n)]
                expr = parse_expression(
                    " ".join(f"phi[{names[i - 1]}]" for i in indices), reg)
                referee = fock_vacuum_expectation([("phi", i) for i in indices], table)
                scale = max(abs(referee), 1e-6)
                for fast in (vacuum_expectation(expr, table),
                             wick_vev(indices, table)):
                    assert abs(fast - referee) <= 1e-10 * scale

    def test_odd_products_vanish_exactly(self):
        rng = np.random.default_rng(7271)
        table = random_table(rng, 2)
        reg = FunctionRegistry()
        names = ("u", "v")
        for name in names:
            reg.register(name)
        for n in (1, 3, 5, 7):
            indices = [int(i) for i in rng.integers(1, 3, size=n)]
            expr = parse_expression(
                " ".join(f"phi[{names[i - 1]}]" for i in indices), reg)
            assert fock_vacuum_expectation([("phi", i) for i in indices], table) == 0.0
            assert vacuum_expectation(expr, table) == 0.0
            assert wick_vev(indices, table) == 0.0

    def test_wick_empty_product_is_one(self):
        assert wick_vev([], DYADIC_TABLE) == 1.0

    def test_wick_size_limit(self):
        # past MAX_PAIRING_SIZE: wick_vev enumerates nothing, so it returns
        # contract's value, 17!! (f1, f1)^9
        word = [("phi", 1)] * 18
        assert wick_vev([1] * 18, DYADIC_TABLE) == contract(word, DYADIC_TABLE)
        assert contract(word, DYADIC_TABLE) == pytest.approx(
            math.prod(range(1, 18, 2)) * DYADIC_TABLE[(1, 1)] ** 9, rel=1e-15)

    def test_pairing_enumeration_size_limit(self):
        with pytest.raises(SizeLimitError, match="MAX_PAIRING_SIZE"):
            enumerate_pairings(18)


class TestContract:
    def test_letter_kinds_and_keywords_agree(self):
        reg = FunctionRegistry()
        for name in ("f1", "f2", "f3"):
            reg.register(name)
        table = random_table(np.random.default_rng(5150), 3)
        for text in ("a[f2] phi[f3] adag[f1] phi[f2]",
                     "phi[f1] phi[f3] phi[f3] phi[f2]",
                     "a[f1] a[f3] adag[f3] adag[f2]"):
            expr = parse_expression(text, reg)
            keywords = [(kw, reg.index_of(ident))
                        for kw, ident in parse_terms(text)[0].factors]
            referee = fock_vacuum_expectation(keywords, table)
            assert contract(keywords, table) == pytest.approx(referee, rel=1e-13)
            assert vacuum_expectation(expr, table) == pytest.approx(referee, rel=1e-13)

    def test_orientation_and_trivial_words(self):
        assert contract([], DYADIC_TABLE) == 1.0
        assert contract([("phi", 1)], DYADIC_TABLE) == 0.0
        assert contract([("phi", 1), ("phi", 2)], DYADIC_TABLE) == DYADIC_TABLE[(2, 1)]
        assert contract([("adag", 1), ("a", 2)], DYADIC_TABLE) == 0.0
        assert contract([("a", 1), ("adag", 2)], DYADIC_TABLE) == DYADIC_TABLE[(2, 1)]

    def test_state_limit_admits_24_and_refuses_26_fields(self):
        # n distinct phi letters visit Fibonacci(n+1) unpaired-letter sets:
        # 75 025 for n = 24, 196 418 for n = 26.  With every pair worth 1
        # the value is the number of pairings, 23!! (exact in a double).
        ones = InnerProductTable({(i, j): 1.0 for i in range(1, 27)
                                  for j in range(1, 27)})
        assert MAX_CONTRACTION_STATES == 2**17
        got = contract([("phi", i) for i in range(1, 25)], ones)
        assert got == math.prod(range(1, 24, 2))
        with pytest.raises(SizeLimitError, match="MAX_CONTRACTION_STATES"):
            contract([("phi", i) for i in range(1, 27)], ones)

    def test_vacuum_expectation_still_validates_strategy(self):
        with pytest.raises(InvalidInputError):
            vacuum_expectation(OperatorExpression({(): 1.0}), DYADIC_TABLE,
                               strategy="inner")

    def test_deep_word_is_refused_not_crashed(self):
        # few states but n/2 nested pairings: past the recursion limit
        word = [("a", 1), ("adag", 1)] * 1200
        with pytest.raises(SizeLimitError, match="recursion limit"):
            contract(word, InnerProductTable({(1, 1): 1.0}))

    def test_word_just_inside_the_up_front_guard_is_refused_too(self):
        # n/2 below the limit, but the caller's frames push the nesting past it
        word = [("a", 1), ("adag", 1)] * (sys.getrecursionlimit() - 1)
        with pytest.raises(SizeLimitError, match="recursion limit"):
            contract(word, InnerProductTable({(1, 1): 1.0}))

    def test_deep_word_is_refused_before_its_weight_table(self):
        # 3000 phi letters: an n x n pair table of about 236 MB if built
        word = [("phi", 1)] * max(3000, 2 * sys.getrecursionlimit())
        table = InnerProductTable({(1, 1): 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="recursion limit"):
                contract(word, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestExcitedStateNorm:
    """<0| a[f_n]..a[f_1] adag[f_1]..adag[f_n] |0> by :func:`contract`: the
    permanent of M[p][q] = ip(f_p, f_q)."""

    def test_single_mode_bose_factor(self):
        # n identical quanta: norm = n! * (f,f)^n
        table = InnerProductTable({(1, 1): 3.0})
        assert contract([("a", 1), ("adag", 1)], table) == 3.0
        assert contract([("a", 1), ("a", 1), ("adag", 1), ("adag", 1)], table) == 18.0
        assert contract([("a", 1)] * 3 + [("adag", 1)] * 3, table) == pytest.approx(
            math.factorial(3) * 27.0
        )

    def test_matches_permanent_oracle(self):
        table = random_table(np.random.default_rng(4242), 3)
        for word in (
            [("a", 2), ("a", 1), ("adag", 1), ("adag", 2)],
            [("a", 3), ("a", 2), ("a", 1), ("adag", 1), ("adag", 2), ("adag", 3)],
            [("a", 2), ("a", 1), ("a", 1), ("adag", 1), ("adag", 1), ("adag", 2)],
            [("a", 1), ("a", 3), ("a", 3), ("a", 2),
             ("adag", 2), ("adag", 3), ("adag", 3), ("adag", 1)],
        ):
            indices = [index for kind, index in word if kind == "adag"]
            matrix = [[table[(p, q)] for q in indices] for p in indices]
            got = contract(word, table)
            assert got == pytest.approx(permanent(matrix), rel=1e-12, abs=1e-14)

    def test_nine_quanta_past_pairing_limit_is_exact(self):
        # 18 letters, beyond MAX_PAIRING_SIZE: norm = 9! * (f,f)^9 exactly
        table = InnerProductTable({(1, 1): 3.0})
        word = [("a", 1)] * 9 + [("adag", 1)] * 9
        assert contract(word, table) == math.factorial(9) * 3**9

    def test_orthogonal_modes_factorize(self):
        table = InnerProductTable({
            (1, 1): 2.0, (2, 2): 5.0, (1, 2): 0.0, (2, 1): 0.0,
        })
        assert contract([("a", 2), ("a", 1), ("adag", 1), ("adag", 2)], table) == 10.0


class TestParser:
    def test_plain_product(self):
        terms = parse_terms("phi[f] phi[g]")
        assert len(terms) == 1
        assert terms[0].coefficient == 1.0
        assert terms[0].factors == (("phi", "f"), ("phi", "g"))
        assert terms[0].is_phi_product

    def test_signs_and_coefficients(self):
        terms = parse_terms("2*phi[f] - 0.5j*a[g] + (1+2j)*adag[h]")
        assert [t.coefficient for t in terms] == [2.0, -0.5j, 1 + 2j]
        assert terms[1].factors == (("a", "g"),)
        assert not terms[1].is_phi_product

    def test_parenthesized_difference_literal(self):
        terms = parse_terms("(1-0.5j)*phi[f]")
        assert terms[0].coefficient == 1 - 0.5j

    def test_scientific_notation(self):
        terms = parse_terms("1e-3*phi[f]")
        assert terms[0].coefficient == 1e-3

    def test_whitespace_insensitive(self):
        compact = parse_terms("2*phi[f]+a[g]")
        spaced = parse_terms("  2 * phi [ f ]  +  a [ g ]  ")
        assert compact == spaced

    def test_unterminated_bracket_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_terms("phi[f1")
        assert err.value.position == 7
        assert "offset 7" in str(err.value)

    def test_unknown_keyword_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_terms("phi[f] + nope[g]")
        assert err.value.position == 10

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_terms("phi[f] @ a[g]")
        assert err.value.position == 8

    def test_missing_star_after_coefficient(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_terms("2 phi[f]")
        assert err.value.position == 3

    def test_bad_complex_literal(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_terms("(1+phi)*phi[f]")

    @pytest.mark.parametrize("text, position", [("1e400*phi[f]", 1),
                                                 ("(1-1e999j)*phi[f]", 4)],
                             ids=["real", "imaginary"])
    def test_literal_past_the_float_range_rejected(self, text, position):
        with pytest.raises(ExpressionSyntaxError, match="outside the float range") as err:
            parse_terms(text)
        assert err.value.position == position

    def test_empty_input_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_terms("")

    def test_auto_registration_order(self):
        reg = FunctionRegistry()
        parse_expression("phi[b] phi[a] + phi[b]", reg)
        assert (reg.index_of("b"), reg.index_of("a"), reg.ensure("c")) == (1, 2, 3)

    def test_expression_semantics_match_manual_build(self):
        reg = FunctionRegistry()
        got = parse_expression("2*phi[f] a[g] - adag[f] + 0.5j*phi[f] a[g]", reg)
        i_f, i_g = reg.index_of("f"), reg.index_of("g")
        assert got.terms == {(("phi", i_f), ("a", i_g)): 2 + 0.5j,
                             (("adag", i_f),): -1.0}

    def test_parsed_vev_matches_table(self):
        reg = FunctionRegistry()
        expr = parse_expression("phi[f1] phi[f2]", reg)
        assert vacuum_expectation(expr, DYADIC_TABLE) == DYADIC_TABLE[(2, 1)]
