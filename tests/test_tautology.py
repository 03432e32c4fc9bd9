"""Selection rule, string/dilaton equations, negative p."""

from fractions import Fraction as F

import pytest

from pspin.correlators import TauCorrelator, one_point_table, two_point_table
from pspin.exact import UsageError
from pspin.tautology import (
    dilaton_check,
    selection_rule,
    string_check,
)
from reference import zeta_one_minus_2g


class TestSelectionRule:
    def test_examples(self):
        assert selection_rule(3, 2, [(0, 1), (4, 1)])       # 16 = 16
        assert not selection_rule(3, 2, [(0, 0), (4, 1)])   # parity mismatch
        assert selection_rule(4, 1, [(0, 2), (1, 2)])       # 10 = 3 + 7

    def test_all_table_entries(self):
        for p in (3, 4, 5, 6, 7):
            for e in two_point_table(p, 2 if p <= 5 else 1):
                assert selection_rule(p, e.genus, e.marks)


class TestStringEquation:
    @pytest.mark.parametrize("p", range(3, 10))
    def test_exact_for_small_p(self, p):
        table = two_point_table(p, 2)
        report = string_check(table, p)
        assert report.checked, f"no applicable string checks at p={p}"
        assert report.all_passed, report.render()
        for c in report.checked:
            assert c.difference == 0

    def test_p5_cross_value(self):
        # both sides equal 11/3600 at p=5
        table = two_point_table(5, 2)
        entry = next(
            e for e in table if e.genus == 2 and e.marks == ((0, 0), (4, 2))
        )
        assert F(entry.value) == F(11, 3600)
        report = string_check([entry], 5)
        assert report.all_passed and report.checked[0].difference == 0

    def test_genus3_instance(self):
        # <tau_{0,0} tau_{7,1}>_{g=3} = <tau_{6,1}>_{g=3} at p=3
        table = [e for e in two_point_table(3, 3) if e.genus == 3]
        report = string_check(table, 3)
        assert report.checked and report.all_passed

    def test_empty_report_without_insertions(self):
        table = [e for e in two_point_table(3, 2)
                 if all(mk != (0, 0) for mk in e.marks)]
        report = string_check(table, 3)
        assert report.checked == []

    def test_sweep_renders(self):
        # the report `pspin verify string` prints, at each p
        for p in (3, 4):
            report = string_check(two_point_table(p, 1), p)
            assert report.all_passed
            assert "PASS" in report.render()
            assert report.to_dict()["passed"]


class TestDilaton:
    @pytest.mark.parametrize("p", range(3, 8))
    def test_ratio_identity(self, p):
        table = two_point_table(p, 2)
        report = dilaton_check(table, p)
        assert report.checked
        assert report.all_passed, report.render()

    def test_genus_zero_entry_raises(self):
        entry = TauCorrelator(F(3), 0, ((1, 0), (1, 0)), F(1))
        with pytest.raises(UsageError, match="genus must be >= 1"):
            dilaton_check([entry], 3)


class TestNegativeP:
    def test_p_minus_3(self):
        table = {(e.genus, e.marks[0]): e.value for e in one_point_table(-3, 3)}
        assert table[(1, (1, 0))] == F(-1, 6)
        assert table[(2, (3, 2))] == F(1, 144)
        assert table[(3, (6, 1))] == F(-35, 34992)

    def test_p_minus_1_zeta(self):
        table = {e.genus: e.value for e in one_point_table(-1, 4)}
        for g in range(1, 5):
            assert table[g] == zeta_one_minus_2g(g)

    def test_values(self):
        vals = [e.value for e in one_point_table(-1, 4)]
        assert vals == [F(-1, 12), F(1, 120), F(-1, 252), F(1, 240)]


class TestGenus3Dilaton:
    def test_p3_genus3_pair(self):
        # <tau_{1,0} tau_{6,1}>_{g=3} = (2g-2+1) <tau_{6,1}>_{g=3} with factor 5
        table = [e for e in two_point_table(3, 3) if e.genus == 3]
        report = dilaton_check(table, 3)
        assert report.checked and report.all_passed
        assert any("g=3" in c.identity for c in report.checked)
