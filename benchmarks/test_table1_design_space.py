"""Table 1: the design space for one-sided atomic object reads."""

from conftest import show

from repro.harness.tables import table1


def test_table1_design_space():
    table = table1()
    show("Table 1: design space for one-sided atomic object reads", table)
    assert "SABRes" in table
