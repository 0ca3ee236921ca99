"""Table 2: system parameters for the simulated rack."""

from conftest import show

from repro.experiments.runner import format_table
from repro.harness.tables import table2_rows


def test_table2_parameters():
    headers, rows = table2_rows()
    show("Table 2: system parameters", format_table(headers, rows))
    components = {r["component"] for r in rows}
    assert "LightSABRes" in components
