"""Table 2: system parameters for the simulated rack."""

from conftest import run_once, show

from repro.experiments.runner import format_table
from repro.harness.tables import table2_rows


def test_table2_parameters(benchmark):
    headers, rows = run_once(benchmark, table2_rows)
    show("Table 2: system parameters", format_table(headers, rows))
    components = {r["component"] for r in rows}
    assert "LightSABRes" in components
    sram = next(r for r in rows if r["component"] == "LightSABRes")
    benchmark.extra_info["lightsabres_provisioning"] = sram["parameters"]
