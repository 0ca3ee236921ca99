"""Tier-1 smoke of the repo benchmark (``bench/run.py --smoke``).

Floor durations on all four workloads: the output must match
BENCHMARK.json name for name, the simulated numbers must repeat exactly
for a seed and move with it, the correctness check must be able to
fail, and nothing may be left running.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=120,
    )


def report_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout.decode()[-2000:] + done.stderr.decode()[-2000:]
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def serve_processes() -> set:
    pids = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"repro.serve.cli" in fh.read():
                    pids.add(int(pid))
        except OSError:
            continue
    return pids


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_pair() -> list:
    """Two full smoke runs with the same seed, side by side; the first
    under a polluted environment that run.py must scrub."""
    before = serve_processes()
    dirty = dict(os.environ, REPRO_SIM_SCHEDULER="heap", SABRES_BENCH_SCALE="3")
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda env: run("--smoke", "--seed", "7", env=env),
                             (dirty, None)))
    reports = [report_of(done) for done in runs]
    assert serve_processes() <= before, "a repro-serve child outlived its run"
    return reports


def exact_metrics(entry: dict) -> dict:
    picked = {}
    for block in ("end_to_end", "per_layer"):
        for name, cell in entry[block].items():
            if (
                name.startswith("sim_")
                or name == "sim.events_per_op"
                or name.endswith(".calls_per_op")
            ):
                picked[name] = cell["value"]
    return picked


def test_output_matches_benchmark_json(spec, smoke_pair):
    report = smoke_pair[0]
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in report["workloads"].items():
        assert entry["correct"], (name, entry["problems"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        for block in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[block]}
            got = {n: cell["unit"] for n, cell in entry[block].items()}
            assert got == declared, (name, block)
            assert all(NAME.match(n) for n in got)
            for n, cell in entry[block].items():
                assert isinstance(cell["value"], (int, float)), (name, n)
        for n, cell in entry["end_to_end"].items():
            assert cell["value"] > 0, (name, n)


def test_environment_is_scrubbed_and_recorded(smoke_pair):
    dirty, clean = (r["provenance"] for r in smoke_pair)
    assert dirty["env_scrubbed"] == ["REPRO_SIM_SCHEDULER", "SABRES_BENCH_SCALE"]
    assert clean["env_scrubbed"] == []
    for prov in (dirty, clean):
        assert prov["scheduler"] == "calendar" and prov["block_mode"] == "batched"
        assert prov["seed"] == 7 and prov["nproc"] >= 1
        assert prov["python"] and prov["platform"] and prov["git_sha"]


def test_simulated_numbers_repeat_for_a_seed_and_move_with_it(smoke_pair):
    first, second = smoke_pair
    for name in first["workloads"]:
        a = exact_metrics(first["workloads"][name])
        assert a == exact_metrics(second["workloads"][name]), name
        assert a["sim.events_per_op"] > 0 and a["sim.calls_per_op"] > 0
    other = report_of(run("--smoke", "--seed", "8", "--workload", "kv_mixed"))
    moved = exact_metrics(other["workloads"]["kv_mixed"])
    same = exact_metrics(first["workloads"]["kv_mixed"])
    for name in ("sim_read_p99_ns", "sim.events_per_op", "sim.calls_per_op"):
        assert moved[name] != same[name], name


def test_the_atomicity_check_can_fail(smoke_pair):
    assert all(report["control_caught"] for report in smoke_pair)
    done = run("--control-only", "--seed", "7")
    assert done.returncode == 1
    assert b"CHECK FAILED" in done.stdout or b"torn reads consumed" in done.stdout


def test_no_port_left_listening(smoke_pair):
    for report in smoke_pair:
        for _pid, port in report["workloads"]["serve_http"]["info"]["servers"]:
            with socket.socket() as sock:
                sock.settimeout(1.0)
                assert sock.connect_ex(("127.0.0.1", port)) != 0, port


def test_fails_fast_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the
    command must exit non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kv_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert done.returncode != 0
    assert b'"correct"' not in done.stdout
