#!/usr/bin/env python3
"""Conflict sensitivity study (the Fig. 8 scenario, scaled down).

16 reader threads on node 1 perform atomic remote reads of 100
LLC-resident objects on node 0 while a growing pool of writer threads
updates CREW-partitioned subsets in place.  Compares LightSABRes with
FaRM's per-cache-line versions as conflict probability rises, and
reports abort/conflict counts — plus the ground-truth audit proving no
torn read was ever consumed.  For SABRes it also splits the
destination's aborts by what caught the conflict: the stream buffer's
snoop during the window of vulnerability, a locked version word, or
the validate stage's re-read of the header (§4.2).

Run:  python examples/conflict_study.py
"""

from repro import MicrobenchConfig, run_microbench


def main() -> None:
    object_size = 1024
    print(f"{'writers':>7s} {'mechanism':>15s} {'GB/s':>7s} "
          f"{'mean ns':>8s} {'conflicts':>9s} {'window':>6s} {'locked':>6s} "
          f"{'validate':>8s} {'torn reads':>10s}")
    for writers in (0, 4, 8, 16):
        for mechanism in ("sabre", "percl_versions"):
            cfg = MicrobenchConfig(
                mechanism=mechanism,
                object_size=object_size,
                n_objects=100,
                readers=16,
                writers=writers,
                writer_think_ns=1500.0,
                duration_ns=100_000.0,
                warmup_ns=15_000.0,
            )
            result = run_microbench(cfg)
            conflicts = result.sabre_aborts + result.software_conflicts
            caught = result.destination_counters
            window = caught.get("abort_window_invalidation", 0) + caught.get(
                "abort_window_eviction", 0
            )
            print(
                f"{writers:7d} {mechanism:>15s} {result.goodput_gbps:7.2f} "
                f"{result.mean_op_latency_ns:8.1f} {conflicts:9d} {window:6d} "
                f"{caught.get('abort_locked_version', 0):6d} "
                f"{caught.get('abort_validate_mismatch', 0):8d} "
                f"{result.undetected_violations:10d}"
            )
    print("\n'torn reads' is the ground-truth audit: every consumed read "
          "is checked against the\nwriter-stamped payload; a non-zero count "
          "would mean an atomicity violation escaped.")


if __name__ == "__main__":
    main()
