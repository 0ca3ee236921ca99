#!/usr/bin/env python3
"""A FaRM-style distributed key-value store, two builds compared.

The scenario of §7.3: node 0 owns the data store, node 1 runs a
read-heavy KV application.  The baseline build uses FaRM's
per-cache-line versions (software atomicity, intermediate buffering);
the SABRe build keeps the object store unmodified and reads zero-copy.
Writes go to the data owner over an RPC in both builds.

Run:  python examples/kv_store_comparison.py
"""

from contextlib import closing

from repro import FarmConfig, FarmKV, run_farm


def demo_reads(object_size: int) -> None:
    print(f"\n--- read-only lookups, {object_size} B objects ---")
    for use_sabre in (False, True):
        cfg = FarmConfig(
            use_sabre=use_sabre,
            object_size=object_size,
            n_objects=2048,
            readers=4,
            duration_ns=120_000.0,
            warmup_ns=15_000.0,
        )
        result = run_farm(cfg)
        build = "SABRe   " if use_sabre else "baseline"
        means = result.breakdown.means()
        print(
            f"{build}: {result.mean_latency_ns:7.1f} ns/lookup, "
            f"{result.goodput_gbps:6.2f} GB/s  "
            f"[transfer {means['transfer']:.0f} | "
            f"framework {means['framework']:.0f} | "
            f"strip {means['stripping']:.0f} | "
            f"app {means['application']:.0f}]"
        )


def demo_writes() -> None:
    print("\n--- writes ship to the data owner over RPC (§2.1) ---")
    cfg = FarmConfig(use_sabre=True, object_size=256, n_objects=16)
    with closing(FarmKV(cfg)) as kv:
        sim = kv.cluster.sim

        def client():
            t0 = sim.now
            yield kv.put("key-7", b"fresh value".ljust(cfg.payload_len, b"\x00"))
            print(f"put(key-7) completed in {sim.now - t0:.1f} ns")
            result = kv.store.read(7)
            print(f"owner now holds version {result.version}: "
                  f"{result.data[:11]!r}")

        sim.process(client())
        sim.run()


def main() -> None:
    for size in (128, 1024, 8192):
        demo_reads(size)
    demo_writes()


if __name__ == "__main__":
    main()
