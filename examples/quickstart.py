#!/usr/bin/env python3
"""Quickstart: atomic remote object reads with SABRes.

Builds the paper's two-node soNUMA cluster (Table 2 defaults), stores
an object on node 0, and reads it from node 1 three ways:

1. a plain one-sided remote read (no atomicity guarantee),
2. a SABRe (hardware-atomic bulk read),
3. a SABRe racing a writer — showing the abort/retry flow.

Run:  python examples/quickstart.py
"""

from repro import Cluster, ObjectStore, RawLayout, stamped_payload, torn_words


def main() -> None:
    with Cluster() as cluster:
        owner, client = cluster.node(0), cluster.node(1)

        # --- 1. put an object in node 0's memory -------------------------
        store = ObjectStore(owner.phys, RawLayout())
        payload = stamped_payload(version=0, length=1000)
        store.create(obj_id=1, data=payload)
        handle = store.handle(1)
        print(f"object 1: {handle.wire_size} B at {handle.base_addr:#x} "
              f"({handle.num_blocks} cache blocks)")

        # --- 2. read it remotely, both ways -------------------------------
        buf = client.alloc_buffer(handle.wire_size)

        def reader():
            read = yield client.remote_read(0, handle.base_addr, handle.wire_size, buf)
            print(f"remote read : {read.timings.end_to_end_ns:6.1f} ns "
                  "(no atomicity guarantee)")

            sabre = yield client.sabre_read(0, handle.base_addr, handle.wire_size, buf)
            print(f"SABRe       : {sabre.timings.end_to_end_ns:6.1f} ns "
                  f"(atomic: {sabre.success})")

        cluster.sim.process(reader())
        cluster.run()

        # --- 3. race a writer: the SABRe aborts, software retries --------
        def racing_writer():
            steps, version = store.update_steps(1, stamped_payload(2, 1000))
            for addr, chunk in steps:
                owner.chip.write_block(0, addr, chunk)

        # Commit the update mid-transfer (the SABRe's vulnerable window).
        cluster.sim.call_later(cluster.sim.now + 100.0, racing_writer)

        def retrying_reader():
            attempts = 0
            while True:
                attempts += 1
                result = yield client.sabre_read(
                    0, handle.base_addr, handle.wire_size, buf
                )
                if result.success:
                    break
            raw = client.read_local(buf, handle.wire_size)
            data = RawLayout().unpack(raw, 1000).data
            torn, versions = torn_words(data)
            print(f"racing SABRe: success after {attempts} attempt(s); "
                  f"torn={torn}; payload version(s)={versions}")

        cluster.sim.process(retrying_reader())
        cluster.run()

        aborts = owner.counters.get("sabre_aborts")
        print(f"destination counters: {aborts} abort(s), "
              f"{owner.counters.get('sabre_successes')} success(es)")


if __name__ == "__main__":
    main()
