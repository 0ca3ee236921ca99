#!/usr/bin/env python3
"""Extending the experiment framework: a custom read protocol and a
custom declarative sweep, run in parallel.

Two extension points, no core edits:

1. a new ``ReadProtocol`` — here a paranoid client that pays a
   Pilaf-style checksum *on top of* hardware SABRes ("belt and
   suspenders"), registered under a new mechanism name;
2. a new ``ExperimentSpec`` comparing it against stock SABRes across
   object sizes, executed with a 2-worker sweep.

Run:  PYTHONPATH=src python examples/experiment_sweep.py
"""

from repro.experiments import ExperimentSpec, Variant, register, run_sweep
from repro.objstore.protocols import HardwareSabreProtocol, register_protocol
from repro.workloads.microbench import MicrobenchConfig, run_microbench


@register_protocol
class BeltAndSuspendersProtocol(HardwareSabreProtocol):
    """Hardware SABRe plus a redundant software checksum of the
    delivered payload (modeled as the perCL check cost)."""

    name = "sabre_checked"

    def complete(self, result, buf, wire):
        ok, data = yield from super().complete(result, buf, wire)
        if ok:
            # Redundant paranoia pass over the received bytes, charged
            # at Pilaf's checksum rate.
            yield self.costs.checksum_cost_ns(self.payload_len)
        return ok, data


def _point(ctx):
    # The point's parameters layered over MicrobenchConfig's defaults:
    # the spec below states only what this experiment changes.
    result = run_microbench(MicrobenchConfig.from_params(ctx.params, ctx.scale))
    return {ctx.variant: result.mean_op_latency_ns}


SPEC = register(
    ExperimentSpec(
        name="example_belt_and_suspenders",
        description="stock SABRes vs SABRes + redundant software check",
        axes={"object_size": (128, 1024, 8192)},
        variants=(
            Variant("sabre_ns", {"mechanism": "sabre"}),
            Variant("checked_ns", {"mechanism": "sabre_checked"}),
        ),
        defaults={
            "n_objects": 64,
            "readers": 2,
            "duration_ns": 60_000.0,  # multiplied by the sweep's scale
            "warmup_ns": 8_000.0,
            "seed": 7,
        },
        headers=("object_size", "sabre_ns", "checked_ns"),
        point_fn=_point,
    )
)


def main() -> None:
    result = run_sweep(SPEC, scale=0.25, jobs=2)
    print(result.table())
    print(
        f"\n{result.points_total} points, {result.jobs} workers, "
        f"{result.elapsed_s:.1f}s — the redundant check costs latency "
        "at every size and buys nothing: SABRes are already atomic."
    )


if __name__ == "__main__":
    main()
