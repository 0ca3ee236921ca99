"""Serving-layer tests: settings, metrics exposition, the time
bridge, virtual-time replay determinism, and the asyncio gateway."""

import asyncio
import json
import math

import pytest

from repro.common.errors import ConfigError
from repro.objstore.sharded import ShardedConfig
from repro.serve import cli
from repro.serve.bridge import SimBridge
from repro.serve.gateway import MAX_BODY_BYTES, Gateway, TokenBucket
from repro.serve.metrics import (
    Histogram,
    SUMMARY_QUANTILES,
    MetricsRegistry,
    parse_samples,
)
from repro.serve.ops import ArrivalTrace, TimedOp, merge_sorted
from repro.serve.settings import ServeSettings
from repro.sim.stats import Samples


# ----------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------


class TestSettings:
    def test_defaults_validate(self):
        ServeSettings().validate()

    def test_every_flag_sets_a_field(self):
        """An unset flag is absent, not None, and every flag stores under
        a field's name, so ``from_fields`` drops none of them."""
        parser = cli.build_parser()
        assert vars(parser.parse_args([])) == {}
        fields = set(ServeSettings.__dataclass_fields__)
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help"}
        assert dests <= fields

    def test_nan_flag_value_rejected(self, monkeypatch, capsys):
        """``float("nan")`` parses, so validation must refuse it: a NaN
        deadline would answer every GET ``timeout`` at 0 ns."""
        async def never_serve(settings):
            raise AssertionError("a NaN timeout reached the server")

        monkeypatch.setattr(cli, "serve", never_serve)
        assert cli.main(["--request-timeout-ns", "nan"]) == 2
        assert "request_timeout_ns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": 70000},
            {"request_timeout_ns": -1.0},
            {"txn_max_attempts": 0},
            {"max_sessions": 0},
            {"rate_limit_qps": -1.0},
            {"n_clients": 0},
            *(
                pytest.param({name: bad}, id=f"{name}={bad}")
                for name in (
                    "request_timeout_ns",
                    "rate_limit_qps",
                    "rate_limit_burst",
                    "warmup_delay_s",
                    "drain_timeout_s",
                    "fallback_after_ns",
                )
                for bad in (math.nan, math.inf)
            ),
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            ServeSettings(**kwargs).validate()

    def test_replication_clamped_to_shards(self):
        s = ServeSettings(n_shards=1, replication=3)
        assert s.replication == ShardedConfig.of(s).replication == 1


# ----------------------------------------------------------------------
# metrics exposition
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_labels(self):
        m = MetricsRegistry()
        c = m.counter("x_total", "help")
        c.inc(op="get")
        c.inc(2, op="get")
        c.inc(op="put")
        samples = parse_samples(m.render())
        assert samples['x_total{op="get"}'] == 3
        assert samples['x_total{op="put"}'] == 1

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("x", "help")
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_gauge_set_and_dec(self):
        m = MetricsRegistry()
        g = m.gauge("g", "help")
        g.set(5)
        g.dec()
        assert parse_samples(m.render()) == {"g": 4}

    def test_duplicate_name_rejected(self):
        m = MetricsRegistry()
        m.counter("dup", "help")
        with pytest.raises(ConfigError):
            m.gauge("dup", "help")

    def test_histogram_buckets_cumulative(self):
        h = Histogram("lat", "help", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        lines = "\n".join(h.render())
        assert 'lat_bucket{le="10"} 1' in lines
        assert 'lat_bucket{le="100"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines

    def test_histogram_quantiles_match_samples(self):
        h = Histogram("lat", "help", buckets=(1e9,))
        s = Samples()
        for v in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0):
            h.observe(v)
            s.add(v)
        assert h.quantiles() == [s.percentile(q * 100) for q in SUMMARY_QUANTILES]
        assert all(math.isnan(v) for v in h.quantiles(op="unobserved"))

    def test_histogram_quantile_stays_between_observations(self):
        """Two subnormal observations: the unclamped interpolation
        underflowed to 0.0, outside ``[min, max]``."""
        h = Histogram("lat", "help", buckets=(1e9,))
        h.observe(5e-324)
        h.observe(5e-324)
        assert h.quantiles() == [5e-324] * len(SUMMARY_QUANTILES)

    def test_render_is_sorted_and_stable(self):
        m = MetricsRegistry()
        m.counter("zzz", "z").inc()
        m.counter("aaa", "a").inc()
        text = m.render()
        assert text.index("aaa") < text.index("zzz")
        assert text == m.render()
        assert text.endswith("\n")

    def test_volatile_excluded_on_request(self):
        m = MetricsRegistry()
        m.gauge("uptime", "wall", volatile=True).set(1.23)
        m.counter("stable", "ok").inc()
        assert "uptime" in m.render(include_volatile=True)
        assert "uptime" not in m.render(include_volatile=False)
        assert "stable" in m.render(include_volatile=False)

    def test_collector_samples_rendered(self):
        m = MetricsRegistry()
        m.add_collector(
            lambda: [("col_total", "counter", "h", {"shard": "0"}, 7.0)]
        )
        samples = parse_samples(m.render())
        assert samples['col_total{shard="0"}'] == 7


# ----------------------------------------------------------------------
# request vocabulary
# ----------------------------------------------------------------------


class TestOps:
    def test_op_validation(self):
        with pytest.raises(ConfigError):
            TimedOp(op_id=0, at_ns=0.0, kind="scan", key="k")
        with pytest.raises(ConfigError):
            TimedOp(op_id=0, at_ns=0.0, kind="get")
        with pytest.raises(ConfigError):
            TimedOp(op_id=0, at_ns=-1.0, kind="get", key="k")
        with pytest.raises(ConfigError):
            TimedOp(op_id=0, at_ns=0.0, kind="txn")

    def test_trace_must_be_sorted(self):
        ops = [
            TimedOp(op_id=0, at_ns=10.0, kind="get", key="a"),
            TimedOp(op_id=1, at_ns=5.0, kind="get", key="b"),
        ]
        with pytest.raises(ConfigError):
            ArrivalTrace(ops=ops)

    def test_trace_span_and_merge(self):
        t1 = ArrivalTrace(
            ops=[TimedOp(op_id=0, at_ns=0.0, kind="get", key="a")],
            offered_qps=10.0,
        )
        t2 = ArrivalTrace(
            ops=[TimedOp(op_id=0, at_ns=5.0, kind="put", key="b")],
            offered_qps=20.0,
        )
        merged = merge_sorted([t1, t2])
        assert [op.op_id for op in merged.ops] == [0, 1]
        assert [op.at_ns for op in merged.ops] == [0.0, 5.0]
        assert merged.offered_qps == 30.0


# ----------------------------------------------------------------------
# the time bridge
# ----------------------------------------------------------------------


def _trace(bridge, spec):
    """spec: list of (at_ns, kind, key-or-(reads, writes)) tuples."""
    ops = []
    for i, (at, kind, what) in enumerate(spec):
        if kind == "txn":
            ops.append(
                TimedOp(
                    op_id=i,
                    at_ns=at,
                    kind=kind,
                    read_keys=what[0],
                    write_keys=what[1],
                )
            )
        else:
            ops.append(TimedOp(op_id=i, at_ns=at, kind=kind, key=what))
    return ArrivalTrace(ops=ops, offered_qps=1000.0, seed=1)


class TestBridge:
    def test_warm_reads_every_member_shard(self):
        bridge = SimBridge(ServeSettings())
        assert not bridge.ready
        consumed = bridge.warm()
        assert bridge.ready
        assert consumed == len(bridge.kv.member_shards())

    def test_op_statuses(self):
        bridge = SimBridge(ServeSettings())
        bridge.warm()
        keys = bridge.kv.keys()
        report = bridge.replay(
            _trace(
                bridge,
                [
                    (0.0, "get", keys[0]),
                    (100.0, "put", keys[1]),
                    (200.0, "txn", ((keys[0],), (keys[2],))),
                    (300.0, "get", "no-such-key"),
                ],
            )
        )
        by_id = {r.op.op_id: r for r in report.results}
        assert by_id[0].status == "ok"
        assert by_id[0].detail["version"] is not None
        assert by_id[1].status == "ok"
        assert by_id[2].status == "ok"
        assert by_id[2].detail["attempts"] == 1
        assert by_id[3].status == "not_found"
        assert report.n_ok == 3 and report.n_errors == 1
        assert report.errors_by_status == {"not_found": 1}

    def test_deadline_counts_from_arrival(self):
        # Two simultaneous arrivals through one session and a budget
        # smaller than one read: the queued op's budget is consumed by
        # *waiting*, so it must answer timeout without ever touching
        # the cluster — the deadline starts at arrival, not dispatch.
        bridge = SimBridge(
            ServeSettings(max_sessions=1, request_timeout_ns=1.0)
        )
        bridge.warm()
        report = bridge.replay(
            _trace(bridge, [(0.0, "get", "key-0"), (0.0, "get", "key-1")])
        )
        statuses = sorted(r.status for r in report.results)
        assert statuses == ["ok", "timeout"]

    def test_bounded_pool_queues_fifo(self):
        bridge = SimBridge(ServeSettings(max_sessions=1))
        bridge.warm()
        keys = [f"key-{i}" for i in range(8)]
        report = bridge.replay(
            _trace(bridge, [(0.0, "get", k) for k in keys])
        )
        assert report.n_ok == len(keys)
        samples = parse_samples(bridge.metrics.render())
        assert samples['repro_session_waits_total{pool="reader"}'] > 0
        # FIFO: completion order follows arrival (op_id) order.
        finished = [r.op.op_id for r in report.results]
        assert finished == sorted(finished)

    def test_overload_answers_timeout_not_backlog(self):
        bridge = SimBridge(
            ServeSettings(max_sessions=1, request_timeout_ns=2_000.0)
        )
        bridge.warm()
        # 64 simultaneous arrivals through one session: most of the
        # queue must burn its whole budget waiting and answer 504.
        report = bridge.replay(
            _trace(bridge, [(0.0, "get", f"key-{i}") for i in range(64)])
        )
        assert report.errors_by_status.get("timeout", 0) > 0
        assert report.n_ok + report.n_errors == 64

    def test_metrics_export_per_shard_counters(self):
        bridge = SimBridge(ServeSettings())
        bridge.warm()
        bridge.replay(_trace(bridge, [(0.0, "get", "key-0")]))
        samples = parse_samples(bridge.metrics_snapshot())
        for series in (
            'repro_shard_reads_routed{shard="0"}',
            'repro_shard_undetected_violations{shard="0"}',
            'repro_shard_busy_rejects{shard="0"}',
            'repro_shard_fallback_reads{shard="0"}',
            'repro_shard_reshard_redirects{shard="0"}',
            'repro_txn_commits{shard="0"}',
            "repro_partition_refusals_total",
            'repro_requests_total{code="ok",op="get"}',
        ):
            assert series in samples, series

    def test_txn_conflict_maps_to_conflict_status(self):
        bridge = SimBridge(ServeSettings(txn_max_attempts=1))
        bridge.warm()
        keys = bridge.kv.keys()
        # Two same-instant transactions over the same write key: with
        # one attempt allowed, a lock conflict surfaces as `conflict`.
        trace = _trace(
            bridge,
            [
                (0.0, "txn", ((), (keys[0], keys[1]))),
                (0.0, "txn", ((), (keys[1], keys[0]))),
            ],
        )
        report = bridge.replay(trace)
        statuses = sorted(r.status for r in report.results)
        assert statuses in (["conflict", "ok"], ["ok", "ok"])


class TestReplayDeterminism:
    @pytest.mark.smoke
    def test_same_seed_same_trace_byte_identical_metrics(self):
        """The tentpole determinism claim: same seed + same recorded
        arrival trace in load-test (virtual-time) mode produce a
        byte-identical metrics snapshot — including the full latency
        histogram — across two runs."""
        spec = [(i * 500.0, ("get", "put", "txn")[i % 3], None) for i in range(60)]
        snapshots = []
        reports = []
        for _ in range(2):
            bridge = SimBridge(ServeSettings(seed=7))
            bridge.warm()
            keys = bridge.kv.keys()
            ops = []
            for i, (at, kind, _) in enumerate(spec):
                if kind == "txn":
                    ops.append(
                        TimedOp(
                            op_id=i,
                            at_ns=at,
                            kind=kind,
                            read_keys=(keys[i % 5],),
                            write_keys=(keys[5 + i % 5],),
                        )
                    )
                else:
                    ops.append(
                        TimedOp(
                            op_id=i, at_ns=at, kind=kind, key=keys[i % 16]
                        )
                    )
            trace = ArrivalTrace(ops=ops, offered_qps=2_000_000.0, seed=7)
            reports.append(bridge.replay(trace))
            snapshots.append(bridge.metrics_snapshot())
        assert snapshots[0] == snapshots[1]
        assert "repro_request_virtual_ns_bucket" in snapshots[0]
        assert reports[0].to_row() == reports[1].to_row()

    def test_different_seed_differs(self):
        # Guards against the test above passing vacuously (e.g. an
        # empty snapshot comparing equal).
        rows = []
        for seed in (1, 2):
            bridge = SimBridge(ServeSettings(seed=seed))
            bridge.warm()
            trace = ArrivalTrace(
                ops=[
                    TimedOp(op_id=i, at_ns=i * 100.0, kind="get", key=f"key-{i}")
                    for i in range(20)
                ],
                offered_qps=1000.0,
                seed=seed,
            )
            rows.append(bridge.replay(trace).to_row())
        assert rows[0] != rows[1]


# ----------------------------------------------------------------------
# the gateway (socket level)
# ----------------------------------------------------------------------


async def _http(host, port, method, path, body=b"", keep=None):
    """One request; returns (status, parsed-or-raw body, conn)."""
    if keep is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = keep
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readuntil(b"\r\n\r\n")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    for line in status_line.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    raw = await reader.readexactly(length)
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = raw.decode("utf-8", "replace")
    return status, payload, (reader, writer)


def _gateway_settings(**overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("drain_timeout_s", 5.0)
    return ServeSettings(**overrides)


async def _booted(settings):
    gw = Gateway(settings)
    await gw.start()
    # Wait until warmup flips readiness (the driver warms on start).
    for _ in range(200):
        if gw.bridge.ready:
            break
        await asyncio.sleep(0.01)
    return gw


class TestGateway:
    def test_readyz_flips_false_then_true(self):
        async def scenario():
            gw = Gateway(_gateway_settings(warmup_delay_s=0.3))
            await gw.start()
            host, port = gw.settings.host, gw.port
            early, payload, conn = await _http(host, port, "GET", "/readyz")
            conn[1].close()
            assert early == 503 and payload["status"] == "warming"
            for _ in range(300):
                status, payload, conn = await _http(host, port, "GET", "/readyz")
                conn[1].close()
                if status == 200:
                    break
                await asyncio.sleep(0.02)
            assert status == 200 and payload["status"] == "ready"
            healthz, _, conn = await _http(host, port, "GET", "/healthz")
            conn[1].close()
            assert healthz == 200
            await gw.drain()

        asyncio.run(scenario())

    def test_object_and_txn_round_trip(self):
        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            status, body, conn = await _http(host, port, "GET", "/v1/obj/key-3")
            assert status == 200 and body["status"] == "ok"
            assert body["kind"] == "get" and "latency_ns" in body
            # Keep-alive: reuse the same connection for the write.
            status, body, conn = await _http(
                host, port, "PUT", "/v1/obj/key-3", keep=conn
            )
            assert status == 200 and body["kind"] == "put"
            txn = json.dumps(
                {"read_keys": ["key-1"], "write_keys": ["key-2"]}
            ).encode()
            status, body, conn = await _http(
                host, port, "POST", "/v1/txn", body=txn, keep=conn
            )
            assert status == 200 and body["kind"] == "txn"
            conn[1].close()
            await gw.drain()

        asyncio.run(scenario())

    def test_error_statuses(self):
        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            cases = [
                ("GET", "/v1/obj/no-such-key", b"", 404),
                ("DELETE", "/v1/obj/key-1", b"", 405),
                ("GET", "/v1/txn", b"", 405),
                ("POST", "/v1/txn", b"{}", 400),
                ("POST", "/v1/txn", b"not json", 400),
                ("GET", "/nope", b"", 404),
            ]
            for method, path, body, expected in cases:
                status, _, conn = await _http(host, port, method, path, body)
                conn[1].close()
                assert status == expected, (method, path, status)
            await gw.drain()

        asyncio.run(scenario())

    def test_content_type_per_route(self):
        """``/metrics`` answers the Prometheus text format; ``/v1/*``
        answers JSON."""

        async def content_type(host, port, path):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n"
                f"Connection: close\r\n\r\n".encode()
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            head = reply.partition(b"\r\n\r\n")[0].decode("latin-1")
            for line in head.split("\r\n"):
                name, _, value = line.partition(":")
                if name.lower() == "content-type":
                    return value.strip()
            return None

        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            types = {
                path: await content_type(host, port, path)
                for path in ("/metrics", "/v1/obj/key-1")
            }
            await gw.drain()
            return types

        types = asyncio.run(scenario())
        assert types["/metrics"] == "text/plain; version=0.0.4; charset=utf-8"
        assert types["/v1/obj/key-1"] == "application/json"

    @pytest.mark.parametrize("length", ["abc", "-1", "5, 5", "+5", "5_0"])
    def test_bad_content_length_answers_400_and_closes(self, length):
        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"PUT /v1/obj/key-1 HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\nhello".encode()
            )
            await writer.drain()
            # The server closes after answering (a parser that took the
            # length would instead wait for a body or keep the line open).
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in head
            assert "Content-Length" in json.loads(body)["error"]
            # The gateway survived: a fresh connection is served.
            status, text, conn = await _http(host, port, "GET", "/metrics")
            conn[1].close()
            assert status == 200
            samples = parse_samples(text)
            assert samples['repro_http_errors_total{reason="bad_content_length"}'] == 1
            await gw.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "length", ["9" * 4301, str(MAX_BODY_BYTES + 1)], ids=["4301-digits", "limit+1"]
    )
    def test_oversized_content_length_answers_413_and_closes(self, length):
        """A body over the limit is refused before it is read: 413 with
        ``Connection: close``.  A length too long for ``int()`` (the
        interpreter's 4 300-digit cap) takes the same path."""

        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"PUT /v1/obj/key-1 HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\nhello".encode()
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413 ")
            assert b"Connection: close" in head
            assert "error" in json.loads(body)
            status, text, conn = await _http(host, port, "GET", "/metrics")
            conn[1].close()
            assert status == 200
            samples = parse_samples(text)
            assert samples['repro_http_errors_total{reason="body_too_large"}'] == 1
            await gw.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "request_bytes, status, reason",
        [
            (b"GARBAGE\r\nHost: t\r\n\r\n", 400, "bad_request_line"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"x" * (20 * 1024)
                + b"\r\n\r\n",
                431,
                "header_too_large",
            ),
            (
                b"POST /v1/txn HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 3\r\n\r\n[1]",
                400,
                "bad_txn_body",
            ),
        ],
        ids=["request-line", "header-block", "txn-list"],
    )
    def test_malformed_request_answers_typed_4xx_and_closes(
        self, request_bytes, status, reason
    ):
        """A request line that is not three words, a header block over
        ``MAX_HEADER_BYTES`` and a txn body that is valid JSON but not
        an object are each answered, not dropped: a typed 4xx with
        ``Connection: close``, counted by reason."""

        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request_bytes)
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert b"Connection: close" in head
            assert "error" in json.loads(body)
            got, text, conn = await _http(host, port, "GET", "/metrics")
            conn[1].close()
            assert got == 200
            samples = parse_samples(text)
            assert samples[f'repro_http_errors_total{{reason="{reason}"}}'] == 1
            await gw.drain()

        asyncio.run(scenario())

    def test_rate_limit_answers_429(self):
        async def scenario():
            gw = await _booted(
                _gateway_settings(rate_limit_qps=0.5, rate_limit_burst=1.0)
            )
            host, port = gw.settings.host, gw.port
            first, _, conn = await _http(host, port, "GET", "/v1/obj/key-0")
            second, _, conn = await _http(
                host, port, "GET", "/v1/obj/key-0", keep=conn
            )
            conn[1].close()
            assert first == 200
            assert second == 429
            status, text, conn = await _http(host, port, "GET", "/metrics")
            conn[1].close()
            assert status == 200
            assert parse_samples(text)["repro_rate_limited_total"] >= 1
            await gw.drain()

        asyncio.run(scenario())

    def test_metrics_scrape_exposes_cluster_counters(self):
        async def scenario():
            gw = await _booted(_gateway_settings())
            host, port = gw.settings.host, gw.port
            await _http(host, port, "GET", "/v1/obj/key-0")
            status, text, conn = await _http(host, port, "GET", "/metrics")
            conn[1].close()
            assert status == 200
            samples = parse_samples(text)
            assert samples['repro_requests_total{code="ok",op="get"}'] >= 1
            assert 'repro_shard_reads_routed{shard="0"}' in samples
            assert "repro_uptime_seconds" in samples
            await gw.drain()

        asyncio.run(scenario())

    def test_drain_rejects_new_work_and_flushes_artifact(self, tmp_path):
        art = tmp_path / "final.prom"

        async def scenario():
            gw = await _booted(_gateway_settings(metrics_artifact=str(art)))
            host, port = gw.settings.host, gw.port
            await _http(host, port, "GET", "/v1/obj/key-0")
            gw._draining = True
            status, payload = await gw._dispatch("GET", "/v1/obj/key-0", b"")
            assert status == 503
            ready, payload = await gw._dispatch("GET", "/readyz", b"")
            assert ready == 503 and payload["status"] == "draining"
            await gw.drain()

        asyncio.run(scenario())
        text = art.read_text()
        assert 'repro_requests_total{code="ok",op="get"} 1' in text
        # The artifact is the deterministic (non-volatile) rendering.
        assert "repro_uptime_seconds" not in text


class TestTokenBucket:
    def test_disabled_always_allows(self):
        clock = lambda: 0.0
        bucket = TokenBucket(0.0, 1.0, clock)
        assert all(bucket.allow() for _ in range(100))

    def test_burst_then_refill(self):
        now = {"t": 0.0}
        bucket = TokenBucket(10.0, 2.0, lambda: now["t"])
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()
        now["t"] += 0.1  # one token refilled
        assert bucket.allow()
        assert not bucket.allow()
