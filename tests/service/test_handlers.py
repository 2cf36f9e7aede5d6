"""Service endpoint behavior: routing, validation, idempotency, metrics.

Exercises :class:`PlanningService` both directly (endpoint logic) and
through a live :class:`ServiceServer` + :class:`ServiceClient` pair
(HTTP routing and status codes).  Everything runs on a private
in-memory service with its own engine, so tests are hermetic.
"""

import http.client
import json
import urllib.parse
import urllib.request

import pytest

from repro.service import (
    PlanningService,
    ServiceClient,
    ServiceError,
    ServiceHTTPError,
    ServiceServer,
)
from repro.service import app as service_app
from repro.service.app import MAX_BODY_BYTES
from repro.service.jobs import job_id_for, sweep_request
from repro.sweep import SweepEngine

FIXED = {"arch": "BERT-Large", "hardware": "P100", "schedule": "chimera"}


def _sweep_body(grid, **over):
    body = {"kind": "perf_report", "fixed": dict(FIXED), "grid": grid}
    body.update(over)
    return body


@pytest.fixture()
def svc():
    return PlanningService(engine=SweepEngine())


@pytest.fixture(scope="module")
def live():
    with ServiceServer(PlanningService(engine=SweepEngine())) as server:
        yield ServiceClient(server.url)


class TestPlanEndpoint:
    def test_plan_returns_points_and_pinned_best(self, svc):
        out = svc.plan({"arch": "BERT-Large", "hardware": "P100",
                        "depths": [4], "b_micros": [8, 16]})
        assert len(out["points"]) == out["cost_units"] > 0
        assert out["best"]["fits"] is True

    def test_missing_required_fields_are_400(self, svc):
        for body in ({}, {"arch": "BERT-Large"}, {"hardware": "P100"}):
            with pytest.raises(ServiceError) as exc:
                svc.plan(body)
            assert exc.value.status == 400

    def test_unknown_fields_and_values_are_400(self, svc):
        for body in (
            {"arch": "BERT-Large", "hardware": "P100", "bogus": 1},
            {"arch": "Nope", "hardware": "P100"},
            {"arch": "BERT-Large", "hardware": "P100", "depths": []},
            {"arch": "BERT-Large", "hardware": "P100", "depths": 4},
            {"arch": "BERT-Large", "hardware": "P100",
             "schedules": ["nope"]},
        ):
            with pytest.raises(ServiceError) as exc:
                svc.plan(body)
            assert exc.value.status == 400

    def test_rejected_plan_refunds_its_charge(self, svc):
        with pytest.raises(ServiceError):
            svc.plan({"arch": "BERT-Large", "hardware": "P100",
                      "schedules": ["nope"]})
        assert svc.metrics.charged_units == 0


class TestSweepEndpoint:
    def test_inline_sweep_executes_each_unit_once(self, svc):
        out = svc.sweep(_sweep_body({"depth": [4, 8], "b_micro": [8]}))
        assert out["mode"] == "inline"
        assert out["executed"] == 2 and out["cached"] == 0
        assert all(u["status"] == "done" for u in out["units"])

    def test_repeat_sweep_is_fully_cached(self, svc):
        body = _sweep_body({"depth": [4], "b_micro": [8, 16]})
        first = svc.sweep(body)
        again = svc.sweep(body)
        assert first["executed"] == 2
        assert again["executed"] == 0 and again["cached"] == 2
        assert again["cost_units"] == 0
        assert again["units"] == first["units"]

    def test_axis_order_does_not_change_unit_identity(self, svc):
        a = svc.sweep(_sweep_body({"depth": [4, 8], "b_micro": [8, 16]}))
        b = svc.sweep(_sweep_body({"b_micro": [8, 16], "depth": [4, 8]}))
        assert {u["key"] for u in a["units"]} == {u["key"] for u in b["units"]}
        assert b["executed"] == 0  # permuted axes are the same four points

    def test_axis_order_does_not_change_job_identity(self):
        fwd = sweep_request(_sweep_body({"depth": [4], "b_micro": [8]}))
        rev = sweep_request({"kind": "perf_report", "fixed": dict(FIXED),
                             "grid": {"b_micro": [8], "depth": [4]}})
        assert job_id_for(fwd) == job_id_for(rev)
        # ...but different *content* is a different job.
        other = sweep_request(_sweep_body({"depth": [8], "b_micro": [8]}))
        assert job_id_for(fwd) != job_id_for(other)

    def test_malformed_sweeps_are_400(self, svc):
        for body in (
            _sweep_body({"depth": []}),                 # empty axis
            _sweep_body({"depth": 4}),                  # not a list
            _sweep_body({}, bogus=1),                   # unknown field
            _sweep_body({}, kind="no_such_kind"),       # unknown unit kind
            {"kind": "perf_report", "fixed": [1]},      # fixed not an object
        ):
            with pytest.raises(ServiceError) as exc:
                svc.sweep(body)
            assert exc.value.status == 400

    def test_unit_execution_errors_are_400_not_500(self, svc):
        # A structurally valid grid whose params the unit kind rejects.
        with pytest.raises(ServiceError) as exc:
            svc.sweep({"kind": "perf_report",
                       "fixed": {"arch": "BERT-Large", "hardware": "P100",
                                 "schedule": "chimera"},
                       "grid": {"depth": [4]}})  # b_micro missing
        assert exc.value.status == 400
        assert "rejected" in exc.value.message

    def test_oversized_grids_are_refused_up_front(self, svc):
        with pytest.raises(ServiceError) as exc:
            svc.sweep(_sweep_body({"depth": list(range(70)),
                                   "b_micro": list(range(70))}))
        assert exc.value.status == 400
        assert "4096" in exc.value.message

    def test_forced_job_mode_round_trips(self, svc):
        out = svc.sweep(_sweep_body({"depth": [4], "b_micro": [32]},
                                    inline=False))
        assert out["mode"] == "job"
        done = svc.jobs.wait(out["job"])
        assert done["status"] == "done"
        status = svc.job_status(out["job"])
        assert status["done_units"] == status["units"] == 1
        rec = svc.result(status["unit_keys"][0])
        assert rec["status"] == "done" and rec["kind"] == "perf_report"

    def test_resubmitting_a_finished_job_answers_instantly(self, svc):
        body = _sweep_body({"depth": [4], "b_micro": [64]}, inline=False)
        first = svc.sweep(body)
        svc.jobs.wait(first["job"])
        again = svc.sweep(body)
        assert again["job"] == first["job"]
        assert again["status"] == "done"


class TestBudget:
    def test_budget_gates_work_with_429(self):
        svc = PlanningService(engine=SweepEngine(), budget_units=2)
        body = _sweep_body({"depth": [4], "b_micro": [8, 16]})
        svc.sweep(body)  # exactly the budget
        with pytest.raises(ServiceError) as exc:
            svc.sweep(_sweep_body({"depth": [8], "b_micro": [8]}))
        assert exc.value.status == 429
        # Cache hits are free: the exhausted budget still serves repeats.
        again = svc.sweep(body)
        assert again["cached"] == 2 and again["cost_units"] == 0

    def test_budget_appears_in_metrics(self):
        svc = PlanningService(engine=SweepEngine(), budget_units=10)
        svc.sweep(_sweep_body({"depth": [4], "b_micro": [8]}))
        snap = svc.metrics_snapshot()
        assert snap["budget"] == {"limit_units": 10, "charged_units": 1,
                                  "remaining_units": 9}


class TestHTTPRouting:
    def test_index_lists_the_endpoints(self, live):
        idx = live.get("/")
        assert idx["service"] == "repro-capacity-planner"
        assert "POST /plan" in idx["endpoints"]

    def test_unknown_path_is_404(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.get("/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.get("/plan")
        assert exc.value.status == 405
        with pytest.raises(ServiceHTTPError) as exc:
            live.post("/metrics", {})
        assert exc.value.status == 405

    def test_unknown_result_and_job_are_404(self, live):
        for path in ("/results/ffffffffffffffff", "/jobs/ffffffffffffffff"):
            with pytest.raises(ServiceHTTPError) as exc:
                live.get(path)
            assert exc.value.status == 404

    def test_invalid_json_body_is_400(self, live):
        req = urllib.request.Request(
            live.url + "/plan", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert "invalid JSON" in json.loads(exc.value.read())["error"]

    def test_service_errors_carry_json_bodies(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.plan("Nope", "P100")
        assert exc.value.status == 400
        assert "unknown architecture" in exc.value.body["error"]


def _connect(url):
    parts = urllib.parse.urlsplit(url)
    # The timeout turns a handler stuck reading the body into a failure.
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)


def _raw_post(conn, path, content_length, body=b"", token=None):
    """POST with a hand-written ``Content-Length`` header; returns the
    response status, JSON payload, and ``Connection`` header."""
    conn.putrequest("POST", path)
    conn.putheader("Content-Type", "application/json")
    conn.putheader("Content-Length", content_length)
    if token is not None:
        conn.putheader("Authorization", f"Bearer {token}")
    conn.endheaders(body)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read()), resp.getheader("Connection")


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "1.5", "0x10", "-5", "-1"])
    def test_malformed_or_negative_length_is_400(self, live, value):
        conn = _connect(live.url)
        try:
            status, payload, connection = _raw_post(conn, "/plan", value)
        finally:
            conn.close()
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert connection == "close"

    @pytest.mark.parametrize("value", [
        str(MAX_BODY_BYTES + 1), pytest.param("9" * 5000, id="5000-digits")])
    def test_length_over_the_cap_is_413_unread(self, live, value):
        conn = _connect(live.url)
        try:
            status, payload, connection = _raw_post(conn, "/sweep", value)
        finally:
            conn.close()
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert connection == "close"

    def test_length_at_the_cap_is_read(self, live):
        body = b" " * (MAX_BODY_BYTES - 2) + b"{}"
        conn = _connect(live.url)
        try:
            status, payload, _ = _raw_post(conn, "/plan", str(len(body)),
                                           body)
        finally:
            conn.close()
        assert status == 400
        assert "needs 'arch'" in payload["error"]

    def test_unauthorized_huge_length_is_401_without_draining(self):
        svc = PlanningService(engine=SweepEngine(), token="s3cret")
        with ServiceServer(svc) as server:
            for value in ("999999999999", "-5", "abc"):
                conn = _connect(server.url)
                try:
                    status, _, connection = _raw_post(conn, "/sweep", value)
                finally:
                    conn.close()
                assert status == 401
                assert connection == "close"
        assert svc.metrics.auth_rejects == 3

    def test_unauthorized_bounded_body_keeps_the_connection(self):
        svc = PlanningService(engine=SweepEngine(), token="s3cret")
        body = json.dumps({"arch": "BERT-Large"}).encode()
        with ServiceServer(svc) as server:
            conn = _connect(server.url)
            try:
                status, _, connection = _raw_post(conn, "/plan",
                                                  str(len(body)), body)
                assert status == 401 and connection is None
                # The drained body left the keep-alive stream in sync.
                status, payload, _ = _raw_post(conn, "/plan", str(len(body)),
                                               body, token="s3cret")
            finally:
                conn.close()
        assert status == 400
        assert "needs 'hardware'" in payload["error"]


    def test_body_shorter_than_length_is_408(self, monkeypatch):
        """A body that stops short of its Content-Length times out into a
        408 that closes the connection; other connections keep being
        served meanwhile."""
        monkeypatch.setattr(service_app, "READ_TIMEOUT_S", 0.5)
        with ServiceServer(PlanningService(engine=SweepEngine())) as server:
            stalled = _connect(server.url)
            try:
                stalled.putrequest("POST", "/plan")
                stalled.putheader("Content-Type", "application/json")
                stalled.putheader("Content-Length", "10")
                stalled.endheaders(b'{"a')  # 3 of the 10 declared bytes
                other = _connect(server.url)
                try:
                    other.request("GET", "/")
                    assert other.getresponse().status == 200
                finally:
                    other.close()
                resp = stalled.getresponse()
                payload = json.loads(resp.read())
            finally:
                stalled.close()
        assert resp.status == 408
        assert payload["status"] == 408
        assert resp.getheader("Connection") == "close"


class TestMetrics:
    def test_counters_reflect_traffic(self, live):
        before = live.metrics()["requests"].get("sweep", {}).get("count", 0)
        live.sweep({"depth": [4], "b_micro": [8]}, fixed=dict(FIXED))
        live.sweep({"depth": [4], "b_micro": [8]}, fixed=dict(FIXED))
        snap = live.metrics()
        sweep = snap["requests"]["sweep"]
        assert sweep["count"] == before + 2
        assert sweep["p50_ms"] >= 0.0 and sweep["p99_ms"] >= sweep["p50_ms"]
        assert snap["store"]["hits"] >= 1  # the repeat request
        assert 0.0 <= snap["store"]["hit_rate"] <= 1.0
        assert "runs" in snap["engine"]
        assert snap["engine"]["stage_costs_misses"] >= 1
        assert snap["charged_units"] >= 1

    def test_errors_are_counted_per_endpoint(self, live):
        before = live.metrics()["requests"].get("plan", {}).get("errors", 0)
        with pytest.raises(ServiceHTTPError):
            live.plan("Nope", "P100")
        assert live.metrics()["requests"]["plan"]["errors"] == before + 1
