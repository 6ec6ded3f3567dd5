"""Daemon front end: JSON-lines socket server + thin sync client.

The server runs on a background thread with its own event loop (as the
``repro serve`` process would); the client talks to it over a real
Unix socket from the test thread.
"""

import threading

import asyncio

import pytest

from repro.serve import (
    EvolutionService,
    ServeClient,
    ServeError,
    SocketServer,
)


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on a tmp Unix socket; yields (client, data_dir)."""
    socket_path = tmp_path / "repro.sock"
    data_dir = tmp_path / "data"
    started = threading.Event()

    def run() -> None:
        async def serve() -> None:
            service = EvolutionService(max_concurrent=2, data_dir=data_dir)
            server = SocketServer(service, socket_path)
            await server.start()
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(serve())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "daemon failed to start"
    client = ServeClient(socket_path)
    yield client, data_dir
    try:
        client.shutdown()
    except (ServeError, OSError):
        pass  # repro: noqa[RES001] -- test already shut the daemon down
    thread.join(timeout=30)
    assert not thread.is_alive(), "daemon did not shut down cleanly"


SMALL = {"env": "cartpole", "population_size": 8, "generations": 3,
         "backend": "cpu-compiled"}


class TestProtocol:
    def test_ping(self, daemon):
        client, _ = daemon
        assert client.ping()

    def test_submit_wait_status(self, daemon):
        client, _ = daemon
        job = client.submit({**SMALL, "seed": 3}, tenant="alice")
        final = client.wait(job)
        assert final["state"] == "completed"
        assert final["tenant"] == "alice"
        assert client.status(job)["state"] == "completed"
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [job]

    def test_stream_ends_with_done(self, daemon):
        client, _ = daemon
        job = client.submit({**SMALL, "seed": 1})
        events = list(client.stream(job))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "generation" in kinds

    def test_cancel_round_trip(self, daemon):
        client, _ = daemon
        # saturate both slots, then cancel a queued job
        for i in range(2):
            client.submit({**SMALL, "generations": 5, "seed": i})
        victim = client.submit({**SMALL, "seed": 9})
        status = client.cancel(victim)
        assert status["state"] in ("cancelled", "cancelling")
        assert client.wait(victim)["state"] == "cancelled"

    def test_per_job_trace_artifact_validates(self, daemon):
        from repro.telemetry import validate_trace_jsonl

        client, data_dir = daemon
        job = client.submit({**SMALL, "seed": 2, "trace": True})
        final = client.wait(job)
        assert final["trace_path"] is not None
        problems = validate_trace_jsonl(final["trace_path"])
        assert problems == []

    def test_errors_come_back_as_serve_error(self, daemon):
        client, _ = daemon
        with pytest.raises(ServeError, match="unknown job"):
            client.status("job-99999")
        with pytest.raises(ServeError, match="unknown backend"):
            client.submit({**SMALL, "backend": "tpu"})

    def test_stats(self, daemon):
        client, _ = daemon
        job = client.submit({**SMALL, "seed": 0})
        client.wait(job)
        stats = client.stats()
        assert stats["jobs"] == {"completed": 1}
        assert stats["pool"]["max_leases"] == 4
