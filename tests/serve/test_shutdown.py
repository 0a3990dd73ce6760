"""SIGTERM mid-request: the daemon drains in-flight work, persists it,
refuses new work, and exits cleanly -- the serving counterpart of the
farm's SIGINT-flush test."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.farm import ArtifactStore
from repro.farm.jobs import job_for
from repro.serve import ServeClient, ServeHTTPError

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Slow enough (~1s of bit-sliced 0-1 sweeping over 2^26 inputs) that
#: SIGTERM lands mid-request.
SLOW_PARAMS = {"sorter": "oddeven_transposition", "n": 26, "max_wires": 26}


def launch_daemon(store_path):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", str(store_path),
            "--workers", "1", "--batch-delay", "0.01",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        # own process group so the signal never reaches the test runner
        preexec_fn=os.setsid,
    )


def wait_for_port(proc) -> int:
    line = proc.stdout.readline()
    match = re.search(r"serving on [\d.]+:(\d+)", line)
    assert match, f"no readiness line, got {line!r}"
    return int(match.group(1))


@pytest.mark.slow  # ~5s: subprocess daemon + real SIGTERM timing
def test_sigterm_drains_inflight_request_and_persists_it(tmp_path):
    store_path = tmp_path / "store"
    proc = launch_daemon(store_path)
    try:
        port = wait_for_port(proc)
        client = ServeClient(port=port, timeout=60.0)
        assert client.health() == {"status": "ok"}

        outcome = {}

        def slow_query():
            try:
                outcome["response"] = client.query("verify", SLOW_PARAMS)
            except ServeError as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=slow_query)
        worker.start()
        # let the request get admitted and dispatched, then terminate
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGTERM)

        # the in-flight request must still complete, not be dropped
        worker.join(timeout=60)
        assert not worker.is_alive(), "in-flight request never finished"
        assert "error" not in outcome, f"dropped: {outcome.get('error')}"
        response = outcome["response"]
        assert response.ok
        assert response.source == "computed"

        # a request issued during/after the drain is refused, not queued
        try:
            late = ServeClient(port=port, timeout=10.0).query(
                "verify", {"sorter": "bitonic", "n": 4}
            )
            raise AssertionError(f"late request was served: {late.to_json()}")
        except ServeHTTPError as exc:
            assert exc.status == 503
        except ServeError:
            pass  # listener already gone: connection refused

        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, f"stdout={stdout!r} stderr={stderr!r}"
        assert "drained" in stdout
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=10)

    # the drained result was persisted: a fresh store serves it directly
    job = job_for("verify", SLOW_PARAMS)
    doc = ArtifactStore(store_path).get(job.key())
    assert doc is not None and doc["status"] == "ok"
    assert doc["result"]["is_sorter"] is True
