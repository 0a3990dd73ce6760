"""Malformed HTTP over a raw socket: a typed 400, never a traceback."""

import os
import signal
import socket

import pytest

from .test_shutdown import launch_daemon, wait_for_port


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw request bytes and read the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.slow  # ~2s: subprocess daemon start and drain
def test_negative_content_length_is_400_without_traceback(tmp_path):
    proc = launch_daemon(tmp_path / "store")
    try:
        port = wait_for_port(proc)
        reply = raw_exchange(
            port,
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )
        os.killpg(proc.pid, signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=10)
    status_line = reply.split(b"\r\n", 1)[0]
    assert status_line == b"HTTP/1.1 400 Bad Request", reply
    assert b"negative content-length" in reply
    assert "Traceback" not in stderr, stderr
    assert proc.returncode == 0
