"""Wire-protocol robustness: malformed input, oversized payloads,
dropped connections, graceful shutdown.  The invariant throughout: the
server answers with a typed error (or survives silently) — it never
tracebacks a connection to death."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import ProtocolError, parse_address
from repro.serve.server import ReproServer

TABLES = ["R(a:int,b:int)"]
Q1 = "SELECT a FROM R"


@pytest.fixture
def server():
    srv = ReproServer(port=0, tables=TABLES).start()
    yield srv
    srv.shutdown()


def _raw_conn(server):
    sock = socket.create_connection(server.address, timeout=10.0)
    sock.settimeout(10.0)
    return sock


def _send_line(sock, line: bytes):
    sock.sendall(line)
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return json.loads(data) if data else None


class TestMalformedRequests:
    def test_not_json(self, server):
        with _raw_conn(server) as sock:
            response = _send_line(sock, b"this is not json\n")
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            # The connection stays usable after the error.
            response = _send_line(sock, b'{"op": "ping"}\n')
            assert response["ok"] is True

    def test_not_an_object(self, server):
        with _raw_conn(server) as sock:
            response = _send_line(sock, b"[1, 2, 3]\n")
            assert response["error"]["code"] == "bad-request"

    def test_missing_op(self, server):
        with _raw_conn(server) as sock:
            response = _send_line(sock, b'{"sql1": "SELECT 1"}\n')
            assert response["error"]["code"] == "bad-request"

    def test_unknown_op(self, server):
        with _raw_conn(server) as sock:
            response = _send_line(sock, b'{"op": "frobnicate"}\n')
            assert response["error"]["code"] == "unknown-op"

    def test_bad_sql_is_compile_error(self, server):
        with _raw_conn(server) as sock:
            request = {"op": "check", "sql1": "SELEKT chaos",
                       "sql2": Q1, "tables": TABLES}
            response = _send_line(
                sock, json.dumps(request).encode() + b"\n")
            assert response["ok"] is False
            assert response["error"]["code"] == "compile-error"

    def test_bad_tables_type(self, server):
        with _raw_conn(server) as sock:
            request = {"op": "check", "sql1": Q1, "sql2": Q1,
                       "tables": "R(a:int)"}  # must be a list
            response = _send_line(
                sock, json.dumps(request).encode() + b"\n")
            assert response["error"]["code"] == "bad-request"

    def test_request_id_is_echoed(self, server):
        with _raw_conn(server) as sock:
            response = _send_line(sock, b'{"op": "ping", "id": 42}\n')
            assert response["ok"] is True and response["id"] == 42
            response = _send_line(sock, b'{"op": "nope", "id": "x"}\n')
            assert response["ok"] is False and response["id"] == "x"


class TestOversizedPayloads:
    def test_oversized_line_gets_typed_error_then_disconnect(self):
        server = ReproServer(port=0, tables=TABLES,
                             max_request_bytes=1024).start()
        try:
            with _raw_conn(server) as sock:
                huge = b'{"op": "check", "sql1": "' + b"x" * 4096
                sock.sendall(huge + b'", "sql2": "y"}\n')
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                response = json.loads(data)
                assert response["ok"] is False
                assert response["error"]["code"] == "too-large"
                # The stream cannot be resynchronized: the server then
                # closes the connection.
                sock.settimeout(5.0)
                assert sock.recv(65536) == b""
        finally:
            server.shutdown()

    def test_normal_requests_still_fine_under_cap(self):
        server = ReproServer(port=0, tables=TABLES,
                             max_request_bytes=1024).start()
        try:
            with ServeClient(server.address) as cli:
                assert cli.ping() is True
        finally:
            server.shutdown()


class TestClientDisconnect:
    def test_disconnect_mid_request_leaves_server_healthy(self, server):
        sock = _raw_conn(server)
        # Half a request, then vanish.
        sock.sendall(b'{"op": "check", "sql1": "SELECT')
        sock.close()
        time.sleep(0.1)
        with ServeClient(server.address) as cli:
            assert cli.ping() is True
            assert cli.check(Q1, Q1, tables=TABLES).proved

    def test_abrupt_reset_mid_stream(self, server):
        sock = _raw_conn(server)
        response = _send_line(sock, b'{"op": "ping"}\n')
        assert response["ok"] is True
        # RST instead of FIN: SO_LINGER with zero timeout.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()
        time.sleep(0.1)
        with ServeClient(server.address) as cli:
            assert cli.ping() is True


class TestShutdown:
    def test_inprocess_drain(self, server):
        with ServeClient(server.address) as cli:
            assert cli.check(Q1, Q1, tables=TABLES).proved
            assert cli.shutdown() is True
        deadline = time.time() + 10.0
        while not server._shutting_down.is_set() and \
                time.time() < deadline:
            time.sleep(0.05)
        assert server._shutting_down.is_set()
        with pytest.raises(ServeClientError):
            ServeClient(server.address, connect_retries=1,
                        timeout=2.0).connect().ping()

    def test_shutdown_is_idempotent(self):
        server = ReproServer(port=0, tables=TABLES).start()
        server.shutdown()
        server.shutdown()  # second call is a no-op

    def test_shutdown_returns_after_the_ack_is_written(self):
        """A daemon process exits right after ``shutdown()`` returns, so
        the ``shutdown`` acknowledgement must be on the wire by then."""
        server = ReproServer(port=0, tables=TABLES)
        events = []
        release = threading.Event()
        write = server._safe_write

        def held_write(wfile, response):
            release.wait()  # hold the ack until the serve loop is gone
            ok = write(wfile, response)
            events.append("ack written")
            return ok

        server._safe_write = held_write

        def daemon_main():  # what ``repro serve`` runs
            server.serve_forever()
            release.set()
            server.shutdown(drain=True)
            events.append("shutdown returned")

        daemon = threading.Thread(target=daemon_main, daemon=True)
        daemon.start()
        with _raw_conn(server) as sock:
            response = _send_line(sock, b'{"op": "shutdown"}\n')
        daemon.join(timeout=30)
        assert not daemon.is_alive()
        assert response["ok"] is True
        assert response["result"] == {"shutting_down": True}
        assert events == ["ack written", "shutdown returned"]

    def test_client_shutdown_gets_the_ack_from_a_daemon_process(
            self, tmp_path, capsys):
        """``repro client shutdown`` against a real daemon: one attempt,
        the ack arrives, and the daemon exits 0."""
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env = dict(os.environ, PYTHONPATH=repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--table", "R(a:int,b:int)"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            address = line.strip().rsplit(" ", 1)[-1]
            code = main(["client", "--addr", address, "--retries", "1",
                         "shutdown"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert "daemon is draining" in captured.out
            assert proc.wait(timeout=30) == 0
            assert "repro serve stopped" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_drains_subprocess(self, tmp_path):
        """A real daemon process exits 0 on SIGTERM after serving."""
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env = dict(os.environ, PYTHONPATH=repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--table", "R(a:int,b:int)",
             "--store-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            address = parse_address(line.strip().rsplit(" ", 1)[-1])
            with ServeClient(address) as cli:
                assert cli.check(Q1, Q1, tables=TABLES).proved
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:7341") == ("10.0.0.1", 7341)

    def test_bare_port_defaults_host(self):
        assert parse_address(":7341") == ("127.0.0.1", 7341)

    def test_tuple_passthrough(self):
        assert parse_address(("h", 1)) == ("h", 1)

    def test_garbage_raises(self):
        with pytest.raises(ProtocolError):
            parse_address("no-port-here")
