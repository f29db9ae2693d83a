"""Unit tests for SimFSSession plumbing against an in-process server."""

import os
import threading
import time

import pytest

from repro.client import LocalConnection, SimFSSession, TcpConnection
from repro.client.api import simfs_release, simfs_test, simfs_testsome, simfs_wait
from repro.core.errors import ErrorCode, RestartFailedError
from repro.core.status import FileState
from tests.integration.conftest import build_server


@pytest.fixture
def stack(tmp_path):
    server, context, reference = build_server(tmp_path, name="api")
    yield server, context
    server.stop()
    server.launcher.wait_all()


class TestSessionLifecycle:
    def test_double_finalize_is_safe(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            session = SimFSSession(conn, context.name)
            session.finalize()
            session.finalize()  # idempotent

    def test_context_manager_finalizes(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name):
                pass
            state = server.coordinator.get_state(context.name)
            assert not state.agents

    def test_acquire_reports_states(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                status = session.acquire([context.filename_of(3)], timeout=30.0)
                assert status.file_states[context.filename_of(3)] is FileState.ON_DISK

    def test_estimated_wait_reported_before_ready(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                status, request = session.acquire_nb([context.filename_of(9)])
                # Either still pending (estimate present) or already done.
                if not request.complete:
                    assert status.estimated_wait >= 0.0
                session.wait(request, timeout=30.0)


class TestCStyleShims:
    def test_wait_and_test_and_release(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            session = SimFSSession(conn, context.name)
            _status, request = session.acquire_nb([context.filename_of(4)])
            code, status = simfs_wait(session, request)
            assert code == int(ErrorCode.SUCCESS)
            code, flag, _ = simfs_test(session, request)
            assert code == int(ErrorCode.SUCCESS) and flag is True
            code, indices, _ = simfs_testsome(session, request)
            assert code == int(ErrorCode.SUCCESS)
            assert simfs_release(session, context.filename_of(4)) == int(
                ErrorCode.SUCCESS
            )
            session.finalize()

    def test_release_unheld_file_errors(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            session = SimFSSession(conn, context.name)
            code = simfs_release(session, context.filename_of(1))
            assert code == int(ErrorCode.ERR_INVALID)
            session.finalize()


class TestReadyTableRace:
    def test_notification_before_reply_is_not_lost(self, stack):
        """A ready notification recorded before acquire_nb returns must
        still mark the request (the TCP race the ready-table absorbs)."""
        server, context = stack
        with LocalConnection(server) as conn:
            session = SimFSSession(conn, context.name)
            # Pre-record: simulate the race by marking ready up front.
            fname = context.filename_of(5)
            # Make the file actually exist so open() reports available.
            session.acquire([fname], timeout=30.0)
            session.release(fname)
            _status, request = session.acquire_nb([fname])
            assert request.complete
            session.finalize()


class TestOutcomesOfEarlierOpens:
    """A wait counts only an outcome recorded after its own open."""

    @pytest.mark.parametrize("path", ["wait_ready", "session_acquire"])
    @pytest.mark.parametrize("flavour", ["local", "tcp"])
    def test_a_failed_resimulation_does_not_fail_the_next_wait(
        self, stack, monkeypatch, flavour, path
    ):
        """The first re-simulation of a file fails; the second succeeds.
        The failure leaves the client nothing to release, so it stays in
        the ready table — and must not answer the second wait.  Each run
        outlasts the open's reply, as a real one does."""
        server, context = stack
        driver = context.driver
        real = driver.execute
        runs = []

        def fails_first(*args, **kwargs):
            runs.append(1)
            time.sleep(0.3)
            if len(runs) == 1:
                raise RuntimeError("the first re-simulation fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(driver, "execute", fails_first)
        fname = context.filename_of(5)
        if flavour == "tcp":
            server.start()
            conn = TcpConnection(*server.address, {}, {}, client_id="flaky")
        else:
            conn = LocalConnection(server, client_id="flaky")
        with conn:
            if path == "wait_ready":
                conn.attach(context.name)
                with pytest.raises(RestartFailedError):
                    conn.wait_ready(context.name, fname, timeout=30.0)
                conn.wait_ready(context.name, fname, timeout=30.0)
            else:
                session = SimFSSession(conn, context.name)
                failed = session.acquire([fname], timeout=30.0)
                assert failed.error == int(ErrorCode.ERR_RESTART_FAILED)
                served = session.acquire([fname], timeout=30.0)
                assert served.ok, served
                assert served.file_states[fname] is FileState.ON_DISK
            assert len(runs) == 2
            assert os.path.exists(server.storage_path(context.name, fname))

    def test_an_outcome_another_thread_waits_on_survives_a_release(self, stack):
        """Thread A waits on a file; thread B, holding the same file,
        releases it between A's open and A's wait: A still gets the
        ready that came after its open."""
        server, context = stack
        fname = context.filename_of(7)
        with LocalConnection(server, client_id="two-threads") as conn:
            conn.attach(context.name)
            since = conn.ready_table.stamp
            assert not conn.open(context.name, fname).available
            assert conn.ready_table.wait(context.name, fname, 30.0, since)
            # B held the file and lets it go; A's outcome is kept.
            conn.release(context.name, fname)
            got = []
            waiter = threading.Thread(target=lambda: got.append(
                conn.ready_table.wait(context.name, fname, 5.0, since)))
            waiter.start()
            waiter.join(timeout=10.0)
            assert got == [True]
            # A query that names no open of its own starts after the release.
            assert not conn.ready_table.is_ready(context.name, fname)

    def test_finalize_removes_the_session_watcher(self, stack):
        server, context = stack
        with LocalConnection(server) as conn:
            for _ in range(100):
                SimFSSession(conn, context.name).finalize()
            assert conn.ready_table._watchers == []
            session = SimFSSession(conn, context.name)
            session.finalize()
            session.reconnect()  # attached again: notified again
            assert conn.ready_table._watchers == [session._on_notification]
            session.finalize()
            assert conn.ready_table._watchers == []
