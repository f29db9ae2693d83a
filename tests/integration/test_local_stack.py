"""Full-stack tests over the in-process LocalConnection."""

import numpy as np

from repro.client import (
    LocalConnection,
    SimFSSession,
    VirtualizedHooks,
    simfs_acquire,
    simfs_bitrep,
    simfs_init,
)
from repro.core.errors import ErrorCode
from repro.simio import install_hooks, sio_open
from tests.integration.conftest import build_server, wait_until


class TestBlockingAcquire:
    def test_missing_file_is_resimulated(self, synth_server):
        server, context, reference = synth_server
        fname = context.filename_of(7)
        with LocalConnection(server) as conn:
            session = SimFSSession(conn, context.name)
            status = session.acquire([fname], timeout=30.0)
            assert status.ok
            data = open(conn.storage_path(context.name, fname), "rb").read()
            assert data == reference[fname]  # bitwise identical
            session.release(fname)
            session.finalize()
        server.launcher.wait_all()

    def test_acquire_many_spanning_intervals(self, synth_server):
        server, context, reference = synth_server
        names = [context.filename_of(k) for k in (2, 7, 12)]
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                status = session.acquire(names, timeout=30.0)
                assert status.ok
                for fname in names:
                    blob = open(conn.storage_path(context.name, fname), "rb").read()
                    assert blob == reference[fname]
                    session.release(fname)
        server.launcher.wait_all()

    def test_open_file_returns_readable_handle(self, synth_server):
        server, context, _ = synth_server
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                handle = session.open_file(context.filename_of(5), timeout=30.0)
                values = handle.read("value")
                assert values.shape == (16,)
                assert np.isfinite(values).all()
                handle.close()
                session.release(context.filename_of(5))
        server.launcher.wait_all()


class TestNonBlockingAcquire:
    def test_acquire_nb_then_wait(self, synth_server):
        server, context, _ = synth_server
        names = [context.filename_of(k) for k in (3, 9)]
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                status, request = session.acquire_nb(names)
                final = session.wait(request, timeout=30.0)
                assert final.ok
                assert set(request.ready_files()) == set(names)

    def test_waitsome_delivers_incrementally(self, synth_server):
        server, context, _ = synth_server
        names = [context.filename_of(k) for k in (3, 15)]
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                _, request = session.acquire_nb(names)
                seen = []
                while len(seen) < len(names):
                    indices, _status = session.waitsome(request, timeout=30.0)
                    seen += indices
                assert sorted(seen) == [0, 1]

    def test_test_eventually_completes(self, synth_server):
        server, context, _ = synth_server
        with LocalConnection(server) as conn:
            with SimFSSession(conn, context.name) as session:
                _, request = session.acquire_nb([context.filename_of(4)])
                wait_until(lambda: session.test(request)[0], 30.0,
                           "a non-blocking acquire never completed")


class TestTransparentMode:
    def test_legacy_analysis_reads_virtualized_files(self, synth_server, monkeypatch):
        server, context, reference = synth_server
        monkeypatch.setenv("SIMFS_CONTEXT", context.name)
        with LocalConnection(server) as conn:
            conn.attach(context.name)
            hooks = VirtualizedHooks(conn, context.driver.naming)
            previous = install_hooks(hooks)
            try:
                # A legacy analysis just opens logical paths.
                means = []
                for key in (2, 5, 8):
                    with sio_open(f"/data/{context.filename_of(key)}") as fh:
                        means.append(float(fh.read("value").mean()))
                assert len(means) == 3
            finally:
                install_hooks(previous)

    def test_table1_bindings_are_virtualized(self, synth_server, monkeypatch):
        from repro.client.bindings import (
            adios_close,
            adios_open,
            adios_schedule_read,
            h5d_read,
            h5f_close,
            h5f_open,
            nc_close,
            nc_open,
            nc_vara_get,
        )

        server, context, _ = synth_server
        monkeypatch.setenv("SIMFS_CONTEXT", context.name)
        with LocalConnection(server) as conn:
            conn.attach(context.name)
            hooks = VirtualizedHooks(conn, context.driver.naming)
            previous = install_hooks(hooks)
            try:
                handle = nc_open(context.filename_of(3))
                nc_data = nc_vara_get(handle, "value")
                nc_close(handle)

                handle = h5f_open(context.filename_of(3))
                h5_data = h5d_read(handle, "value")
                h5f_close(handle)

                handle = adios_open(context.filename_of(3), "r")
                adios_data = adios_schedule_read(handle, "value")
                adios_close(handle)

                np.testing.assert_array_equal(nc_data, h5_data)
                np.testing.assert_array_equal(nc_data, adios_data)
            finally:
                install_hooks(previous)


class TestCStyleAPI:
    def test_init_acquire_bitrep(self, synth_server):
        server, context, _ = synth_server
        with LocalConnection(server) as conn:
            code, session = simfs_init(conn, context.name)
            assert code == int(ErrorCode.SUCCESS)
            fname = context.filename_of(6)
            code, status = simfs_acquire(session, [fname])
            assert code == int(ErrorCode.SUCCESS)
            assert status.ok
            code, matches = simfs_bitrep(session, fname)
            assert code == int(ErrorCode.SUCCESS)
            assert matches is True  # bitwise reproducible simulator

    def test_init_unknown_context(self, synth_server):
        server, _, _ = synth_server
        with LocalConnection(server) as conn:
            code, session = simfs_init(conn, "no-such-context")
            assert code == int(ErrorCode.ERR_CONTEXT)
            assert session is None


class TestEvictionRoundTrip:
    def test_capacity_bounded_area_evicts_and_resimulates(self, tmp_path):
        server, context, reference = build_server(
            tmp_path, capacity_steps=4, policy="lru"
        )
        try:
            with LocalConnection(server) as conn:
                with SimFSSession(conn, context.name) as session:
                    # Touch 12 steps through a 4-step cache.
                    for key in range(1, 13):
                        fname = context.filename_of(key)
                        status = session.acquire([fname], timeout=30.0)
                        assert status.ok
                        blob = open(
                            conn.storage_path(context.name, fname), "rb"
                        ).read()
                        assert blob == reference[fname]
                        session.release(fname)
                    server.launcher.wait_all()
                    state = server.coordinator.get_state(context.name)
                    assert state.area.used_bytes <= state.area.capacity_bytes
                    assert state.area.evictions  # pressure really happened
        finally:
            server.stop()
            server.launcher.wait_all()

    def test_evicted_file_removed_from_disk(self, tmp_path):
        import os

        server, context, _ = build_server(tmp_path, capacity_steps=2, policy="lru")
        try:
            with LocalConnection(server) as conn:
                with SimFSSession(conn, context.name) as session:
                    for key in (2, 8, 14):
                        fname = context.filename_of(key)
                        session.acquire([fname], timeout=30.0)
                        session.release(fname)
                    server.launcher.wait_all()
                    state = server.coordinator.get_state(context.name)
                    on_disk = {
                        f
                        for f in os.listdir(
                            server.launcher.output_dir(context.name)
                        )
                        if context.driver.naming.is_output(f)
                    }
                    resident = {context.filename_of(k) for k in state.area.keys()}
                    assert on_disk == resident
        finally:
            server.stop()
            server.launcher.wait_all()
