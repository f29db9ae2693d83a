"""Live equals virtual: one analysis gives the same counts on both clocks.

The DES runs the daemon's coordinator and launcher on virtual time.  One
sequential analysis with prefetch off, on a geometry whose storage area
holds every output, runs once through :class:`~repro.des.VirtualSimFS`
and once through a live :class:`~repro.dv.server.DVServer` over TCP with
DVLib, paced in milliseconds.  Both report the same re-simulated outputs
and restarts, and no kill.
"""

import time

from repro.client import SimFSSession, TcpConnection
from repro.core.context import SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.des import VirtualSimFS
from tests.integration.conftest import build_server

ALPHA, TAU, TAU_CLI = 0.004, 0.002, 0.001


def test_a_live_and_a_virtual_analysis_count_alike(tmp_path):
    server, context, _ = build_server(
        tmp_path, record_checksums=False, alpha_delay=ALPHA, tau_delay=TAU
    )
    keys = list(range(1, context.geometry.num_output_steps + 1))
    try:
        server.start()
        host, port = server.address
        with TcpConnection(host, port, {}, {}) as conn:
            with SimFSSession(conn, context.name) as session:
                for key in keys:
                    fname = context.filename_of(key)
                    assert session.acquire([fname], timeout=10.0).ok
                    time.sleep(TAU_CLI)
                    session.release(fname)
            live = conn.stats()["totals"]
    finally:
        server.stop()

    paced = SimulationContext(
        config=context.config, driver=context.driver,
        perf=PerformanceModel(tau_sim=TAU, alpha_sim=ALPHA),
    )
    simfs = VirtualSimFS()
    simfs.add_context(paced)
    analysis = simfs.add_analysis(paced, keys, TAU_CLI)
    simfs.run()
    assert analysis.done
    virtual = simfs.stats()["totals"]
    assert live == virtual
    assert virtual == {
        "restarts": len(keys) // 3, "simulated_outputs": len(keys),
        "killed_sims": 0,
    }
