"""Where one step of the paper's request path runs: on the loop.

An analysis step — an ``open`` that misses, the re-simulation's
``ready``, a ``fetch_info``, the fetch of the file over the data port
and the ``release``, on a context whose storage area is bounded — hands
nothing to the node's worker pool: the release evicts on the loop, the
``fetch_info`` is one ``stat``, and the data port prepares the fetch of
a file no larger than one chunk frame (hash included) on the loop.  What
still goes to a worker: a ``fetch_info`` that lists the storage area,
and the hash of an uncached file larger than one chunk frame.  A
``fetch_info`` forwarded from another node follows the same rule on the
owner.
"""

import os

import pytest

from repro.cluster import ClusterNode
from repro.core.context import ContextConfig, SimulationContext
from repro.core.perfmodel import PerformanceModel
from repro.data import DataServer
from repro.data.server import _CHUNK
from repro.dv.protocol import unpack_run
from repro.dv.server import DVServer
from repro.simulators import SyntheticDriver
from tests.dv.test_server_selector import connect
from tests.integration.conftest import free_port, wait_until
from tests.integration.test_cluster_stack import build_context
from tests.integration.test_forwarding_regressions import VNODES, owned_by
from tests.integration.test_loop_never_waits import Client

STEPS, INTERVAL, RESIDENT = 64, 8, 8


@pytest.fixture
def scan(tmp_path):
    """A started daemon with a data port on its loop, serving ``scan``:
    32 KiB steps, a storage area of 8 steps holding steps 1..8, and a
    file larger than one chunk frame; and the list of what the loop
    submits to its workers."""
    config = ContextConfig(name="scan", delta_d=1, delta_r=INTERVAL,
                           num_timesteps=STEPS)
    driver = SyntheticDriver(config.geometry, prefix="scan", cells=4096)
    out, rst = str(tmp_path / "out"), str(tmp_path / "rst")
    os.makedirs(out)
    os.makedirs(rst)
    driver.execute(
        driver.make_job("scan", 0, STEPS // INTERVAL, write_restarts=True), out, rst
    )
    size = os.path.getsize(os.path.join(out, driver.filename(1)))
    assert 16 * 1024 < size <= _CHUNK
    for key in range(RESIDENT + 1, STEPS + 1):
        os.unlink(os.path.join(out, driver.filename(key)))
    with open(os.path.join(out, "big.sdf"), "wb") as fh:
        fh.write(os.urandom(_CHUNK + 4096))
    context = SimulationContext(
        config=config.with_overrides(
            replacement_policy="lru", max_storage_bytes=RESIDENT * size,
            output_step_bytes=size,
        ),
        driver=driver, perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    server = DVServer()
    server.add_context(context, out, rst)
    data = DataServer(server.loop)
    data.add_context("scan", out)
    server.set_data_endpoint(data.host, data.port)
    submitted = []
    submit = server.loop.submit
    server.loop.submit = lambda fn, *args: (submitted.append(fn), submit(fn, *args))
    server.start()
    data.start()
    yield server, data, context, submitted
    data.stop()
    server.stop()


def test_a_resim_step_puts_nothing_on_the_workers(scan, tmp_path):
    server, data, context, submitted = scan
    shard = server.coordinator.shard("scan")
    with connect(server, "scan") as conn:
        conn.attach("scan")
        del submitted[:]
        fname = context.filename_of(20)
        assert not conn.open("scan", fname).available
        assert conn.ready_table.wait("scan", fname, 30.0)
        result = conn.fetch_file("scan", fname, str(tmp_path / "got.sdf"))
        assert result.size == os.path.getsize(server.storage_path("scan", fname))
        conn.release("scan", fname)
        assert submitted == []
    assert shard.area.evictions  # bounded: the step's landing evicted
    assert shard.open_files.get(conn.client_id, []) == []


def test_a_listing_and_a_long_hash_still_go_to_a_worker(scan, tmp_path):
    server, data, context, submitted = scan
    with connect(server, "scan") as conn:
        conn.attach("scan")
        del submitted[:]
        assert "big.sdf" not in conn.fetch_info("scan")["files"]
        assert submitted == [server.drain]
        del submitted[:]
        dest = str(tmp_path / "big.sdf")
        for _ in range(2):  # uncached, then cached
            assert conn.fetch_file("scan", "big.sdf", dest).size == _CHUNK + 4096
        assert submitted == [data._run_prepare]


def test_a_forwarded_fetch_info_naming_a_file_runs_on_the_owners_loop(tmp_path):
    """Asked of the node that does not own the context, ``fetch_info``
    crosses the hop as a ``fwd`` run of one op.  The owner runs that run
    where the op runs when a client sends it directly: naming a file (one
    ``stat``) on its loop, listing the storage area on a worker."""
    sides = ("ingress", "owner")
    name = owned_by("owner", sides, "scan")
    context, out, rst = build_context(tmp_path, name, keep_outputs=True)
    ports = {side: free_port() for side in sides}
    nodes = {
        side: ClusterNode(
            side, port=ports[side], vnodes=VNODES, heartbeat_interval=60.0,
            suspect_after=1000,
            peers=[f"{other}@127.0.0.1:{ports[other]}" for other in sides
                   if other != side],
        )
        for side in sides
    }
    ingress, owner = nodes["ingress"], nodes["owner"]
    ran = []
    on_fwd = owner.server._handlers["fwd"]

    def spy(conn, message):
        ops = [inner["op"] for inner in unpack_run(message)[2]]
        ran.append((ops, owner.server.loop.on_io_thread()))
        return on_fwd(conn, message)

    owner.server._handlers["fwd"] = spy
    try:
        for node in nodes.values():
            node.add_context(context, out, rst)
            node.start()
        wait_until(lambda: "owner" in ingress.router._links, 10.0, "never linked")
        client = Client(ingress.address, "far")
        fname = context.filename_of(3)
        client.send({"op": "attach", "req": 1, "context": name})
        assert client.replies(1)[0]["error"] == 0
        del ran[:]
        client.send({"op": "fetch_info", "req": 2, "context": name, "file": fname})
        (reply,) = client.replies(1)
        assert reply["exists"] is True
        assert reply["size"] == os.path.getsize(os.path.join(out, fname))
        client.send({"op": "fetch_info", "req": 3, "context": name})
        assert fname in client.replies(1)[0]["files"]
        assert ran == [(["fetch_info"], True), (["fetch_info"], False)]
        client.close()
    finally:
        for node in nodes.values():
            node.stop(drain_timeout=0)
