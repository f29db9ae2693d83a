"""Acceptance tests for the bulk data plane on a live two-node cluster.

The premise: node-local storage, so only the ring owner of a context has
its output bytes.  A client attached to the *other* node must still be
able to pull files — ``fetch_info`` routes to the owner and hands back
the owner's data endpoint — with checksum verification, resumable
transfers, fair concurrent bandwidth shares, and a control plane whose
latency survives bulk load.  A non-owner's data port serves only what
it has: it refuses the rest and names the owner's data endpoint."""

import hashlib
import os
import socket
import threading
import time

import pytest

from repro.client.dvlib import TcpConnection
from repro.cluster import ClusterNode
from repro.core.context import ContextConfig, SimulationContext
from repro.core.errors import FileNotInContextError
from repro.core.perfmodel import PerformanceModel
from repro.data import DataClient
from repro.dv.protocol import CODEC_BINARY, StreamDecoder, encode_binary
from repro.simulators import SyntheticDriver
from tests.integration.conftest import free_port, wait_until

NODE_IDS = ("n1", "n2")
BULK_FILE_STEP = 99  # synthetic step number for the hand-written big file


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture
def two_nodes(tmp_path):
    """Two started nodes with *separate* output dirs; the context's
    files exist only on its ring owner (node-local storage premise)."""
    config = ContextConfig(name="alpha", delta_d=2, delta_r=8,
                           num_timesteps=32)
    driver = SyntheticDriver(config.geometry, prefix="alpha", cells=64)
    context = SimulationContext(
        config=config, driver=driver,
        perf=PerformanceModel(tau_sim=0.001, alpha_sim=0.0),
    )
    ports = {nid: free_port() for nid in NODE_IDS}
    specs = [f"{nid}@127.0.0.1:{ports[nid]}" for nid in NODE_IDS]
    nodes, outs = {}, {}
    for nid in NODE_IDS:
        out = str(tmp_path / f"{nid}-out")
        rst = str(tmp_path / f"{nid}-rst")
        os.makedirs(out)
        os.makedirs(rst)
        outs[nid] = out
        nodes[nid] = ClusterNode(
            nid, port=ports[nid],
            peers=[s for s in specs if not s.startswith(f"{nid}@")],
            vnodes=32, heartbeat_interval=0.15, suspect_after=2,
            data_link_rate=40e6,
        )
        nodes[nid].add_context(context, out, rst)
    owner = nodes[NODE_IDS[0]].owner_of("alpha")
    produced = driver.execute(
        driver.make_job("alpha", 0, 2, write_restarts=True),
        outs[owner], str(tmp_path / f"{owner}-rst"),
    )
    bulk_name = context.filename_of(BULK_FILE_STEP)
    with open(os.path.join(outs[owner], bulk_name), "wb") as fh:
        fh.write(os.urandom(4 * 1024 * 1024))
    for node in nodes.values():
        node.start()

    def settled():
        # Every node sees both peers alive AND has learnt their data
        # ports through gossip.
        return all(
            len([p for p in v["nodes"] if p["alive"]]) == 2
            and all(p.get("data") for p in v["nodes"])
            for v in (n.describe() for n in nodes.values())
        )

    wait_until(settled, 10.0, "data ports never gossiped",
               nodes=nodes.values())
    yield nodes, outs, owner, produced, bulk_name, tmp_path
    for node in nodes.values():
        try:
            node.stop(drain_timeout=0)
        except Exception:
            pass


class TestNonLocalFetch:
    def test_fetch_through_non_owner_matches_checksum(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        ingress = next(nid for nid in NODE_IDS if nid != owner)
        host, port = nodes[ingress].address
        with TcpConnection(host, port, {}, {}, client_id="puller") as conn:
            info = conn.fetch_info("alpha", produced[0])
            assert info["exists"]
            # The advertised endpoint is the OWNER's data port, even
            # though the request entered through the other node.
            assert info["data_port"] == nodes[owner].data.port
            dest = str(tmp_path / "fetched.sdf")
            result = conn.fetch_file("alpha", produced[0], dest)
        assert result.size == os.path.getsize(
            os.path.join(outs[owner], produced[0])
        )
        assert sha256(dest) == sha256(os.path.join(outs[owner], produced[0]))
        assert result.checksum == sha256(dest)

    def test_fetch_context_pulls_every_output(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        ingress = next(nid for nid in NODE_IDS if nid != owner)
        host, port = nodes[ingress].address
        dest_dir = str(tmp_path / "mirror")
        with TcpConnection(host, port, {}, {}, client_id="mirrorer") as conn:
            results = conn.fetch_context("alpha", dest_dir)
        assert set(results) == set(produced) | {bulk_name}
        for name in results:
            assert sha256(os.path.join(dest_dir, name)) == sha256(
                os.path.join(outs[owner], name)
            )

    def test_missing_file_raises_not_found(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        host, port = nodes[owner].address
        with TcpConnection(host, port, {}, {}, client_id="misser") as conn:
            with pytest.raises(FileNotInContextError):
                conn.fetch_file("alpha", "alpha_out_00000777.sdf",
                                str(tmp_path / "void.sdf"))

    def test_non_owner_data_port_refuses_and_names_the_owner(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        ingress = next(nid for nid in NODE_IDS if nid != owner)
        dest = tmp_path / "refused.sdf"
        with DataClient(nodes[ingress].data.host,
                        nodes[ingress].data.port) as client:
            with pytest.raises(FileNotInContextError) as refused:
                client.fetch("alpha", produced[1], str(dest))
        owner_data = nodes[owner].data
        assert f"{owner_data.host}:{owner_data.port}" in str(refused.value)
        assert not dest.exists() and not (tmp_path / "refused.sdf.part").exists()

    @pytest.mark.parametrize("port_of", ["owner", "non_owner"])
    @pytest.mark.parametrize("request_kind",
                             ["absolute", "dotdot", "unknown_context"])
    def test_a_name_outside_every_context_is_refused(
        self, two_nodes, port_of, request_kind
    ):
        """Whichever node's data port it reaches, a request for a file
        outside the context's directory is refused, a repeated one too
        (the first may leave directories behind), and writes nothing."""
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        secret = tmp_path / "secret.txt"
        secret.write_bytes(b"outside every context")
        node = nodes[owner] if port_of == "owner" else next(
            nodes[nid] for nid in NODE_IDS if nid != owner
        )
        context, name = "alpha", str(secret)
        if request_kind == "dotdot":
            name = "../" * 32 + str(secret).lstrip("/")
        elif request_kind == "unknown_context":
            # An uncatalogued name the ring still places on the owner, so
            # the non-owner has a peer it could have asked.
            context = next(
                c for c in (f"ghost{i}" for i in range(1000))
                if node.owner_of(c) == owner
            )
        dest = tmp_path / "stolen.txt"
        with DataClient(node.data.host, node.data.port) as client:
            for _attempt in range(2):
                with pytest.raises(FileNotInContextError):
                    client.fetch(context, name, str(dest))
        assert not dest.exists() and not (tmp_path / "stolen.txt.part").exists()

    def test_data_port_gossiped_in_membership(self, two_nodes):
        nodes, *_ = two_nodes
        for nid in NODE_IDS:
            view = nodes[nid].describe()
            by_id = {p["id"]: p for p in view["nodes"]}
            for other in NODE_IDS:
                assert by_id[other]["data"] == nodes[other].data.port


class TestResume:
    def test_mid_transfer_kill_resumes_from_offset(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        dest = str(tmp_path / "killed.sdf")
        # Pull the first chunk(s) by hand, then kill the connection
        # mid-transfer, leaving a .part exactly as a crashed client would.
        sock = socket.create_connection(
            (nodes[owner].data.host, nodes[owner].data.port)
        )
        sock.settimeout(10.0)
        decoder = StreamDecoder(CODEC_BINARY)
        received = b""
        try:
            sock.sendall(encode_binary({
                "op": "fetch", "context": "alpha", "file": bulk_name,
                "offset": 0,
            }))
            while len(received) < 512 * 1024:
                decoder.feed(sock.recv(65536))
                for message in decoder.drain():
                    assert message["op"] != "error", message
                    if message["op"] == "chunk":
                        received += message["data"]
        finally:
            sock.close()  # the "kill": server aborts the transfer
        assert 0 < len(received) < 4 * 1024 * 1024
        with open(dest + ".part", "wb") as fh:
            fh.write(received)
        with DataClient(nodes[owner].data.host,
                        nodes[owner].data.port) as client:
            result = client.fetch("alpha", bulk_name, dest)
        assert result.resumed_from == len(received)
        assert result.bytes == result.size - len(received)
        assert sha256(dest) == sha256(os.path.join(outs[owner], bulk_name))
        metrics = nodes[owner].data.stats()["metrics"]
        assert metrics["transfer.resumed"]["value"] >= 1


class TestBandwidth:
    """What only a live transfer shows.  The fairness and latency
    *ratios* these two used to assert on elapsed time are checked on
    ``BandwidthScheduler`` under an injected clock
    (``tests/data/test_scheduler.py``: ``TestSharedLink``)."""

    def test_four_concurrent_pulls_all_complete_with_the_right_checksum(
        self, two_nodes
    ):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        results = {}
        barrier = threading.Barrier(4)

        def pull(i):
            with DataClient(nodes[owner].data.host,
                            nodes[owner].data.port) as client:
                barrier.wait()
                results[i] = client.fetch(
                    "alpha", bulk_name, str(tmp_path / f"pull{i}.sdf")
                )

        threads = [threading.Thread(target=pull, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert sorted(results) == [0, 1, 2, 3]
        want = sha256(os.path.join(outs[owner], bulk_name))
        for i, result in results.items():
            assert result.bytes == result.size > 0
            assert sha256(str(tmp_path / f"pull{i}.sdf")) == want

    def test_a_ping_is_answered_while_bulk_frames_are_queued(self, two_nodes):
        nodes, outs, owner, produced, bulk_name, tmp_path = two_nodes
        host, port = nodes[owner].data.host, nodes[owner].data.port
        stop = threading.Event()
        pulled = []

        def bulk_pull(i):
            try:
                with DataClient(host, port) as client:
                    while not stop.is_set():
                        pulled.append(client.fetch(
                            "alpha", bulk_name, str(tmp_path / f"bg{i}.sdf")
                        ).bytes)
            except Exception:
                pass  # teardown races are fine; only the pings matter

        pullers = [
            threading.Thread(target=bulk_pull, args=(i,), daemon=True)
            for i in range(4)
        ]
        for t in pullers:
            t.start()
        time.sleep(0.3)
        try:
            with DataClient(host, port) as client:
                loaded = [client.ping() for _ in range(50)]
        finally:
            stop.set()
        # Every ping came back (``ping`` raises on a timeout) while the
        # four pulls kept the link's bulk queue busy.
        assert len(loaded) == 50 and all(rtt >= 0 for rtt in loaded)
        for t in pullers:
            t.join(timeout=30)
        assert pulled, "no bulk transfer ran beside the pings"
