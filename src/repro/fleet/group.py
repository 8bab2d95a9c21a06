"""A fleet of gateways over one model and one session store.

:class:`GatewayGroup` is the deployment the handoff chaos profile
exercises: N :class:`~repro.net.gateway.GCGateway` instances, each with
its own serving layer (workers, bounded queue, resume batcher), all
front-ends for the same :class:`~repro.host.CloudServer` and all
sharing one lease-fenced session store.  Any member can answer any
client's ``net.resume`` — the store, not the gateway, is the session's
home — which is what makes :meth:`kill` survivable: the dead member's
clients fail over (``FailoverDialer``), a peer steals the expired
lease, rewinds the checkpoint to the client's last acked round, and
streams the remainder without a single round being garbled twice.

Lease state machine (per session)::

    (no lease) --acquire--> HELD(owner=A, epoch=e)
    HELD(A,e)  --renew (A acquires)---------------> HELD(A,e)
    HELD(A,e)  --release (A done streaming)-------> (no lease, epoch kept)
    HELD(A,e)  --ttl expires, B acquires (STEAL)--> HELD(B,e+1)
    HELD(A,e)  --B acquires before expiry---------> denied (B sheds)

A query's one durable record is its checkpoint ``put(checkpoint,
owner=A)``, written before the first frame with the stream's whole
frame map; it fails typed (:class:`~repro.errors.LeaseError`) unless A
still holds the lease, so a stale owner cannot overwrite the adopter's
record.  Nothing is committed round by round: the adopter restarts at
the round the client's ``last_acked_seq`` proves it holds.
"""

from __future__ import annotations

import socket

from repro.errors import ConfigurationError, WireError
from repro.fleet.dialer import FailoverDialer
from repro.net.gateway import GCGateway
from repro.recover.store import InMemorySessionStore, SessionStore
from repro.serve import ServingConfig, TenantScheduler, resolve_scheduler


class GatewayGroup:
    """N gateways, one model, one shared lease-fenced session store."""

    def __init__(
        self,
        server,
        n_gateways: int = 3,
        store: SessionStore | None = None,
        config: ServingConfig | None = None,
        telemetry=None,
        host: str = "127.0.0.1",
    ):
        if n_gateways < 1:
            raise ConfigurationError("a gateway group needs at least one member")
        self.server = server
        self.config = (config if config is not None else ServingConfig()).validate()
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self.store = (
            store
            if store is not None
            else InMemorySessionStore(telemetry=self.telemetry)
        )
        # under the ring scheduler the whole group shares ONE credit
        # ledger: a tenant's in-flight bound holds fleet-wide, so it
        # cannot multiply its budget by spraying gateways
        self.scheduler = (
            TenantScheduler.from_config(self.config, telemetry=self.telemetry)
            if resolve_scheduler(configured=self.config.scheduler) == "ring"
            else None
        )
        self.gateways = [
            GCGateway(
                server,
                host=host,
                config=self.config,
                telemetry=self.telemetry,
                store=self.store,
                gateway_id=f"gw{i}",
                scheduler=self.scheduler,
            )
            for i in range(n_gateways)
        ]
        self._bound = False

    def __len__(self) -> int:
        return len(self.gateways)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, bind: bool = False) -> "GatewayGroup":
        """Start every member.  ``bind=True`` opens real listeners;
        the default serves adopted sockets only (CI/loopback mode)."""
        self._bound = bind
        for gw in self.gateways:
            if bind:
                gw.start()
            else:
                gw.serving.start()
        return self

    def stop(self) -> None:
        for gw in self.gateways:
            gw.stop()  # idempotent — killed members already stopped

    def kill(self, index: int, hard: bool = False) -> GCGateway:
        """Crash member ``index`` (no drain, no lease release).

        ``hard=True`` abandons the member's sockets without running any
        cooperative teardown — the thread-fleet approximation of the
        process tier's ``SIGKILL`` (see :meth:`GCGateway.kill`).
        """
        gw = self.gateways[index]
        gw.kill(hard=hard)
        return gw

    def drain(self, index: int, timeout_s: float | None = None) -> bool:
        """Gracefully drain member ``index``; its in-flight sessions
        checkpoint and their leases are released for the peers."""
        return self.gateways[index].drain(timeout_s=timeout_s)

    def __enter__(self) -> "GatewayGroup":
        return self.start(bind=self._bound)

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client plumbing
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> list[tuple[str, int]]:
        """(host, port) per member — only meaningful after ``start(bind=True)``."""
        return [gw.address for gw in self.gateways]

    def loopback_dialer(
        self,
        name: str = "client",
        recv_timeout_s: float | None = None,
        telemetry=None,
        start_at: int = 0,
    ) -> FailoverDialer:
        """A :class:`FailoverDialer` whose per-member dial is a
        socketpair adopted by that gateway — the portless CI path.
        A killed member refuses the adoption with a
        :class:`~repro.errors.WireError`, which is exactly the failure
        the dialer rotates on.
        """
        from repro.net.endpoint import SocketEndpoint

        def make_dial(gw: GCGateway):
            def dial():
                ours, theirs = socket.socketpair()
                try:
                    gw.adopt(theirs)
                except WireError:
                    ours.close()
                    raise
                return SocketEndpoint(
                    name, ours, telemetry=telemetry,
                    recv_timeout_s=recv_timeout_s,
                )
            return dial

        return FailoverDialer(
            [make_dial(gw) for gw in self.gateways],
            telemetry=telemetry,
            start_at=start_at,
        )

    def network_dialer(
        self,
        name: str = "client",
        recv_timeout_s: float | None = None,
        telemetry=None,
        start_at: int = 0,
    ) -> FailoverDialer:
        """A :class:`FailoverDialer` over the bound member addresses."""
        return FailoverDialer.from_addresses(
            self.addresses,
            name=name,
            telemetry=telemetry,
            recv_timeout_s=recv_timeout_s,
            start_at=start_at,
        )
