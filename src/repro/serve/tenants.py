"""Per-tenant admission credits and the cross-tenant garble station.

:class:`TenantScheduler` is the ``scheduler="ring"`` admission path: one
:class:`CreditAccount` ledger per tenant, refilled by a smooth weighted
round-robin :class:`WeightedRefiller` that request completions drive.
Every admission spends a credit and occupies an in-flight slot; every
completion returns the slot and mints one credit back through the
refiller (work-conserving — the fleet's total credit flow matches its
throughput, split by weight).  A tenant that is out of credits or at
its in-flight bound is shed with a typed
:class:`~repro.errors.OverloadedError` naming the tenant, so the
gateway's retry-after answer can carry the attribution.

:class:`GarbleStation` realizes the cross-tenant batching win: when two
tenants' ``vectorized`` requests miss the pre-garbled pool at the same
moment *and their circuit fingerprints match*, the first one to arrive
becomes the batch leader, waits a short window for co-riders, and runs
one :meth:`~repro.accel.maxelerator.MAXelerator.garble_vectorized`
invocation for the whole batch — one AES pass per topological stage
regardless of how many tenants joined (observable as a single
``gc.aes_batch_calls`` increment set).  Distinct fingerprints never
share a batch: the key *is* the fingerprint.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError, OverloadedError

#: Requests that carry no tenant id are accounted to this tenant, so the
#: ring scheduler still bounds anonymous traffic as one aggregate.
DEFAULT_TENANT = "default"


def jain_index(shares) -> float:
    """Jain's fairness index over per-tenant shares: 1.0 is perfectly
    fair, 1/n is one tenant taking everything.  Empty or all-zero
    input reads as fair (nobody was served, nobody was starved
    *relative to anyone else*)."""
    values = [float(v) for v in shares]
    square_sum = sum(v * v for v in values)
    if not values or square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class CreditAccount:
    """One tenant's credit ledger: cap-bounded balance, in-flight count,
    and the conservation counters :meth:`check` audits.

    Invariant (checked by :meth:`check`): every credit ever minted is
    either spent or still held — ``minted == spent + credits`` — and
    the balance never leaves ``[0, cap]``.
    """

    __slots__ = (
        "tenant", "weight", "cap", "max_inflight",
        "credits", "minted", "spent", "refunded", "forfeited",
        "inflight", "credit_stalls", "inflight_stalls",
    )

    def __init__(self, tenant: str, weight: float = 1.0, cap: int = 4,
                 max_inflight: int = 2):
        self.tenant = tenant
        self.weight = weight
        self.cap = cap
        self.max_inflight = max_inflight
        #: accounts start full so a cold tenant is immediately servable
        self.credits = cap
        self.minted = cap
        self.spent = 0
        self.refunded = 0
        self.forfeited = 0
        self.inflight = 0
        self.credit_stalls = 0
        self.inflight_stalls = 0

    @property
    def can_inject(self) -> bool:
        return self.credits >= 1 and self.inflight < self.max_inflight

    def spend(self) -> None:
        if self.credits < 1:
            raise ConfigurationError(
                f"tenant {self.tenant}: spending with no credits"
            )
        self.credits -= 1
        self.spent += 1
        self.inflight += 1

    def complete(self) -> None:
        if self.inflight < 1:
            raise ConfigurationError(
                f"tenant {self.tenant}: completing with nothing in flight"
            )
        self.inflight -= 1

    def refund(self) -> None:
        """Undo a spend whose work was never started (admission raced a
        full queue): the in-flight slot and the credit both come back.
        A refund at the cap is forfeited — the ledger still balances
        because the refund is counted as negative spend either way."""
        self.inflight -= 1
        self.spent -= 1
        self.refunded += 1
        if self.credits < self.cap:
            self.credits += 1
        else:
            self.minted -= 1
            self.forfeited += 1

    def grant(self, n: int) -> int:
        """Mint up to ``n`` credits, clipped at the cap; returns how
        many were actually minted (the rest are forfeited)."""
        granted = min(n, self.cap - self.credits)
        if granted > 0:
            self.credits += granted
            self.minted += granted
        self.forfeited += n - granted
        return granted

    def check(self) -> None:
        """Raise unless the conservation invariant holds."""
        if not 0 <= self.credits <= self.cap:
            raise AssertionError(
                f"tenant {self.tenant}: balance {self.credits} outside "
                f"[0, {self.cap}]"
            )
        if self.minted != self.spent + self.credits:
            raise AssertionError(
                f"tenant {self.tenant}: credits leaked — minted "
                f"{self.minted} != spent {self.spent} + held {self.credits}"
            )
        if not 0 <= self.inflight <= self.max_inflight:
            raise AssertionError(
                f"tenant {self.tenant}: in-flight {self.inflight} outside "
                f"[0, {self.max_inflight}]"
            )


class WeightedRefiller:
    """Smooth weighted round-robin over a set of credit accounts.

    Each :meth:`tick` advances every account's running priority by its
    weight and grants the quantum to the highest-priority account that
    is *below its cap* (skipping capped accounts keeps the refill
    work-conserving); the winner pays the total weight back.  Both
    updates clamp the priority to ``[-total_weight, +total_weight]``.
    The clamp is load-bearing in both directions, each end a starvation
    bug a property test once caught: unclamped accrual lets an account
    capped through a long warm-up bank unbounded entitlement and spend
    it as a monopoly burst when it rejoins, while *freezing* capped
    accounts instead biases grants toward whichever tenant happens to
    be below cap at tick time (persistently unequal shares under equal
    weights).  Bounded banking gives both guarantees: grant counts
    converge to the weight proportions over any window, and catch-up
    after an eligibility gap costs at most two
    ``ceil(total_weight / own_weight)`` rounds.
    """

    def __init__(self, accounts: list[CreditAccount]):
        if not accounts:
            raise ConfigurationError("the refiller needs at least one account")
        self._accounts = list(accounts)
        self._priority = {a.tenant: 0.0 for a in accounts}

    def tick(self, quantum: int = 1) -> CreditAccount | None:
        """One refill round; returns the account granted to (or ``None``
        when every account sits at its cap)."""
        eligible = [a for a in self._accounts if a.credits < a.cap]
        if not eligible:
            return None
        total = sum(a.weight for a in self._accounts)
        for acct in self._accounts:
            self._priority[acct.tenant] = min(
                self._priority[acct.tenant] + acct.weight, total
            )
        # ties break by tenant name so the schedule is deterministic
        winner = max(eligible, key=lambda a: (self._priority[a.tenant], a.tenant))
        self._priority[winner.tenant] = max(
            self._priority[winner.tenant] - total, -total
        )
        winner.grant(quantum)
        return winner


class TenantScheduler:
    """Credit-gated admission shared by every gateway in a fleet.

    Deterministic by construction: refill happens on completion (one
    credit minted per completed request, granted to the weighted
    round-robin winner), never on a wall clock, so a test that admits,
    completes, and admits again sees the same ledger every run.
    """

    def __init__(self, weights=(), default_weight: float = 1.0,
                 credit_cap: int = 4, max_inflight: int = 4,
                 telemetry=None):
        if credit_cap < 1:
            raise ConfigurationError("tenant credit cap must be at least 1")
        if max_inflight < 1:
            raise ConfigurationError("tenant in-flight bound must be at least 1")
        if default_weight <= 0:
            raise ConfigurationError("default tenant weight must be positive")
        self._lock = threading.Lock()
        self._credit_cap = credit_cap
        self._max_inflight = max_inflight
        self._default_weight = default_weight
        self._weights = {}
        for tenant, weight in weights:
            if not tenant:
                raise ConfigurationError("tenant weights name a blank tenant")
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r}: refill weight must be positive"
                )
            self._weights[tenant] = float(weight)
        self.telemetry = telemetry
        self._accounts: dict[str, CreditAccount] = {}
        self._refiller: WeightedRefiller | None = None
        for tenant in self._weights:
            self._account(tenant)

    @classmethod
    def from_config(cls, config, telemetry=None) -> "TenantScheduler":
        return cls(
            credit_cap=config.tenant_credit_cap,
            max_inflight=config.tenant_max_inflight,
            telemetry=telemetry,
        )

    def _account(self, tenant: str) -> CreditAccount:
        """Look up (or lazily register) a tenant's ledger.  Caller holds
        the lock or is still in ``__init__``."""
        acct = self._accounts.get(tenant)
        if acct is None:
            acct = CreditAccount(
                tenant,
                weight=self._weights.get(tenant, self._default_weight),
                cap=self._credit_cap,
                max_inflight=self._max_inflight,
            )
            self._accounts[tenant] = acct
            # rebuilding keeps WRR priorities for existing accounts at
            # zero-sum; a fresh tenant joins the rotation immediately
            self._refiller = WeightedRefiller(list(self._accounts.values()))
        return acct

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc()

    def admit(self, tenant: str) -> str:
        """Charge one admission to ``tenant`` (blank → ``default``).

        Returns the normalized tenant name the caller must later pass
        to :meth:`complete` or :meth:`release`.  Raises a typed
        :class:`OverloadedError` naming the tenant when its credits or
        in-flight budget are exhausted — back-pressure instead of
        unbounded queueing.
        """
        name = tenant or DEFAULT_TENANT
        with self._lock:
            acct = self._account(name)
            if acct.inflight >= acct.max_inflight:
                acct.inflight_stalls += 1
                self._count(f"tenants.shed.{name}")
                raise OverloadedError(
                    f"tenant {name} is at its in-flight bound "
                    f"({acct.max_inflight}); retry after a completion"
                )
            if acct.credits < 1:
                acct.credit_stalls += 1
                self._count(f"tenants.shed.{name}")
                raise OverloadedError(
                    f"tenant {name} is out of admission credits "
                    f"(cap {acct.cap}); retry after a completion"
                )
            acct.spend()
            self._count(f"tenants.admitted.{name}")
        return name

    def set_weight(self, tenant: str, weight: float) -> None:
        """Re-weight ``tenant``'s credit refill share (registering the
        tenant if it has not been seen yet).  The SLO controller calls
        this so per-tenant SLO classes map onto WRR refill: a gold
        tenant's completions mint credits back at a multiple of a
        bronze tenant's."""
        if not tenant:
            raise ConfigurationError("cannot weight a blank tenant")
        if weight <= 0:
            raise ConfigurationError(
                f"tenant {tenant!r}: refill weight must be positive"
            )
        with self._lock:
            self._weights[tenant] = float(weight)
            acct = self._account(tenant)
            acct.weight = float(weight)
            # the refiller snapshots weights at construction; rebuild so
            # the new share takes effect for subsequent completions
            self._refiller = WeightedRefiller(list(self._accounts.values()))

    def release(self, tenant: str) -> None:
        """Refund an admission whose work never started (the bounded
        queue was full after the credit check won)."""
        with self._lock:
            self._account(tenant or DEFAULT_TENANT).refund()

    def complete(self, tenant: str) -> None:
        """Return ``tenant``'s in-flight slot and mint one credit back
        into the fleet through the weighted round-robin refiller."""
        with self._lock:
            self._account(tenant or DEFAULT_TENANT).complete()
            self._refiller.tick(1)
            self._count(f"tenants.served.{tenant or DEFAULT_TENANT}")

    def snapshot(self) -> dict:
        with self._lock:
            accounts = list(self._accounts.values())
            # refund() already nets refunded admissions out of ``spent``
            served = {a.tenant: a.spent for a in accounts}
            return {
                "tenants": {
                    a.tenant: {
                        "credits": a.credits,
                        "inflight": a.inflight,
                        "admitted": a.spent,
                        "credit_stalls": a.credit_stalls,
                        "inflight_stalls": a.inflight_stalls,
                    }
                    for a in accounts
                },
                "jain": jain_index(served.values()),
            }

    def check_invariants(self) -> None:
        with self._lock:
            for acct in self._accounts.values():
                acct.check()


class _Batch:
    __slots__ = ("key", "rounds", "n", "max_batch", "full", "done",
                 "runs", "error")

    def __init__(self, key, rounds: int, max_batch: int):
        self.key = key
        self.rounds = rounds
        self.n = 1
        self.max_batch = max_batch
        self.full = threading.Event()
        self.done = threading.Event()
        self.runs = None
        self.error = None


class GarbleStation:
    """Fingerprint-keyed batching of on-demand vectorized garbling.

    ``take`` blocks until the caller's run is garbled and returns it.
    The first caller for a given ``(key, rounds)`` pair leads: it waits
    up to ``window_s`` for co-riders (or until ``max_batch`` fills the
    batch), then performs one vectorized garble for all of them.
    Followers wait on the leader.  Keys are opaque — the serving layer
    passes the circuit fingerprint, so only structurally identical
    circuits ever share an AES invocation.
    """

    def __init__(self, window_s: float = 0.002, max_batch: int = 8,
                 telemetry=None):
        if window_s < 0:
            raise ConfigurationError("the batch window cannot be negative")
        if max_batch < 1:
            raise ConfigurationError("a batch must admit at least one run")
        self.window_s = window_s
        self.max_batch = max_batch
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._open: dict = {}

    def take(self, accelerator, rounds: int, key, telemetry=None):
        with self._lock:
            batch = self._open.get((key, rounds))
            if batch is not None and batch.n < batch.max_batch:
                idx = batch.n
                batch.n += 1
                if batch.n == batch.max_batch:
                    batch.full.set()
            else:
                batch = _Batch(key, rounds, self.max_batch)
                self._open[(key, rounds)] = batch
                idx = 0
        if idx == 0:
            batch.full.wait(timeout=self.window_s)
            with self._lock:
                # close the door: late arrivals start a new batch
                if self._open.get((key, rounds)) is batch:
                    del self._open[(key, rounds)]
                size = batch.n
            try:
                batch.runs = accelerator.garble_vectorized(
                    rounds, size,
                    telemetry=telemetry if telemetry is not None else self.telemetry,
                )
            except Exception as exc:  # pragma: no cover - surfaced to takers
                batch.error = exc
            finally:
                batch.done.set()
            if self.telemetry is not None:
                self.telemetry.counter("station.batches").inc()
                self.telemetry.counter("station.batched_runs").inc(size)
                if size > 1:
                    self.telemetry.counter("station.cobatched").inc()
        else:
            batch.done.wait()
        if batch.error is not None:
            raise batch.error
        return batch.runs[idx]
