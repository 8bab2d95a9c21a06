"""Exporters: render a registry snapshot as aligned text or stable JSON.

Both exporters are pure functions of ``MetricsRegistry.snapshot()``, so
under an injected fixed clock the rendered output is byte-deterministic
— the property the telemetry unit tests pin down.
"""

from __future__ import annotations

import json


def to_json(snapshot: dict) -> str:
    """Stable JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(snapshot, sort_keys=True, indent=2)


def traffic_by_tag(snapshot: dict) -> dict[str, int]:
    """Per-tag wire-byte totals from the ``channel.bytes.<tag>`` counters.

    The endpoint layer records one counter per message tag, which is the
    paper's communication accounting: the gateway report splits traffic
    into tables (``seq.tables``), OT (``ot.*``), labels
    (``seq.*_labels``), and control frames (``net.*``).
    """
    prefix = "channel.bytes."
    return {
        name[len(prefix):]: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    }


def render_traffic(snapshot: dict, title: str = "wire traffic by tag") -> str:
    """Aligned per-tag byte breakdown with a share column."""
    by_tag = traffic_by_tag(snapshot)
    lines = [f"== {title} =="]
    if not by_tag:
        lines.append("(no tagged traffic recorded)")
        return "\n".join(lines)
    total = sum(by_tag.values())
    width = max(len(t) for t in by_tag)
    for tag in sorted(by_tag, key=lambda t: (-by_tag[t], t)):
        share = by_tag[tag] / total if total else 0.0
        lines.append(f"  {tag:<{width}}  {by_tag[tag]:>12,} B  {share:6.1%}")
    lines.append(f"  {'total':<{width}}  {total:>12,} B")
    return "\n".join(lines)


def tenant_shares(snapshot: dict) -> dict[str, int]:
    """Per-tenant served counts from the ``tenants.served.<t>`` counters."""
    prefix = "tenants.served."
    return {
        name[len(prefix):]: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    }


def render_tenants(snapshot: dict, title: str = "tenant fairness") -> str:
    """Aligned per-tenant served breakdown with share and Jain index.

    The Jain index is computed locally (``(Σx)² / (n·Σx²)``) rather than
    imported from :mod:`repro.serve.tenants` — the exporters stay pure
    functions of a snapshot dict with no serving dependency.
    """
    shares = tenant_shares(snapshot)
    lines = [f"== {title} =="]
    if not shares:
        lines.append("(no tenant traffic recorded)")
        return "\n".join(lines)
    total = sum(shares.values())
    square_sum = sum(v * v for v in shares.values())
    jain = (total * total) / (len(shares) * square_sum) if square_sum else 1.0
    width = max(len(t) for t in shares)
    for tenant in sorted(shares, key=lambda t: (-shares[t], t)):
        share = shares[tenant] / total if total else 0.0
        lines.append(f"  {tenant:<{width}}  {shares[tenant]:>10,} served  {share:6.1%}")
    lines.append(f"  {'total':<{width}}  {total:>10,} served  jain={jain:.4f}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_text(snapshot: dict, title: str = "telemetry") -> str:
    """Human-readable report of counters, histograms, and span rollups."""
    lines = [f"== {title} =="]

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms (seconds unless noted):")
        for name in sorted(histograms):
            h = histograms[name]
            if h.get("count", 0) == 0:
                lines.append(f"  {name}: empty")
                continue
            lines.append(
                f"  {name}: n={h['count']} mean={_fmt(h['mean'])} "
                f"p50={_fmt(h['p50'])} p90={_fmt(h['p90'])} "
                f"p99={_fmt(h['p99'])} max={_fmt(h['max'])}"
            )

    spans = snapshot.get("spans", [])
    if spans:
        rollup: dict[str, list[float]] = {}
        for sp in spans:
            rollup.setdefault(sp["name"], []).append(sp["duration"])
        lines.append("spans:")
        for name in sorted(rollup):
            durations = rollup[name]
            lines.append(
                f"  {name}: n={len(durations)} "
                f"total={_fmt(sum(durations))} "
                f"mean={_fmt(sum(durations) / len(durations))}"
            )

    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
