"""The default model as a per-hop formula: every call walks the paths.

:func:`per_hop_predict` evaluates Harmony's default contention model the
way it was written before placements were compiled: for each link demand
and each ``communication`` host pair it asks the cluster for the path and
the view for each hop's effective megabytes.  The product
:class:`~repro.prediction.models.DefaultModel` reads the rows of a
compiled :class:`~repro.prediction.contention.PlacementFootprint` instead,
and must return the very same float.

:func:`cpu_effective_seconds` and :func:`transfer_effective_mb` are the
per-hop lookups, over the view's ``contention_tables()``.
"""

from repro.prediction.contention import sojourn


def cpu_effective_seconds(view, hostname, own_seconds, own_app_key=None):
    """Reference seconds a job of ``own_seconds`` effectively needs.

    Under processor sharing with (approximately) simultaneous arrivals,
    a job of service demand ``s`` among jobs ``s_j`` completes after
    ``sum_j min(s_j, s)``: every competitor delays it by at most its own
    length.  This closed form is exact for simultaneous PS arrivals and
    captures the asymmetry the Figure 3 database bundle relies on — a
    1-second page-server request barely delays a 9-second query, while a
    second 9-second query doubles it.  Each external consumer counts as
    at least as long as the job itself.  When ``own_app_key`` names a
    configuration placed in the view, its own demands on the node are
    excluded (the ``own_seconds`` term accounts for them).
    """
    if own_seconds <= 0:
        return 0.0
    host_entries, external_cpu, _, _ = view.contention_tables()
    return sojourn(own_seconds, host_entries.get(hostname), own_app_key,
                   external_cpu.get(hostname, 0.0))


def transfer_effective_mb(view, host_a, host_b, own_mb, own_app_key=None):
    """Effective megabytes for a transfer sharing link (a, b) fairly: the
    same ``sum min`` form over the flows whose path crosses the link."""
    if own_mb <= 0:
        return 0.0
    if view.cluster.link_between(host_a, host_b) is None:
        return own_mb
    key = frozenset((host_a, host_b))
    _, _, link_entries, external_flows = view.contention_tables()
    return sojourn(own_mb, link_entries.get(key), own_app_key,
                   external_flows.get(key, 0.0))


def per_hop_predict(demands, assignment, view, app_key=None):
    """``max(cpu phases) + network``, the network phase summed in
    link-demand order, then the slowest ``communication`` pair."""
    cluster = view.cluster
    cpu_phase = 0.0
    for demand in demands.nodes:
        if not demand.seconds:
            continue
        hostname = assignment.hostname_of(demand.local_name)
        node = cluster.node(hostname)
        effective = cpu_effective_seconds(
            view, hostname, demand.seconds, own_app_key=app_key)
        cpu_phase = max(cpu_phase, effective / node.speed)

    network_phase = 0.0
    for link_demand in demands.links:
        if link_demand.total_mb <= 0:
            continue
        host_a = assignment.hostname_of(link_demand.endpoint_a)
        host_b = assignment.hostname_of(link_demand.endpoint_b)
        if host_a == host_b:
            continue
        network_phase += _path_seconds(
            view, host_a, host_b, link_demand.total_mb, app_key)

    if demands.communication_mb and demands.communication_mb > 0:
        hosts = sorted(assignment.hostnames())
        worst = 0.0
        for i, host_a in enumerate(hosts):
            for host_b in hosts[i + 1:]:
                worst = max(worst, _path_seconds(
                    view, host_a, host_b, demands.communication_mb,
                    app_key))
        network_phase += worst

    return cpu_phase + network_phase


def _path_seconds(view, host_a, host_b, total_mb, app_key):
    """Seconds at the slowest hop of the path between two hosts."""
    worst = 0.0
    for link in view.cluster.path_links(host_a, host_b):
        effective = transfer_effective_mb(
            view, link.host_a, link.host_b, total_mb, own_app_key=app_key)
        worst = max(worst, effective / link.bandwidth_mbps
                    + link.latency_seconds)
    return worst
