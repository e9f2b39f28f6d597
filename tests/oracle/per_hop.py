"""The default model as a per-hop formula: every call walks the paths.

:func:`per_hop_predict` evaluates Harmony's default contention model the
way it was written before placements were compiled: for each link demand
and each ``communication`` host pair it asks the cluster for the path and
the view for each hop's effective megabytes.  The product
:class:`~repro.prediction.models.DefaultModel` reads the rows of a
compiled :class:`~repro.prediction.contention.PlacementFootprint` instead,
and must return the very same float.
"""


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
        effective = view.cpu_effective_seconds(
            hostname, demand.seconds, own_app_key=app_key)
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
        effective = view.transfer_effective_mb(
            link.host_a, link.host_b, total_mb, own_app_key=app_key)
        worst = max(worst, effective / link.bandwidth_mbps
                    + link.latency_seconds)
    return worst
