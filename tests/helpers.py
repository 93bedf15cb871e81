"""Helpers shared by the test modules."""

import math

from manalyzer.gateway import AgentRequest, ScriptedProvider, digest_request


def register_for(provider: ScriptedProvider, request: AgentRequest, response: str) -> str:
    """Script `response` as the reply to this exact request; returns the
    request's digest."""
    digest = digest_request(request)
    provider.register_script(request.request_tag, digest, response)
    return digest


def edge_values(rng, pool, count, abs_tol, rel_tol):
    """`count` values packed at the tolerance bounds of the reference values
    in `pool`: each is some b, b +/- w (w its tolerance width), or one ulp
    inside or beyond one of those bounds."""
    values = []
    for _ in range(count):
        b = rng.choice(pool)
        bound = b + rng.choice([-1, 1]) * max(abs_tol, rel_tol * abs(b))
        values.append(rng.choice([
            b, bound, math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf),
        ]))
    return values
