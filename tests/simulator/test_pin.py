"""Pinned outputs of ``simulate_adoc_message`` over a fixed grid.

Figures 3-9 come from this function, so any change to the ladder it
runs — bypass, probe, fast path, Figure-2 signal, guards, divergence
windows — must not move a single figure by accident.  The grid covers
the three paper networks, the three data textures and one size per
ladder branch (small-message bypass, probe then a short pipeline, a
16 MB pipeline), plus a Gbit fast path, a forced-compression case and
a dynamic-link ``rate_schedule`` case.  The expected values were
recorded from the simulator before it moved onto the shared send core;
the refactor must reproduce them.
"""

from __future__ import annotations

import pytest

from repro.core import DEFAULT_CONFIG
from repro.simulator import profile_by_name, simulate_adoc_message
from repro.transport import GBIT, INTERNET, LAN100, RENATER

KB = 1024
MB = 1024 * KB
BYPASS = 100 * KB  # below the 512 KB small-message threshold
PROBE = 600 * KB  # probe + two pipeline buffers
PIPELINE = 16 * MB

NETWORKS = {"LAN100": LAN100, "RENATER": RENATER, "INTERNET": INTERNET, "GBIT": GBIT}


def _halving_link(t: float) -> float:
    """Full rate for one second, then a tenth of it."""
    return 1.0 if t < 1.0 else 0.1


#: (network, data, size, variant, elapsed_s, wire_bytes, levels_used,
#:  guard_trips, fast_path)
PINNED = [
    ("LAN100", "ascii", BYPASS, None, 0.008824680851063815, 102421, {}, 0, False),
    ("LAN100", "ascii", PROBE, None, 0.04513308425531919, 503883, {0: 25, 2: 5}, 0, False),
    ("LAN100", "ascii", PIPELINE, None, 0.5307002309219881, 5898866, {0: 25, 1: 490, 2: 207, 3: 6}, 0, False),
    ("LAN100", "binary", BYPASS, None, 0.008824680851063815, 102421, {}, 0, False),
    ("LAN100", "binary", PROBE, None, 0.0473709946808511, 548076, {0: 25, 2: 10}, 0, False),
    ("LAN100", "binary", PIPELINE, None, 0.9465101883687732, 11115012, {0: 175, 1: 606, 2: 462, 3: 98}, 0, False),
    ("LAN100", "incompressible", BYPASS, None, 0.008824680851063815, 102421, {}, 0, False),
    ("LAN100", "incompressible", PROBE, None, 0.052563787234042626, 614464, {0: 43, 2: 1}, 1, False),
    ("LAN100", "incompressible", PIPELINE, None, 1.4283511914892966, 16779966, {0: 2016, 2: 1, 4: 1, 6: 78}, 80, False),
    ("RENATER", "ascii", BYPASS, None, 0.19006153246753252, 102421, {}, 0, False),
    ("RENATER", "ascii", PROBE, None, 0.9234223511688309, 503883, {0: 25, 2: 5}, 0, False),
    ("RENATER", "ascii", PIPELINE, None, 5.857633879733538, 3359070, {0: 25, 2: 7, 4: 6, 6: 5, 8: 153, 9: 80, 10: 150}, 0, False),
    ("RENATER", "binary", BYPASS, None, 0.19006153246753252, 102421, {}, 0, False),
    ("RENATER", "binary", PROBE, None, 1.009808652597402, 548076, {0: 25, 2: 10}, 0, False),
    ("RENATER", "binary", PIPELINE, None, 14.538384921444429, 8649112, {0: 25, 2: 14, 4: 14, 6: 13, 8: 13, 10: 983}, 0, False),
    ("RENATER", "incompressible", BYPASS, None, 0.19006153246753252, 102421, {}, 0, False),
    ("RENATER", "incompressible", PROBE, None, 1.105853636363636, 614464, {0: 43, 2: 1}, 1, False),
    ("RENATER", "incompressible", PIPELINE, None, 27.35430446909739, 16779791, {0: 2016, 2: 1, 4: 1, 6: 71}, 73, False),
    ("INTERNET", "ascii", BYPASS, None, 0.3465300674858206, 102421, {}, 0, False),
    ("INTERNET", "ascii", PROBE, None, 1.3785127402130928, 503883, {0: 25, 2: 5}, 0, False),
    ("INTERNET", "ascii", PIPELINE, None, 7.894248681552267, 3260418, {0: 25, 2: 7, 4: 6, 6: 5, 8: 5, 9: 138, 10: 240}, 0, False),
    ("INTERNET", "binary", BYPASS, None, 0.3465300674858206, 102421, {}, 0, False),
    ("INTERNET", "binary", PROBE, None, 1.4914274311221833, 548076, {0: 25, 2: 10}, 0, False),
    ("INTERNET", "binary", PIPELINE, None, 21.270875131055007, 8649112, {0: 25, 2: 14, 4: 14, 6: 13, 8: 13, 10: 983}, 0, False),
    ("INTERNET", "incompressible", BYPASS, None, 0.3465300674858206, 102421, {}, 0, False),
    ("INTERNET", "incompressible", PROBE, None, 1.6233270674858196, 614464, {0: 43, 2: 1}, 1, False),
    ("INTERNET", "incompressible", PIPELINE, None, 39.26291854445657, 16778666, {0: 2016, 2: 1, 4: 1, 6: 26}, 28, False),
    ("GBIT", "ascii", PROBE, None, 0.005262165957446801, 614439, {}, 0, True),
    ("RENATER", "ascii", PROBE, "forced", 0.31819492515151515, 208975, {1: 20, 2: 7}, 0, False),
    ("RENATER", "binary", PIPELINE, "rate_schedule", 244.49487880536498, 15772733, {0: 1766, 2: 14, 4: 14, 6: 13, 8: 13, 10: 78}, 0, False),
]


def _case_id(case) -> str:
    net, data, size, variant = case[:4]
    name = f"{net}-{data}-{size // KB}K"
    return f"{name}-{variant}" if variant else name


@pytest.mark.parametrize("case", PINNED, ids=[_case_id(c) for c in PINNED])
def test_simulator_output_is_pinned(case):
    net, data, size, variant, elapsed, wire, levels, trips, fast = case
    kwargs = {}
    if variant == "forced":
        kwargs["config"] = DEFAULT_CONFIG.with_levels(1, 10)
    elif variant == "rate_schedule":
        kwargs["rate_schedule"] = _halving_link
    r = simulate_adoc_message(
        size, profile_by_name(data), NETWORKS[net], seed=7, **kwargs
    )
    assert r.elapsed_s == pytest.approx(elapsed, rel=1e-9)
    assert r.wire_bytes == wire
    assert dict(r.levels_used) == levels
    assert r.guard_trips == trips
    assert r.fast_path is fast
