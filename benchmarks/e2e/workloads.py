"""The benchmark's workloads and their sizes.

README.md says why each one is here. Parameters are plain data so the
parent process can hand them to a child unit as JSON, and the self-tests
can shrink them to smoke sizes.
"""

from __future__ import annotations

from typing import Dict, Optional

WORKLOADS: Dict[str, dict] = {
    # `repro table4.2`: Zipfian N=1000 read-only traces of 40k references,
    # which the scalar kernels already run.
    "zipf-table": {"kind": "table", "table": "4.2", "scale": 1.0,
                   "observed": False},
    # `repro table4.2 --scale 0.1 --trace-out PATH`: the program's own
    # tracer demotes every run to the object path. Scale 0.1 keeps one
    # run near the other workloads' length.
    "zipf-observed": {"kind": "table", "table": "4.2", "scale": 0.1,
                      "observed": True},
    # `repro table4.3 --scale 0.02`: write bits and process ids keep every
    # run on the object path, and the LRU-1 B(1) bisection dominates.
    "oltp-table": {"kind": "table", "table": "4.3", "scale": 0.02,
                   "observed": False},
    # One closed-loop session thread over an 8,192-frame, 2-shard LRU-2
    # service: a hot tenant that fits the buffer beside a cold tenant
    # whose hot set does not, with /metrics scraped beside the requests.
    "serve-mixed": {"kind": "serve", "frames": 8192, "shards": 2, "k": 2,
                    "warmup": 30_000, "timed": 40_000,
                    "hot_pages": 1000, "cold_pages": 200_000,
                    "cold_offset": 1 << 20, "write_share": 0.25,
                    "scrape_interval": 0.5, "span_requests": 10_000},
}


def params_for(name: str,
               overrides: Optional[Dict[str, object]] = None) -> dict:
    """A workload's parameters with ``overrides`` applied."""
    params = dict(WORKLOADS[name])
    params.update(overrides or {})
    return params
