"""Impaired-path identity: short cells over every tc-netem mechanism,
pinned by the sha256 of their results.

The benchmark suite's digests all run the unimpaired path, so nothing
else holds the lossy, jittered, reordered, duplicated and rate-limited
paths to their exact draws.  Each impairment cell runs 150 requests of
data-caching (vm monitor) or triton-grpc (stream monitor) with one
impairment on both directions.  At that size every flow is sparse, so a
lost message waits out the RTO; two longer data-caching cells make the
flows dense, so losses recover by the fast-retransmit estimate, and one
of them resets connections.  The fault cells go through
``run_faulted_cell`` with the retry watchdog armed.  A digest covers the
whole ``LevelResult.to_dict()`` (and the fault report), so any change to
a path's draws, their order, or the arrival times they give shows up as
a mismatch.

To print the digests of the current code (after a change that is meant
to alter results), run ``PYTHONPATH=src python
tests/integration/test_netem_identity.py``.
"""

import hashlib
import json

import pytest

from repro.analysis import ExperimentSpec
from repro.analysis.executor.pool import execute_cell
from repro.faults import ChannelStall, ConnectionReset, run_faulted_cell
from repro.net import NetemConfig
from repro.sim import MSEC

REQUESTS = 150

APPS = {
    "dc": ExperimentSpec("data-caching", 20_000, requests=REQUESTS, monitor_mode="vm"),
    "triton": ExperimentSpec("triton-grpc", 15, requests=REQUESTS, monitor_mode="stream"),
}

#: One impairment per cell, applied to both directions (``(c2s, s2c)``
#: where they differ).
IMPAIRMENTS = {
    "loss": NetemConfig(loss=0.05),
    "corrupt": (NetemConfig(corrupt=0.05), NetemConfig(loss=0.02, corrupt=0.03)),
    "gemodel": (
        NetemConfig(ge_p=0.05, ge_r=0.3, ge_loss_bad=0.5, ge_loss_good=0.01, corrupt=0.01),
        NetemConfig(ge_p=0.05, ge_r=0.3),
    ),
    "jitter": NetemConfig(delay_ns=2 * MSEC, jitter_ns=1 * MSEC),
    "reorder": NetemConfig(delay_ns=2 * MSEC, reorder=0.25, reorder_gap=3),
    # Jitter draws from the same stream, so a skipped or extra duplicate
    # draw shifts every later delay.
    "duplicate": NetemConfig(
        delay_ns=1 * MSEC, jitter_ns=MSEC // 2, duplicate=0.1, rate_bps=200_000_000
    ),
    "rate": NetemConfig(rate_bps=50_000_000),
    "delay": NetemConfig(delay_ns=1 * MSEC),
    "paper": NetemConfig.paper_impaired(),
}

DIGESTS = {
    "dc/corrupt": "7e20492d7aad203c",
    "dc/delay": "e0e446baee464b6a",
    "dc/dense-loss": "d67794b96ae05e90",
    "dc/dense-reset": "f9a799bbdcd6c3f8",
    "dc/duplicate": "ecbda60fc5f07de6",
    "dc/gemodel": "6bbc7ec921614585",
    "dc/jitter": "3e3c230a7a0872fb",
    "dc/loss": "1b619f7ea72f50f1",
    "dc/paper": "89bf400e049afb72",
    "dc/rate": "102841b247230dee",
    "dc/reorder": "e279337b17466e1f",
    "dc/stall": "c083bad3f1f71c76",
    "triton/corrupt": "016e7b4dbb9f00fc",
    "triton/delay": "ba230d19aeb632a4",
    "triton/duplicate": "afea624a9268be8e",
    "triton/gemodel": "1467451ea3cdfbab",
    "triton/jitter": "602af61b9f13622a",
    "triton/loss": "bc17d0ce8d12579c",
    "triton/paper": "2942447ae85e7e3b",
    "triton/rate": "323235bfd27841ab",
    "triton/reorder": "428efc443bd34243",
}


def _digest(*records: dict) -> str:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _impaired(name: str) -> str:
    app, impairment = name.split("/")
    pair = IMPAIRMENTS[impairment]
    c2s, s2c = pair if isinstance(pair, tuple) else (pair, pair)
    result = execute_cell(APPS[app].replace(client_to_server=c2s, server_to_client=s2c))
    assert result.completed == REQUESTS
    return _digest(result.to_dict())


def _dense(name: str) -> str:
    # Each of data-caching's 256 connections carries several requests.
    lossy = NetemConfig(loss=0.02)
    spec = APPS["dc"].replace(requests=1200, client_to_server=lossy, server_to_client=lossy)
    if name == "dc/dense-loss":
        result = execute_cell(spec)
        assert result.completed == spec.requests
        return _digest(result.to_dict())
    # The reset drops requests in flight (the watchdog re-sends them), and
    # the fresh connections start without a send-gap estimate.
    faults = [ConnectionReset(at_ns=30 * MSEC, connections=64)]
    result, report = run_faulted_cell(spec, faults=faults, retry_timeout_ns=50 * MSEC)
    assert report.resets == 64 and result.completed == spec.requests
    return _digest(result.to_dict(), report.to_dict())


def _stall(name: str) -> str:
    # A draw-free fixed-delay path: the stall moves the watermark that the
    # fixed transit is queued behind.
    spec = APPS["dc"].replace(client_to_server=NetemConfig(delay_ns=1 * MSEC))
    faults = [ChannelStall(at_ns=2 * MSEC, duration_ns=2 * MSEC)]
    result, report = run_faulted_cell(spec, faults=faults, retry_timeout_ns=3 * MSEC)
    assert report.channel_stalls == 1
    return _digest(result.to_dict(), report.to_dict())


CELLS = {
    **{f"{app}/{impairment}": _impaired for app in APPS for impairment in IMPAIRMENTS},
    "dc/dense-loss": _dense,
    "dc/dense-reset": _dense,
    "dc/stall": _stall,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_impaired_cell_matches_its_digest(name):
    assert CELLS[name](name) == DIGESTS[name]


def test_every_cell_has_a_digest():
    assert sorted(DIGESTS) == sorted(CELLS)


if __name__ == "__main__":
    for cell_name in sorted(CELLS):
        print(f'    "{cell_name}": "{CELLS[cell_name](cell_name)}",')
