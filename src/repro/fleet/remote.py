"""Running a rollout on a remote ``repro worker``.

A fleet of simulated kernels is in-process state, so it cannot be
scattered over the stateless per-CVE item protocol the evaluation
fabric uses.  Instead the *whole rollout* ships as one work item
(``kind: "fleet-rollout"``, the plan as plain JSON): the worker boots
the fleet, runs the waves, streams one ``result`` frame per finished
wave (so the coordinator side sees canary progress live), and returns
the full report dict in the ``item-done`` frame.  The connection uses
the same authenticated handshake and session opener as evaluation
traffic (:func:`repro.distributed.aio.open_session`) — a secret-
protected worker runs rollouts only for peers that prove the secret.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.distributed import aio, protocol
from repro.distributed.protocol import ProtocolError
from repro.fleet.model import (
    RolloutError,
    RolloutPlan,
    RolloutReport,
)

#: a rollout boots a fleet and runs every wave; allow it minutes
DEFAULT_TIMEOUT = 300.0


def execute_rollout_item(
        plan_data: Dict[str, Any],
        on_wave: Optional[Callable[[Dict[str, Any]], None]] = None,
        ) -> Dict[str, Any]:
    """Worker side: run the plan, reporting each wave as it closes.

    Returns the report's JSON dict (the worker ships it in
    ``item-done``).  Waves are streamed *live* — the orchestrator's
    ``on_wave`` hook fires the moment each wave's verdict lands, so a
    watching coordinator (the control plane polling a rollout record)
    sees canary progress while later waves are still running.
    """
    from repro.fleet.orchestrator import rollout_corpus_cve

    plan = RolloutPlan.from_json_dict(plan_data)
    stream = (None if on_wave is None
              else (lambda wave: on_wave(wave.to_json_dict())))
    report = rollout_corpus_cve(plan, on_wave=stream)
    return report.to_json_dict()


def run_remote_rollout(
        address: str, plan: RolloutPlan,
        secret: Optional[bytes] = None,
        timeout: float = DEFAULT_TIMEOUT,
        on_wave: Optional[Callable[[Dict[str, Any]], None]] = None,
        ) -> RolloutReport:
    """Client side: run ``plan`` on the worker at ``host:port``.

    ``timeout`` bounds connecting and each wait for the worker's next
    frame, not the whole rollout.  Raises :class:`RolloutError` when
    the worker reports a failure, :class:`TimeoutError` when it falls
    silent, and lets :class:`~repro.distributed.protocol.AuthError` /
    :class:`ProtocolError` / :class:`OSError` propagate for
    connection-level problems.
    """
    host, port = protocol.parse_address(address)
    if secret is None:
        secret = protocol.default_secret()
    report_data = asyncio.run(_converse(address, host, port, plan,
                                        secret, timeout, on_wave))
    return RolloutReport.from_json_dict(report_data)


async def _converse(address: str, host: str, port: int,
                    plan: RolloutPlan, secret: Optional[bytes],
                    timeout: float, on_wave) -> Dict[str, Any]:
    """One session: ship the plan, relay waves, return the report."""
    try:
        channel = await aio.open_session(
            host, port, secret, hello={"disk_cache": None},
            connect_timeout=timeout, ready_timeout=timeout)
    except asyncio.TimeoutError:
        raise TimeoutError("worker %s did not answer within %.0fs"
                           % (address, timeout))
    try:
        await channel.send({
            "type": protocol.ITEM, "item_id": "rollout-0",
            "kind": "fleet-rollout",
            "plan": plan.to_json_dict()})
        while True:
            try:
                message = await asyncio.wait_for(channel.recv(),
                                                 timeout)
            except asyncio.TimeoutError:
                raise TimeoutError("worker %s sent nothing for %.0fs"
                                   % (address, timeout))
            if message is None:
                raise ConnectionError(
                    "worker %s closed before finishing the rollout"
                    % address)
            kind = message.get("type")
            if kind == protocol.RESULT:
                if on_wave is not None and "wave" in message:
                    on_wave(message["wave"])
            elif kind == protocol.ITEM_DONE:
                report_data = message.get("report")
                break
            elif kind == protocol.ERROR:
                raise RolloutError(
                    "remote rollout failed on %s:\n%s"
                    % (address, message.get("error", "")))
        try:
            await channel.send({"type": protocol.SHUTDOWN})
        except (ConnectionError, ProtocolError, OSError):
            pass
    finally:
        await channel.close()
    if not isinstance(report_data, dict):
        raise ProtocolError("worker %s sent no rollout report"
                            % address)
    return report_data
