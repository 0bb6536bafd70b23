"""Long-lived sweep service: many clients, one warm result store.

``fusion-sim serve`` turns the batch engine into a daemon.  Clients
connect over TCP and speak newline-delimited JSON (one request object
per line, one response object — or a ``watch`` stream — back):

* ``{"op": "submit", "spec": {...}}`` -> ``{"ok": true, "job_id": ..}``
* ``{"op": "status", "job_id": ..}``  -> per-status row counts
* ``{"op": "watch", "job_id": ..}``   -> streamed status lines until
  the job finishes (the poll-free way to wait)
* ``{"op": "fetch", "job_id": ..}``   -> every row: point, status,
  spec metrics, exported result or error columns
* ``{"op": "ping"}`` / ``{"op": "counts"}`` / ``{"op": "shutdown"}``

Execution is a claim loop over the durable
:class:`~repro.sim.store.ExperimentStore`: the worker claims runnable
rows with compare-and-swap leases, rebuilds their
:class:`RunRequest`\\ s from the stored point JSON, and routes them
through the ordinary :class:`ExecutionEngine` batch path — so the
content-hash result cache, crash recovery and timeouts are all reused
unchanged, and a row another process already computed is a cache hit,
not a re-simulation.  Leases are renewed while
a batch runs; a daemon killed ``-9`` mid-grid leaves only ``claimed``
rows behind, which the next daemon re-queues (dead-owner sweep on
startup, lease expiry otherwise) and finishes — resume is a property of
the store, not of daemon memory.

Engine recovery events are bridged into the store's ``events`` table
via :attr:`EngineJournal.on_record`, so ``fetch``/``doctor`` can see
*why* a row needed three attempts even after the daemon restarted.
"""

import asyncio
import json
import os
import socket
import tempfile
import time

from ..common.errors import ConfigError
from . import export
from . import jobs as jobs_mod
from .engine import ExecutionEngine, cache_key, code_fingerprint
from .results import is_failure
from .store import DEFAULT_LEASE_S, ExperimentStore, default_owner
from .sweep import METRICS

#: Max line length (fetch responses carry whole result exports).
_LIMIT = 32 * 1024 * 1024


class SweepService:
    """The daemon: an asyncio socket server plus one store-claim worker."""

    def __init__(self, store, engine=None, host="127.0.0.1", port=0,
                 batch_size=4, lease_s=DEFAULT_LEASE_S, poll_s=0.2,
                 owner=None):
        self.store = store
        self.engine = engine if engine is not None else ExecutionEngine()
        self.host = host
        self.port = port
        self.batch_size = max(1, int(batch_size))
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.owner = owner or default_owner()
        self._server = None
        self._worker = None
        self._wake = None
        self._stopping = None
        # Journal -> store bridge: every engine recovery event (retry,
        # respawn, timeout, corrupt drop, ...) lands in the durable
        # events table with this daemon's owner id attached.
        self.engine.journal.on_record = self._bridge_event

    def _bridge_event(self, record):
        detail = {k: v for k, v in record.items()
                  if k not in ("event", "seq")}
        detail["owner"] = self.owner
        self.store.record_event("engine", record["event"], **detail)

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        recovered = self.store.recover_dead_owners()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        self.store.record_event(
            "service", "started", owner=self.owner, host=self.host,
            port=self.port, recovered_rows=recovered)
        self._worker = asyncio.ensure_future(self._worker_loop())
        return self

    async def serve_forever(self):
        await self._stopping.wait()
        await self.stop()

    async def stop(self):
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            self._wake.set()
            try:
                await asyncio.wait_for(self._worker, timeout=30.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._worker.cancel()
        self.store.record_event("service", "stopped", owner=self.owner)

    def announce(self, path):
        """Atomically write connection coordinates for clients/tests."""
        payload = {"host": self.host, "port": self.port,
                   "pid": os.getpid(), "owner": self.owner,
                   "store": self.store.path}
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=os.path.dirname(path) or ".", prefix=".tmp-",
            delete=False)
        with handle as fileobj:
            json.dump(payload, fileobj)
        os.replace(handle.name, path)

    # -- the claim/execute worker ------------------------------------------

    async def _worker_loop(self):
        loop = asyncio.get_event_loop()
        while not self._stopping.is_set():
            claimed = self.store.claim(self.owner, self.batch_size,
                                       self.lease_s)
            if not claimed:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           timeout=self.poll_s)
                except asyncio.TimeoutError:
                    pass
                continue
            await self._run_claimed(loop, claimed)

    async def _run_claimed(self, loop, claimed):
        keys = [key for key, _point in claimed]
        try:
            requests = [jobs_mod.point_request(point)
                        for _key, point in claimed]
        except (ConfigError, KeyError, ValueError) as exc:
            for key in keys:
                self.store.fail(key, "unexpandable point: {!r}"
                                .format(exc), code_fingerprint())
            return
        future = loop.run_in_executor(
            None, lambda: self.engine.run_batch(requests, strict=False))
        # Renew the leases while the batch runs so a slow grid is not
        # stolen by another live worker mid-simulation.
        renew_every = max(self.lease_s / 3.0, 0.5)
        while True:
            done, _pending = await asyncio.wait([future],
                                                timeout=renew_every)
            if done:
                break
            self.store.renew(keys, self.owner, self.lease_s)
        try:
            results = future.result()
        except Exception as exc:
            # strict=False should keep this unreachable; belt-and-braces
            # so one poisoned batch cannot wedge its rows as claimed.
            for key in keys:
                self.store.fail(key, repr(exc), code_fingerprint())
            self.store.record_event("service", "batch_error",
                                    error=repr(exc), rows=len(keys))
            return
        for (key, _point), request, result in zip(claimed, requests,
                                                  results):
            if is_failure(result):
                self.store.fail(key, result.error, code_fingerprint())
            else:
                self.store.complete(
                    key, result,
                    code_fingerprint=code_fingerprint(),
                    config_fingerprint=cache_key(request.normalized()))

    # -- client protocol ---------------------------------------------------

    async def _handle_client(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line.decode("utf-8"))
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except (ValueError, UnicodeDecodeError) as exc:
                    await self._send(writer, {"ok": False,
                                              "error": repr(exc)})
                    continue
                op = request.get("op")
                if op == "watch":
                    keep_going = await self._op_watch(writer, request)
                else:
                    response = self._dispatch(op, request)
                    await self._send(writer, response)
                    keep_going = op != "shutdown"
                if not keep_going:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, writer, payload):
        writer.write(json.dumps(payload, default=str).encode("utf-8")
                     + b"\n")
        await writer.drain()

    def _dispatch(self, op, request):
        try:
            if op == "ping":
                return {"ok": True, "owner": self.owner,
                        "store": self.store.path, "t": time.time()}
            if op == "submit":
                job_id, new_rows = self.store.submit(
                    request.get("spec"), client=request.get("client"))
                self._wake.set()
                return {"ok": True, "job_id": job_id,
                        "new_rows": new_rows}
            if op == "status":
                job_id = request.get("job_id")
                counts = self.store.job_status(job_id)
                counts["ok"] = True
                counts["finished_all"] = (
                    counts["finished"] == counts["total"])
                return counts
            if op == "counts":
                counts = self.store.counts()
                counts["ok"] = True
                return counts
            if op == "fetch":
                return self._op_fetch(request)
            if op == "events":
                return {"ok": True, "events": self.store.events_tail(
                    int(request.get("count", 20)))}
            if op == "shutdown":
                self._stopping.set()
                self._wake.set()
                return {"ok": True, "stopping": True}
            return {"ok": False,
                    "error": "unknown op {!r}".format(op)}
        except (ConfigError, KeyError) as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # daemon must not die on one request
            return {"ok": False, "error": repr(exc)}

    def _op_fetch(self, request):
        job_id = request.get("job_id")
        spec = self.store.job_spec(job_id)
        extractors = [(name, METRICS[name]) for name in spec["metrics"]]
        rows = []
        for position, point, status, result, error in \
                self.store.job_results(job_id):
            row = {"position": position, "point": point,
                   "status": status, "error": error, "metrics": None,
                   "result": None}
            if result is not None and not is_failure(result):
                row["metrics"] = {name: extract(result)
                                  for name, extract in extractors}
                row["result"] = export.result_to_dict(
                    result, include_stats=bool(
                        request.get("include_stats")))
            rows.append(row)
        return {"ok": True, "job_id": job_id, "spec": spec,
                "rows": rows}

    async def _op_watch(self, writer, request):
        """Stream status snapshots until the job finishes."""
        job_id = request.get("job_id")
        interval = max(0.05, float(request.get("interval", 0.2)))
        while True:
            try:
                counts = self.store.job_status(job_id)
            except KeyError as exc:
                await self._send(writer, {"ok": False,
                                          "error": str(exc)})
                return True
            counts["ok"] = True
            counts["finished_all"] = (
                counts["finished"] == counts["total"])
            await self._send(writer, counts)
            if counts["finished_all"]:
                return True
            await asyncio.sleep(interval)


class ServiceClient:
    """Blocking line-protocol client (the CLI's and tests' view)."""

    def __init__(self, host="127.0.0.1", port=None, timeout=30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None
        self._file = None

    @classmethod
    def from_announce(cls, path, timeout=30.0):
        with open(path) as fileobj:
            info = json.load(fileobj)
        return cls(info["host"], info["port"], timeout)

    def _connect(self):
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._file = self._sock.makefile("rwb")
        return self._file

    def close(self):
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    def _read_line(self):
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line.decode("utf-8"))

    def request(self, payload):
        stream = self._connect()
        stream.write(json.dumps(payload).encode("utf-8") + b"\n")
        stream.flush()
        return self._read_line()

    def _checked(self, payload):
        response = self.request(payload)
        if not response.get("ok"):
            raise RuntimeError("service error: {}".format(
                response.get("error", "unknown")))
        return response

    def ping(self):
        return self._checked({"op": "ping"})

    def submit(self, spec, client=None):
        return self._checked({"op": "submit", "spec": spec,
                              "client": client})["job_id"]

    def status(self, job_id):
        return self._checked({"op": "status", "job_id": job_id})

    def counts(self):
        return self._checked({"op": "counts"})

    def fetch(self, job_id, include_stats=False):
        return self._checked({"op": "fetch", "job_id": job_id,
                              "include_stats": include_stats})

    def events(self, count=20):
        return self._checked({"op": "events", "count": count})["events"]

    def shutdown(self):
        return self._checked({"op": "shutdown"})

    def wait(self, job_id, timeout=300.0, interval=0.2):
        """Stream ``watch`` updates until the job finishes; returns the
        final status counts."""
        stream = self._connect()
        stream.write(json.dumps(
            {"op": "watch", "job_id": job_id,
             "interval": interval}).encode("utf-8") + b"\n")
        stream.flush()
        deadline = time.monotonic() + timeout
        self._sock.settimeout(max(1.0, interval * 10))
        try:
            while True:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "job {} did not finish within {:g}s"
                        .format(job_id, timeout))
                try:
                    counts = self._read_line()
                except socket.timeout:
                    continue
                if not counts.get("ok"):
                    raise RuntimeError("service error: {}".format(
                        counts.get("error", "unknown")))
                if counts.get("finished_all"):
                    return counts
        finally:
            self._sock.settimeout(self.timeout)


async def _serve_async(service, announce=None):
    await service.start()
    if announce:
        service.announce(announce)
    print("fusion-sim service on {}:{} (store {}, owner {})".format(
        service.host, service.port, service.store.path, service.owner),
        flush=True)
    await service.serve_forever()


def serve(store_path, host="127.0.0.1", port=0, batch_size=4,
          lease_s=DEFAULT_LEASE_S, poll_s=0.2, announce=None,
          engine=None):
    """Blocking entry point for ``fusion-sim serve``."""
    store = ExperimentStore(store_path)
    service = SweepService(store, engine=engine, host=host, port=port,
                           batch_size=batch_size, lease_s=lease_s,
                           poll_s=poll_s)
    try:
        asyncio.run(_serve_async(service, announce))
    except KeyboardInterrupt:
        pass
    finally:
        store.close()
    return 0
