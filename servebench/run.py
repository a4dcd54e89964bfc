#!/usr/bin/env python3
"""End-to-end benchmark of `loseq serve` over a Unix socket.

Run from the root of a loseq checkout:

    python3 servebench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

The script builds the CLI from source into .bench_build/, generates the
workload's suite and event stream from the seed (servebench/workloads.py),
and then, for --seconds seconds, starts one `loseq serve --socket` process
after another.  Each one is sent the whole stream and must answer with the
expected verdict for every property.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: how long a server takes to come
up, how fast it gets through the stream, and how much CPU time it spends
per event.  --trace 1 replays the same stream
with the flight recorder, the metrics endpoint and the profile artifact
turned on, and reports per-layer figures read back from them.

Each figure is the median over the sessions of one run.  The first
session of a run warms the page cache and is checked but not measured.

Every timing is scaled by the speed of the host at the time it was
taken.  Before the first session and after each one the script runs
servebench/calib.ml, a fixed piece of monitor-like work, three times.
A session's timings are multiplied by (CALIB_S / c) ** CALIB_EXPONENT,
where c is the time calib took around it (wall time for wall timings,
CPU time for CPU timings).  On a shared host the same code runs up to
twice as slow when other tenants are busy; the scaled figures read as
if calib took CALIB_S every time.  The unscaled medians go to standard
error.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

BUILD_DIR = ".bench_build"
WORK = os.path.join(BUILD_DIR, "servebench")
EXE = os.path.join(BUILD_DIR, "default", "bin", "loseq_cli.exe")
CALIB = os.path.join(WORK, "calib")
# One calib rep takes about this long on a quiet host (2-vCPU Intel Xeon
# KVM guest); scaled timings read as if it always did.
CALIB_S = 0.030
CALIB_REPS = 3
# When calib runs k times slower, the workloads' timings grow by about
# k ** CALIB_EXPONENT: over ten runs each on a host whose speed varied by
# up to 1.9x, the fitted exponents were 0.98 (catalog), 0.76 (fanout),
# 0.73 (racy) and 0.62 (ipu).
CALIB_EXPONENT = 0.8
MIN_SESSIONS = 5
MAX_FAILURES = 3
SESSION_TIMEOUT = 20.0
RUN_LIMIT = 120.0  # a run stops starting sessions after this many seconds
# Traced runs time one hub delivery in this many.  At 1 in 64, fanout's
# dispatch spans alone would nearly fill the recorder's 65536 records.
SAMPLE_RATE = 128


def die(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "loseq_cli.ml"))):
        die("run from the root of a loseq checkout "
            "(no dune-project or bin/loseq_cli.ml here)")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    r = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "bin/loseq_cli.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=850)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed:\n" + r.stdout[-4000:])
    # calib.ml is compiled on its own, outside the dune project, so the
    # repository's build never sees it.
    ocamlfind = shutil.which("ocamlfind")
    if ocamlfind is None:
        die("ocamlfind not found on PATH")
    os.makedirs(WORK, exist_ok=True)
    shutil.copyfile(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "calib.ml"), os.path.join(WORK, "calib.ml"))
    r = subprocess.run(
        [ocamlfind, "ocamlopt", "-package", "unix", "-linkpkg",
         "calib.ml", "-o", "calib"],
        cwd=WORK, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=120)
    if r.returncode != 0:
        die("calib build failed:\n" + r.stdout[-4000:])


# (client CPUs, server CPUs) once pin() has run on a host with two CPUs or
# more.  Left to the scheduler, the client's reader thread is often woken
# on the server's CPU, and the server then spends a third of its time
# waiting for it.
CPUS = None


def pin():
    """Keep this process on the first CPU it may use and start the server
    and calib on the last one."""
    global CPUS
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        CPUS = ({cpus[0]}, {cpus[-1]})
        os.sched_setaffinity(0, CPUS[0])


def on_server_cpu(start):
    """start(), with the calling thread moved to the server's CPU, so the
    process it forks runs there."""
    if CPUS is None:
        return start()
    os.sched_setaffinity(0, CPUS[1])
    try:
        return start()
    finally:
        os.sched_setaffinity(0, CPUS[0])


def calibrate():
    """(wall s, CPU s) of one calib rep now: the median of CALIB_REPS."""
    r = on_server_cpu(lambda: subprocess.run(
        [CALIB, str(CALIB_REPS)], capture_output=True, text=True, timeout=60))
    reps = [tuple(int(x) / 1e9 for x in line.split())
            for line in r.stdout.splitlines() if line.strip()]
    if r.returncode != 0 or len(reps) != CALIB_REPS:
        die("calib failed: " + r.stderr[-300:])
    return (statistics.median(w for w, _ in reps),
            statistics.median(c for _, c in reps))


def prepare(wl):
    """Write the suite and the wire bytes of the stream under WORK."""
    os.makedirs(WORK, exist_ok=True)
    suite = os.path.join(WORK, f"{wl.name}.suite")
    with open(suite, "w") as f:
        f.write(wl.suite)
    csv = os.path.join(WORK, f"{wl.name}.csv")
    with open(csv, "w") as f:
        f.write(workloads.to_csv(wl.arrival))
    # `loseq convert` writes LSQB only for chronological streams, so the
    # out-of-order workloads go on the wire as CSV.
    if "--ooo" in wl.serve_args:
        path = csv
    else:
        path = os.path.join(WORK, f"{wl.name}.lsqb")
        r = subprocess.run([EXE, "convert", csv, "-o", path],
                           capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            die("convert failed: " + r.stderr)
    with open(path, "rb") as f:
        return suite, f.read()


class Reader(threading.Thread):
    """Collects the server's NDJSON records with their arrival times.

    The thread only reads and stamps, so that it takes little CPU from
    the server: a block of lines is split here only when it may hold one
    of the records the session waits for.  `racy` writes about 6 MB of
    records per session; the pipe is widened to PIPE_SIZE so the server
    does not stall on a full pipe while this thread waits for the CPU."""

    MARKERS = (b"start", b"summary", b"profile", b"metrics-listening",
               workloads.SENTINEL.encode())
    PIPE_SIZE = 1 << 20

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.fd = stream.fileno()
        try:
            fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, self.PIPE_SIZE)
        except OSError:
            pass  # keep the default size
        self.blocks = []  # (perf_counter, bytes of whole lines)
        self.seen = []  # (perf_counter, record) of marked lines
        self.eof = False
        self.cond = threading.Condition()

    def run(self):
        partial = b""
        while True:
            chunk = os.read(self.fd, self.PIPE_SIZE)
            now = time.perf_counter()
            if not chunk:
                break
            block, nl, partial = (partial + chunk).rpartition(b"\n")
            if not nl:
                continue
            marked = []
            if any(m in block for m in self.MARKERS):
                marked = [(now, decode(line)) for line in block.split(b"\n")
                          if any(m in line for m in self.MARKERS)]
            with self.cond:
                self.blocks.append((now, block))
                self.seen.extend(marked)
                if marked:
                    self.cond.notify_all()
        with self.cond:
            if partial:
                self.blocks.append((time.perf_counter(), partial))
            self.eof = True
            self.cond.notify_all()

    def wait_for(self, pred, deadline):
        """Arrival time of the first record matching pred, or None."""
        with self.cond:
            while True:
                for t, rec in self.seen:
                    if pred(rec):
                        return t
                left = deadline - time.perf_counter()
                if self.eof or left <= 0:
                    return None
                self.cond.wait(left)

    def records(self):
        return [(t, decode(line)) for t, block in self.blocks
                for line in block.split(b"\n") if line.strip()]


def decode(line):
    try:
        rec = json.loads(line)
        return rec if isinstance(rec, dict) else {"type": "unparsable"}
    except ValueError:
        return {"type": "unparsable",
                "line": line[:200].decode("utf-8", "replace")}


def connect(path, proc, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            s.close()
            if reap(proc) is not None or time.perf_counter() > deadline:
                return None
            time.sleep(0.0002)


def http_get(port, path, timeout=5.0):
    """GET over a raw socket to 127.0.0.1 (no proxy lookup)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                  "Connection: close\r\n\r\n".encode())
        chunks = []
        while True:
            b = s.recv(65536)
            if not b:
                break
            chunks.append(b)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"GET {path}: {head[:80]!r}")
    return json.loads(body)


def reap(proc, until=0.0):
    """(exit code, CPU seconds) once proc has exited, polling until the
    perf_counter time `until`; None if it is still running then.  Reaps
    with wait4 so the server's own CPU time is known."""
    while True:
        if proc.returncode is not None:
            return proc.returncode, getattr(proc, "cpu_s", None)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.cpu_s = usage.ru_utime + usage.ru_stime
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, proc.cpu_s
        if time.perf_counter() > until:
            return None
        time.sleep(0.001)


def stop(proc, port, deadline):
    """End a server lingering on its metrics endpoint.  The linger loop
    can re-enter its blocking select before the SIGTERM handler has run,
    so after each signal a GET wakes the select to notice the stop."""
    while reap(proc) is None and time.perf_counter() < deadline:
        proc.send_signal(signal.SIGTERM)
        try:
            http_get(port, "/stats.json", timeout=0.5)
        except (OSError, RuntimeError, ValueError):
            pass
        reap(proc, time.perf_counter() + 0.05)


def is_type(kind):
    return lambda r: r.get("type") == kind


def sentinel_violation(r):
    return (r.get("type") == "violation"
            and r.get("property") == workloads.SENTINEL)


def run_session(wl, suite, data, traced, n):
    """One serve process, start to exit.  Returns (timings, records,
    stats_json, error)."""
    sock_path = os.path.join(WORK, "serve.sock")
    ring = os.path.join(WORK, "ring.ndjson")
    profile = os.path.join(WORK, "profile.json")
    for p in (sock_path, ring, profile):
        if os.path.exists(p):
            os.remove(p)
    args = [EXE, "serve", "--suite", suite, "--socket", sock_path]
    args += wl.serve_args
    if traced:
        args += ["--trace-out", ring, "--profile-out", profile,
                 "--metrics-addr", "127.0.0.1:0",
                 "--latency-sample-rate", str(SAMPLE_RATE)]
    err_path = os.path.join(WORK, f"serve-{n}.err")
    deadline = time.perf_counter() + SESSION_TIMEOUT
    sock = None
    stats = None
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = on_server_cpu(lambda: subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=err))
        reader = Reader(proc.stdout)
        reader.start()
        try:
            sock = connect(sock_path, proc, deadline)
            if sock is None:
                return None, reader.records(), None, "server never listened"
            t_start = reader.wait_for(is_type("start"), deadline)
            t0 = time.perf_counter()
            # A server that stops reading must not hold the run past
            # the session deadline.
            sock.settimeout(max(0.001, deadline - t0))
            try:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
            except OSError as e:
                return None, reader.records(), None, f"send failed: {e}"
            t_eos = reader.wait_for(sentinel_violation, deadline)
            t_end = reader.wait_for(is_type("summary"), deadline)
            if traced and t_end is not None:
                listening = reader.wait_for(is_type("metrics-listening"),
                                            deadline)
                if reader.wait_for(is_type("profile"), deadline) is None \
                        or listening is None:
                    return None, reader.records(), None, "no profile record"
                port = next(r["port"] for _, r in reader.seen
                            if r.get("type") == "metrics-listening")
                stats = http_get(port, "/stats.json")
                stop(proc, port, deadline)
            exited = reap(proc, max(deadline, time.perf_counter() + 1.0))
            if exited is None:
                return None, reader.records(), None, "server did not exit"
            rc, cpu = exited
        finally:
            if sock is not None:
                sock.close()
            if reap(proc) is None:
                proc.kill()
                reap(proc, time.perf_counter() + 10.0)
            reader.join(timeout=10)
    if None in (t_start, t_eos, t_end, cpu):
        with open(err_path, "rb") as f:
            tail = f.read()[-300:].decode("utf-8", "replace")
        return None, reader.records(), None, f"missing records (rc {rc}) {tail}"
    os.remove(err_path)
    timings = {"setup": t_start - t_spawn, "stream": t_end - t0,
               "finalize": t_end - t_eos, "cpu": cpu, "rc": rc}
    return timings, reader.records(), stats, None


def check(wl, timings, records, traced):
    """None when the session's output is right, else what is wrong."""
    recs = [r for _, r in records]
    errors = [r for r in recs if r.get("type") in ("error", "unparsable")]
    if errors:
        return f"error record: {errors[0]}"
    verdicts = {r["property"]: r["passed"] for r in recs
                if r.get("type") == "verdict"}
    if verdicts != wl.expected:
        wrong = sorted(k for k in set(verdicts) | set(wl.expected)
                       if verdicts.get(k) != wl.expected.get(k))
        return f"verdicts differ on {wrong[:5]}"
    want_rc = 0 if all(wl.expected.values()) else 1
    if timings["rc"] != want_rc:
        return f"exit code {timings['rc']}, expected {want_rc}"
    summary = next(r for r in recs if r.get("type") == "summary")
    if summary.get("events") != len(wl.events):
        return f"summary counts {summary.get('events')} events"
    if summary.get("dropped_late") != 0:
        return "events dropped as late"
    if "--ooo" not in wl.serve_args:
        failing = {k for k, v in wl.expected.items() if not v}
        violated = {r["property"] for r in recs if r.get("type") == "violation"}
        if violated != failing:
            return f"violations on {sorted(violated ^ failing)[:5]}"
    if traced:
        trace = [r for r in recs if r.get("type") == "trace"]
        if not trace or not os.path.isfile(os.path.join(WORK, "ring.ndjson")):
            return "no flight-recorder artifact"
    return None


def counter_total(stats, name):
    return sum(m.get("value", 0) for m in stats.get("metrics", [])
               if m.get("name") == name)


def scaled(timings, wall, cpu):
    """The session's timings with wall times multiplied by `wall` and the
    CPU time by `cpu`."""
    return dict(timings, setup=timings["setup"] * wall,
                stream=timings["stream"] * wall,
                finalize=timings["finalize"] * wall, cpu=timings["cpu"] * cpu)


def layer_figures(wl, data, timings, wall, records, stats):
    """Per-layer figures of one traced session, whose timings are already
    scaled; `wall` scales the ring's span times the same way.

    Layer times are given as shares of the admission time, not in ns, so
    a layer a workload does not use reads as a share of 0 rather than as
    a time that is the same on every run."""
    recs = [r for _, r in records]
    summary = next(r for r in recs if r.get("type") == "summary")
    trace_rec = next(r for r in recs if r.get("type") == "trace")
    n = len(wl.events)
    bytes_per_event = len(data) / n
    admit_busy = admit_bytes = 0
    admit_first = admit_last = None
    begin = {}
    dispatch_ns = 0
    rollback_ns = 0
    wheel_max = 0
    with open(os.path.join(WORK, "ring.ndjson")) as f:
        for line in f:
            r = json.loads(line)
            key = (r["track"], r["name"])
            kind = r["kind"]
            if kind == "span_begin":
                begin[key] = r["ts_ns"]
                if key == ("ingest", "admit") and admit_first is None:
                    admit_first = r["ts_ns"]
            elif kind == "span_end" and key in begin:
                dur = r["ts_ns"] - begin.pop(key)
                if key == ("ingest", "admit"):
                    admit_busy += dur
                    admit_bytes += r["arg"]
                    admit_last = r["ts_ns"]
                elif key == ("hub", "dispatch"):
                    dispatch_ns += dur
                elif key == ("ooo", "rollback_replay"):
                    rollback_ns += dur
            elif kind == "count" and key == ("hub", "wheel_depth"):
                wheel_max = max(wheel_max, r["arg"])
    busy = max(1, admit_busy)
    admit_window = (admit_last - admit_first) if admit_first is not None \
        and admit_last is not None else 0
    dispatched = counter_total(stats, "loseq_events_dispatched_total")
    late = summary.get("late", 0)
    rollbacks = summary.get("rollbacks", 0)
    return {
        "traced_events_per_s": n / timings["stream"],
        "traced_cpu_ns_per_event": timings["cpu"] * 1e9 / n,
        "traced_finalize_ms": timings["finalize"] * 1e3,
        "admit_ns_per_event": admit_busy * wall / max(1.0, admit_bytes
                                                      / bytes_per_event),
        "admit_busy_share": admit_busy / admit_window if admit_window else 0.0,
        "hub_busy_share": dispatch_ns * SAMPLE_RATE / busy,
        "deliveries_per_event": counter_total(
            stats, "loseq_hub_deliveries_total") / max(1, dispatched),
        "steps_per_event": counter_total(
            stats, "loseq_backend_steps_total") / n,
        "deadline_firings": counter_total(
            stats, "loseq_hub_deadline_firings_total"),
        "wheel_len_max": wheel_max,
        "commute_share": summary.get("commute_hits", 0) / late if late else 0.0,
        "rollbacks": rollbacks,
        "replayed_per_rollback": (summary.get("replayed", 0) / rollbacks
                                  if rollbacks else 0.0),
        "rollback_busy_share": rollback_ns / busy,
        "max_journal": summary.get("max_journal", 0),
        "ring_dropped": trace_rec.get("dropped", 0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    traced = args.trace == 1

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)["per_layer" if traced else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        die(f"cannot read the metric list from BENCHMARK.json: {e}")
    build()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    suite, data = prepare(wl)
    pin()

    attempted = failed = 0
    samples = []
    raw = []  # unscaled end-to-end figures, for standard error
    n = len(wl.events)
    before = calibrate()
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        measured = len(samples)
        if elapsed > RUN_LIMIT or failed >= MAX_FAILURES or (
                elapsed >= args.seconds and measured >= MIN_SESSIONS):
            break
        attempted += 1
        timings, records, stats, err = run_session(wl, suite, data, traced,
                                                   attempted)
        after = calibrate()
        wall = (CALIB_S / ((before[0] + after[0]) / 2)) ** CALIB_EXPONENT
        cpu = (CALIB_S / ((before[1] + after[1]) / 2)) ** CALIB_EXPONENT
        before = after
        if err is None:
            err = check(wl, timings, records, traced)
        if err is not None:
            failed += 1
            print(f"session {attempted}: {err}", file=sys.stderr)
            continue
        if attempted == 1:
            continue  # warm-up
        raw.append((n / timings["stream"], timings["cpu"] * 1e9 / n,
                    timings["setup"]))
        timings = scaled(timings, wall, cpu)
        if traced:
            samples.append(layer_figures(wl, data, timings, wall, records,
                                         stats))
        else:
            samples.append({
                "events_per_s": n / timings["stream"],
                "cpu_ns_per_event": timings["cpu"] * 1e9 / n,
                "setup_s": timings["setup"],
            })
    if not samples:
        die(f"no session succeeded ({failed} of {attempted} failed)")
    metrics = {
        m["name"]: {"value": statistics.median(s[m["name"]] for s in samples),
                    "unit": m["unit"]}
        for m in spec
    }
    eps, cpu_ns, setup = (statistics.median(col) for col in zip(*raw))
    print(f"{args.workload}: {len(samples)} measured sessions of "
          f"{n} events, {len(data)} bytes; unscaled medians: "
          f"{eps:.0f} events/s, {cpu_ns:.1f} CPU ns/event, "
          f"setup {setup * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
