"""Building blocks of the saSTA benchmark: seeded inputs, process and socket
drivers, and the statistics the metrics are computed with.

run.py composes these into workloads; test_harness.py tests them.
"""

import json
import math
import os
import random
import re
import socket
import subprocess
import time

THREADS = 4

# ---- statistics --------------------------------------------------------------


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile, or None unless at least `min_beyond`
    samples lie above it (a tail percentile needs a tail to stand on)."""
    s = sorted(values)
    if not s:
        return None
    rank = max(1, math.ceil(q * len(s)))
    if len(s) - rank < min_beyond:
        return None
    return s[rank - 1]


# ---- seeded inputs -----------------------------------------------------------

GATES = ["NAND", "NOR", "AND", "OR"]
SWAP_CELLS = ["NAND2", "NOR2", "AND2", "OR2"]


# Column shapes come from this fixed seed, so every workload seed assembles
# its design from the same multiset of columns: the total work of a warm or
# retarget request stays the same across seeds while the arrangement, the
# cross-column links and the edited gates change.
SHAPE_SEED = 2011


def make_column(rng, inputs, levels, width):
    """One column shape: rows (level, position, gate, input refs); a ref is
    ("i", j) for the column's j-th input or ("g", level, position)."""
    rows = []
    prev, older = [("i", j) for j in range(inputs)], []
    for lvl in range(1, levels + 1):
        for w in range(width):
            pool = prev + (older if rng.random() < 0.3 else [])
            ins = rng.sample(pool, min(2 if rng.random() < 0.75 else 3, len(pool)))
            rows.append((lvl, w, rng.choice(GATES), ins))
        older, prev = prev, [("g", lvl, w) for w in range(width)]
    return rows


def make_design(seed, columns=10, inputs_per_column=4, levels=7, width=4, shapes=16, cross_level=3):
    """ISCAS-like .bench text built from `columns` slices.

    Each slice is one of `shapes` fixed column shapes, each used equally
    often, in a seeded order.  Gates draw their inputs from the previous one
    or two levels of their own slice; only at `cross_level` does a slice
    take one input from a seeded gate of its left neighbour.  An edit's
    fan-out cone therefore stays within one or two slices, so an ECO
    dirties a minority of the sources."""
    base = random.Random(SHAPE_SEED)
    shape_rows = [make_column(base, inputs_per_column, levels, width) for _ in range(shapes)]
    rng = random.Random(seed)
    order = [c % shapes for c in range(columns)]
    rng.shuffle(order)
    inputs, gates, used = [], [], set()
    for c, s in enumerate(order):
        inputs += [f"INPUT(c{c}i{j})" for j in range(inputs_per_column)]
        for lvl, w, gate, refs in shape_rows[s]:
            ins = [f"c{c}i{r[1]}" if r[0] == "i" else f"c{c}l{r[1]}g{r[2]}" for r in refs]
            if lvl == cross_level and c > 0 and w == 0:
                ins[-1] = f"c{c - 1}l{lvl - 1}g{rng.randrange(width)}"
            used.update(ins)
            gates.append(f"c{c}l{lvl}g{w} = {gate}({', '.join(ins)})")
    outputs = [f"OUTPUT({name})" for name in (g.split(" = ")[0] for g in gates) if name not in used]
    return "# perfbench serve design, seed %d\n" % seed + "\n".join(inputs + outputs + gates) + "\n"


def make_script(seed, instances, warm=250, resize=100, retarget=50, swap_pairs=50):
    """Seeded closed-loop request sequence, one request per line (the format
    perfbench_probe reads).  About 50% warm analyze, 20% resize_cell, 10%
    retarget_corner and 20% swap_gate; every swap is followed by the swap
    that reverts it, so the logic returns to its starting state.

    `instances` is [(name, cell, inputs)] of the mapped design."""
    rng = random.Random(seed * 7919 + 17)
    names = [n for n, _, _ in instances]
    swappable = [(n, c) for n, c, _ in instances if c in SWAP_CELLS]
    if not swappable:
        raise ValueError("design has no 2-input NAND/NOR/AND/OR cell to swap")
    tokens = ["warm"] * warm + ["resize"] * resize + ["retarget"] * retarget + ["swap"] * swap_pairs
    rng.shuffle(tokens)
    lines = ["cold"]
    for t in tokens:
        if t == "warm":
            lines.append("warm")
        elif t == "resize":
            lines.append("resize %s %s" % (rng.choice(names), rng.choice(["0.5", "0.75", "1.25", "1.5", "2"])))
        elif t == "retarget":
            lines.append("retarget %s" % rng.choice(["0", "25", "55", "85", "125"]))
        else:
            inst, cell = rng.choice(swappable)
            other = rng.choice([c for c in SWAP_CELLS if c != cell])
            lines += ["swap %s %s" % (inst, other), "swap %s %s" % (inst, cell)]
    lines.append("final")
    return lines


def request_class(line):
    kind = line.split()[0]
    return "retime" if kind in ("resize", "retarget") else kind


def rpc_request(line, rid):
    """The sasta-rpc-v1 request for one script line."""
    f = line.split()
    if f[0] in ("cold", "warm", "final"):
        params = {"force_cold": True} if f[0] == "final" else {}
        return {"id": rid, "method": "analyze", "params": params}
    if f[0] == "resize":
        params = {"op": "resize_cell", "instance": f[1], "scale": float(f[2])}
    elif f[0] == "retarget":
        params = {"op": "retarget_corner", "temp_c": float(f[1])}
    else:
        params = {"op": "swap_gate", "instance": f[1], "cell": f[2]}
    return {"id": rid, "method": "eco", "params": params}


# ---- processes ---------------------------------------------------------------


class Env:
    """Private directories for one benchmark checkout: nothing is written
    outside `work` (characterization cache, temp files, flight dumps,
    sockets, logs)."""

    def __init__(self, root):
        self.work = os.path.join(root, ".bench_build", "perfbench")
        self.build = os.path.join(self.work, "build")
        self.tmp = os.path.join(self.work, "tmp")
        self.charcache = os.path.join(self.work, "charcache")
        for d in (self.work, self.tmp, self.charcache):
            os.makedirs(d, exist_ok=True)
        self.sasta = os.path.join(self.build, "sasta", "tools", "sasta")
        self.probe = os.path.join(self.build, "perfbench_probe")
        self.calibrate = os.path.join(self.build, "perfbench_calibrate")
        self.env = dict(os.environ, SASTA_CACHE_DIR=self.charcache, TMPDIR=self.tmp)
        self.env.pop("SASTA_BENCH_JSON", None)

    def path(self, name):
        return os.path.join(self.tmp, name)

    def probe_run(self, *args, timeout=170):
        r = subprocess.run([self.probe, *args], cwd=self.tmp, env=self.env,
                           capture_output=True, text=True, timeout=timeout)
        if r.returncode != 0:
            raise RuntimeError("perfbench_probe %s failed (%d): %s" % (args[0], r.returncode, r.stderr[-2000:]))
        return r.stdout

    def host_seconds(self):
        """One run of the fixed calibration workload: its thread CPU seconds."""
        r = subprocess.run([self.calibrate], cwd=self.tmp, capture_output=True, text=True, timeout=60)
        if r.returncode != 0:
            raise RuntimeError("perfbench_calibrate failed (%d)" % r.returncode)
        return json.loads(r.stdout)["seconds"]


def wait_child(proc, timeout):
    """Waits for `proc` with os.wait4 and returns (exit code, peak RSS MiB);
    kills it first if it outlives `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return -9, usage.ru_maxrss / 1024.0
        time.sleep(0.002)


SUMMARY = re.compile(r"^\[saSTA\] (\d+) true .* in [\d.]+ s \((\d+) courses, (\d+) multi-vector, "
                     r"(\d+) budget drops(, TRUNCATED)?\)$", re.M)


def run_cli(env, args, timeout=150):
    """One `sasta` invocation, spawn to exit.  Returns a dict with wall_s,
    rss_mb, code, the summary counters and the worst-path listing."""
    out_path, err_path = env.path("cli.out"), env.path("cli.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([env.sasta, *args], cwd=env.tmp, env=env.env, stdout=out, stderr=err)
        code, rss = wait_child(proc, timeout)
        wall = time.perf_counter() - t0
    with open(out_path) as f:
        text = f.read()
    res = {"wall_s": wall, "rss_mb": rss, "code": code, "truncated": True}
    m = SUMMARY.search(text)
    if m:
        res.update(paths_recorded=int(m.group(1)), courses=int(m.group(2)),
                   multi_vector_courses=int(m.group(3)), truncated=bool(m.group(5)))
    listing = text.split("worst true paths:\n", 1)
    res["listing"] = listing[1].split("\n\n", 1)[0] if len(listing) == 2 else ""
    return res


class Daemon:
    """A `sasta --serve` child and one closed-loop client connection."""

    def __init__(self, env, tag="serve"):
        self.env = env
        # AF_UNIX paths are limited to ~108 bytes: the daemon binds a bare
        # name in its cwd and the client connects by the shorter of the
        # absolute and the relative path.
        name = tag + ".sock"
        self.sock_path = min(env.path(name), os.path.relpath(env.path(name)), key=len)
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.t_spawn = time.perf_counter()
        self.log = open(env.path(tag + ".log"), "w")
        self.proc = subprocess.Popen(
            [env.sasta, "--serve", "--socket", name, "--threads", str(THREADS), "-q"],
            cwd=env.tmp, env=env.env, stdout=self.log, stderr=self.log)
        self.sock = None
        deadline = time.monotonic() + 30
        while self.sock is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("daemon did not start listening")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                self.sock = s
            except OSError:
                s.close()
                time.sleep(0.002)
        self.reader = self.sock.makefile("rb")
        self.next_id = 1

    def call(self, method, params=None):
        """Sends one request and waits for its response.  Returns (parsed
        response, round-trip seconds, response bytes)."""
        return self.send({"id": self.next_id, "method": method, "params": params or {}})

    def send(self, request):
        self.next_id += 1
        data = (json.dumps(request) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(data)
        line = self.reader.readline()
        rtt = time.perf_counter() - t0
        if not line:
            raise RuntimeError("daemon closed the connection")
        return json.loads(line), rtt, len(line)

    def close(self, timeout=60):
        """Shuts the daemon down; returns (exit code, peak RSS MiB)."""
        if self.sock is not None:
            try:
                self.send({"id": 0, "method": "shutdown"})
            except (OSError, RuntimeError):
                pass
            self.reader.close()
            self.sock.close()
            self.sock = None
        code, rss = wait_child(self.proc, timeout)
        self.log.close()
        return code, rss


def parse_instances(text):
    return [(n, c, int(k)) for n, c, k in (l.split() for l in text.splitlines() if l.strip())]


def response_paths(result):
    return [[p["source"], p["sink"], p["edge"], p["stages"], p["delay_ps"]] for p in result["paths"]]
