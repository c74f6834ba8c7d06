"""Seeded inputs and verified ops for the three benchmark workloads.

Each workload has a set-up function that generates its inputs from a
seed and writes them to a directory, and returns the op stream: a list
of `Op`s that the timed loop runs in order, in whole passes.
An op is one pipeline a user of the paper's claims runs on one
instance; it returns its outputs after checking them and raises
`OpFailed` on any wrong exit code, verifier rejection, width that
differs from the reference, or broken lift inequality.
"""

from __future__ import annotations

import collections
import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import click

WORKLOADS = ("tw_exact", "transfer", "lift_scale")

# tw_exact: a fixed panel of duals on which the exact kernel searches,
# one at the head of each block, each block padded with seeded instances
# whose searches take at most a few tenths of a second (most of their
# ops are CLI and I/O bound).  With 6 panel duals op_tail_s, the 6th
# slowest op of a pass, is the cheapest search, 4x slower than the
# slowest seeded op.  The 240 seeded instances per pass set op_p50_s;
# its quartile spread over five seeds was 0.13 of the median with 60 of
# them.  A pass takes about 9 s on a 2-core machine.
TW_PANEL = ((11, 5), (12, 1))   # (triangulation size, count)
TW_MAPS, TW_GNPS, TW_DUALS = 16, 8, 16  # seeded instances per block
# radial graphs of at most 16 vertices keep each map's exact search
# under 0.1 s (treewidth_exact itself accepts up to 20)
TW_RADIAL_LIMIT = 16
# transfer: every nation grid size, interleaved with seeded
# triangulations of fixed sizes
TRANSFER_SIZES = range(12, 32)
TRANSFER_TRIANGULATIONS = (50, 80, 110, 140, 170, 200)
# lift_scale: cycles of one seeded random map per nation count and one
# seeded partially triangulated grid per side, fresh instances per cycle.
# Two cycles make a pass of about 12 s on a 2-core machine, and average
# the cost of two random structures per size.
LIFT_CYCLES = 2
LIFT_NATIONS = (50, 100, 150, 200, 250, 300)
LIFT_GRID_SIDES = (8, 10, 12, 14, 16, 18, 20)


def balanced(items):
    """`items` in bit-reversed index order, so that every prefix of the
    result spans the whole range of sizes."""
    bits = max(1, (len(items) - 1).bit_length())
    return [items[i] for i in sorted(
        range(len(items)), key=lambda i: format(i, f"0{bits}b")[::-1])]


def interleave(*streams):
    return [op for ops in itertools.zip_longest(*streams)
            for op in ops if op is not None]


class OpFailed(Exception):
    """An op's output failed a check."""


class Op:
    __slots__ = ("kind", "key", "run", "inst")

    def __init__(self, kind, key, run, inst):
        self.kind = kind
        self.key = key      # stable instance id, used by the reference
        self.run = run      # run(bench, inst, tamper) -> outputs dict
        self.inst = inst


class Bench:
    """What an op may touch: the gridlab modules, the tracer, the input
    directory, and the reference outputs to compare against."""

    def __init__(self, gl, tracer, workdir):
        self.gl = gl
        self.tracer = tracer
        self.workdir = workdir
        self.reference = {}
        self.outputs_changed = set()
        # one pair of capture streams for every call: click caches a
        # wrapper per stream that keeps the stream alive, so a fresh
        # pair per call would pile up for the whole run
        self._out, self._err = io.StringIO(), io.StringIO()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def cli(self, args, reads=(), writes=()):
        """Run `gridlab <args>` in-process and return its stdout; a
        non-zero exit raises OpFailed."""
        out, err = self._out, self._err
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        code = 0
        with self.tracer.cli_call(args[0], reads, writes):
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    self.gl.cli.main(args, prog_name="gridlab",
                                     standalone_mode=False)
                except SystemExit as exc:
                    code = exc.code
                except click.ClickException as exc:
                    code = exc.exit_code
        if code != 0:
            self.tracer.count("cli.exit_nonzero")
            raise OpFailed(f"gridlab {' '.join(args)}: exit {code}: "
                           f"{err.getvalue().strip()}")
        return out.getvalue()

    def compare(self, key, outputs, exact, hashed):
        """Check outputs against the reference for this instance.

        Keys in `exact` must match; keys in `hashed` are .td digests,
        which may legitimately change (optimal orders are not unique)
        and are only reported as outputs_changed.
        """
        ref = self.reference.get(key)
        if ref is None:
            return
        for name in exact:
            if outputs[name] != ref[name]:
                raise OpFailed(f"{key}: {name} = {outputs[name]}, "
                               f"reference {ref[name]}")
        if any(outputs[name] != ref[name] for name in hashed):
            self.outputs_changed.add(key)


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    with open(path, "rb") as f:
        return sha256(f.read())


def _last_int(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return int(line.split()[-1])
    raise OpFailed(f"no {prefix!r} line in {text!r}")


def _tamper_td(path):
    """Repeat a tree edge: a .td the verifier must reject."""
    with open(path) as f:
        lines = f.read().splitlines()
    edge = next(ln for ln in lines if ln[0].isdigit())
    with open(path, "w") as f:
        f.write("\n".join(lines + [edge]) + "\n")


def _tamper_model(path):
    """Add a host vertex with no edge into branch set 0, which makes the
    set disconnected: a model the verifier must reject."""
    with open(path) as f:
        obj = json.load(f)
    branch = obj["branch_sets"]["0"]
    near = set(branch)
    for u, v in obj["host"]["edges"]:
        if u in branch or v in branch:
            near |= {u, v}
    branch.append(min(set(range(obj["host"]["n"])) - near))
    with open(path, "w") as f:
        json.dump(obj, f)


# ---------------------------------------------------------------------------
# independent helpers (the benchmark's own, so that inputs and reference
# bounds do not move when gridlab's algorithms change)

def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def root_gap(n, edges):
    """True when greedy min-fill width exceeds the degeneracy, i.e. an
    exact branch and bound seeded with these two bounds must search."""
    adj = _adjacency(n, edges)
    alive = set(range(n))
    degen = 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        degen = max(degen, len(adj[v] & alive))
        alive.discard(v)
    adj = _adjacency(n, edges)
    alive = set(range(n))
    width = 0
    while alive:
        def fill(v):
            nb = adj[v] & alive
            return sum(len(nb - adj[u] - {u}) for u in nb) // 2
        v = min(alive, key=lambda u: (fill(u), u))
        nb = adj[v] & alive
        width = max(width, len(nb))
        for u in nb:
            adj[u] |= nb - {u}
        alive.discard(v)
    return width > degen


def power_max_degree(n, edges, k):
    adj = _adjacency(n, edges)
    best = 0
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        for d in range(k):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d + 1
                        nxt.append(w)
            frontier = nxt
        best = max(best, len(dist) - 1)
    return best


def emb_max_degree(e):
    return max(collections.Counter(e.vertex_of).values(), default=0)


# ---------------------------------------------------------------------------
# tw_exact: desk-scale claims through the CLI

def _radial_op(b, inst, tamper=False):
    p = inst["prefix"]
    emb, r_gr, m_gr = p + ".emb", p + ".r.gr", p + ".m.gr"
    r_td, m_td = p + ".r.td", p + ".m.td"
    b.cli(["derive", emb, "--radial", "-o", r_gr], [emb], [r_gr])
    b.cli(["derive", emb, "--map", "-o", m_gr], [emb], [m_gr])
    tw_r = _last_int(b.cli(["tw", r_gr, "--exact", "-o", r_td],
                           [r_gr], [r_td]), "width")
    tw_m = _last_int(b.cli(["tw", m_gr, "--exact"], [m_gr]), "width")
    lifted = _last_int(b.cli(["lift", "--radial-to-map", emb, r_td,
                              "-o", m_td], [emb, r_td], [m_td]), "width")
    if tamper:
        _tamper_td(m_td)
    b.cli(["check", "--td", m_td, "--gr", m_gr], [m_td, m_gr])
    delta = max(inst["delta"], 1)
    if not tw_m + 1 <= delta * (tw_r + 1):
        raise OpFailed(f"{inst['key']}: tw_M={tw_m} breaks "
                       f"tw_M + 1 <= {delta} * (tw_R + 1), tw_R={tw_r}")
    if lifted < tw_m or inst.get("tw_m", tw_m) != tw_m:
        raise OpFailed(f"{inst['key']}: tw_M={tw_m}, lifted width "
                       f"{lifted}, expected {inst.get('tw_m')}")
    out = {"tw_r": tw_r, "tw_m": tw_m, "verdict": "ok",
           "r_td": file_sha256(r_td), "m_td": file_sha256(m_td)}
    b.compare(inst["key"], out, ("tw_r", "tw_m", "verdict"),
              ("r_td", "m_td"))
    return out


def _power_op(b, inst, tamper=False):
    p = inst["prefix"]
    g_gr, g2_gr, g_td, g2_td = (p + ".gr", p + ".2.gr", p + ".td",
                                p + ".2.td")
    if "emb" in inst:
        b.cli(["derive", inst["emb"], "--dual", "-o", g_gr], [inst["emb"]],
              [g_gr])
    tw_g = _last_int(b.cli(["tw", g_gr, "--exact", "-o", g_td],
                           [g_gr], [g_td]), "width")
    b.cli(["power", g_gr, "--k", "2", "-o", g2_gr], [g_gr], [g2_gr])
    tw_g2 = _last_int(b.cli(["tw", g2_gr, "--exact"], [g2_gr]), "width")
    lifted = _last_int(b.cli(["lift", "--power", "2", "--gr", g_gr, g_td,
                              "-o", g2_td], [g_gr, g_td], [g2_td]), "width")
    if tamper:
        _tamper_td(g2_td)
    b.cli(["check", "--td", g2_td, "--gr", g2_gr], [g2_td, g2_gr])
    delta2 = max(inst["delta2"], 1)
    if not tw_g2 + 1 <= delta2 * (tw_g + 1):
        raise OpFailed(f"{inst['key']}: tw(G^2)={tw_g2} breaks "
                       f"tw(G^2) + 1 <= {delta2} * (tw(G) + 1), "
                       f"tw(G)={tw_g}")
    if lifted < tw_g2 or inst.get("tw_g", tw_g) != tw_g:
        raise OpFailed(f"{inst['key']}: tw(G)={tw_g}, tw(G^2)={tw_g2}, "
                       f"lifted width {lifted}, expected {inst.get('tw_g')}")
    out = {"tw_g": tw_g, "tw_g2": tw_g2, "verdict": "ok",
           "g_td": file_sha256(g_td), "g2_td": file_sha256(g2_td)}
    b.compare(inst["key"], out, ("tw_g", "tw_g2", "verdict"),
              ("g_td", "g2_td"))
    return out


def setup_tw_exact(b, rng):
    gl = b.gl
    gen, emb, graph = gl.generators, gl.embedding, gl.graph

    def radial(key, e, fl, **known):
        prefix = b.path(key)
        emb.emb_dump(e, fl, prefix + ".emb")
        return Op("radial", key, _radial_op,
                  dict(key=key, prefix=prefix, delta=emb_max_degree(e),
                       **known))

    def power(key, g, **known):
        prefix = b.path(key)
        graph.gr_dump(g, prefix + ".gr")
        return Op("power", key, _power_op,
                  dict(key=key, prefix=prefix,
                       delta2=power_max_degree(g.n, g.edges, 2), **known))

    def dual(n, searching, pick):
        """Dual of a random triangulation on n vertices, drawn until its
        root bounds differ (searching) or meet."""
        while True:
            s = pick.randrange(2 ** 31)
            e = gen.random_planar_triangulation(n, s)
            d = emb.dual_graph(e, emb.all_nations(e))
            if root_gap(d.n, d.edges) == searching:
                break
        key = f"dual-{n}-{s}"
        prefix = b.path(key)
        emb.emb_dump(e, emb.all_nations(e), prefix + ".tri.emb")
        return Op("dual", key, _power_op,
                  dict(key=key, prefix=prefix, emb=prefix + ".tri.emb",
                       delta2=power_max_degree(d.n, d.edges, 2)))

    def small_map(nations):
        while True:
            s = rng.randrange(2 ** 31)
            e, fl = gen.random_canonical_map(nations, s)
            if e.num_vertices + nations <= TW_RADIAL_LIMIT:
                return radial(f"map-{nations}-{s}", e, fl)

    stream = []
    for r in (1, 2, 3):
        e, fl = gen.wheel_map(r)
        stream.append(radial(f"wheel-r{r}", e, fl, tw_m=r * r - 1))
    for rows, cols in ((4, 4), (4, 5)):
        stream.append(power(f"grid-{rows}x{cols}", gen.grid(rows, cols),
                            tw_g=min(rows, cols)))
    # the panel does not depend on the seed, so every seed runs the same
    # kernel searches in the same order
    pick = random.Random("tw_exact:panel")
    panel = [dual(n, True, pick) for n, count in TW_PANEL
             for _ in range(count)]
    pick.shuffle(panel)
    for i, searching in enumerate(panel):
        # sizes cycle with the block index; the seed draws the instances
        block = [searching]
        block += [small_map(3 + (TW_MAPS * i + j) % 6)
                  for j in range(TW_MAPS)]
        for j in range(TW_GNPS):
            n, s = 12 + (TW_GNPS * i + j) % 7, rng.randrange(2 ** 31)
            block.append(power(f"gnp-{n}-{s}", gen.random_graph(n, s, 0.3)))
        block += [dual(10 + (TW_DUALS * i + j) % 3, False, rng)
                  for j in range(TW_DUALS)]
        stream += block
    return stream


# ---------------------------------------------------------------------------
# transfer: the radial-to-dual grid transfer at 10^3-10^4 darts

def _transfer_op(b, inst, tamper=False):
    p = inst["prefix"]
    emb, seq, model = p + ".emb", p + ".seq.json", p + ".model.json"
    text = b.cli(["transfer", "--emb", emb, "--seq", seq, "-o", model],
                 [emb, seq], [model])
    if tamper:
        _tamper_model(model)
    b.cli(["check", "--model", model], [model])
    side = inst["side"]
    with open(model, "rb") as f:
        data = f.read()
    if (text.strip() != f"dual grid minor {side}x{side}"
            or len(json.loads(data)["branch_sets"]) != side * side):
        raise OpFailed(f"{inst['key']}: {text.strip()!r}, expected side "
                       f"{side}")
    out = {"side": side, "verdict": "ok", "model": sha256(data)}
    b.compare(inst["key"], out, ("side", "verdict", "model"), ())
    return out


def _double_radial_op(b, inst, tamper=False):
    gl = b.gl
    with open(inst["emb"]) as f:
        e, _ = gl.embedding.emb_loads(f.read())
    model = gl.minors.double_radial_minor(e)
    violation = gl.minors.verify_model(model)
    if violation is not None:
        raise OpFailed(f"{inst['key']}: {violation}")
    if (model.pattern.n != inst["n"]
            or len(model.pattern.edges) != inst["m"]):
        raise OpFailed(f"{inst['key']}: pattern is not the triangulation")
    out = {"verdict": "ok", "model": sha256(gl.minors.model_dumps(model))}
    b.compare(inst["key"], out, ("verdict", "model"), ())
    return out


def setup_transfer(b, rng):
    gl = b.gl
    grids = []
    for size in balanced(TRANSFER_SIZES):
        key = f"nation-grid-{size}"
        prefix = b.path(key)
        e, fl, seq = gl.minors.nation_grid_transfer_instance(size)
        gl.embedding.emb_dump(e, fl, prefix + ".emb")
        with open(prefix + ".seq.json", "w") as f:
            f.write(gl.minors.sequence_dumps(seq))
        k = 2 * (size // 2) + 1
        grids.append(Op("transfer", key, _transfer_op,
                        dict(key=key, prefix=prefix, side=k // 6 - 1)))
    tris = []
    for n in balanced(TRANSFER_TRIANGULATIONS):
        s = rng.randrange(2 ** 31)
        key = f"triangulation-{n}-{s}"
        e = gl.generators.random_planar_triangulation(n, s)
        path = b.path(key + ".emb")
        gl.embedding.emb_dump(e, None, path)
        tris.append(Op("double_radial", key, _double_radial_op,
                       dict(key=key, emb=path, n=n, m=3 * n - 6)))
    return interleave(grids, tris * 4)[:2 * len(grids)]


# ---------------------------------------------------------------------------
# lift_scale: polynomial decomposition layers at scale, library calls

def _round_trip(dec, td, n):
    """The .td text of `td`, checked to parse back to the same tree."""
    text = dec.td_dumps(td, n)
    if dec.td_loads(text) != (td, n):
        raise OpFailed(".td text does not parse back to its decomposition")
    return text


def _map_lift_op(b, inst, tamper=False):
    gl = b.gl
    emb, dec = gl.embedding, gl.decomposition
    with open(inst["emb"]) as f:
        e, fl = emb.emb_loads(f.read())
    r, _ = emb.radial_graph(e, fl)
    width, td = dec.treewidth_upper(r)
    if td.validate(r) is not None:
        raise OpFailed(f"{inst['key']}: radial decomposition invalid")
    td_m = dec.lift_radial_to_map(td, e, fl)
    violation = td_m.validate(emb.map_graph(e, fl))
    if violation is not None:
        raise OpFailed(f"{inst['key']}: lifted decomposition: {violation}")
    delta = max(inst["delta"], 1)
    if not td_m.width + 1 <= delta * (width + 1):
        raise OpFailed(f"{inst['key']}: lifted width {td_m.width} breaks "
                       f"w_M + 1 <= {delta} * (w_R + 1), w_R={width}")
    size, cover = dec.vertex_cover_dp(r, td)
    if len(cover) != size or not all(u in cover or v in cover
                                     for u, v in r.edges):
        raise OpFailed(f"{inst['key']}: vertex cover of size {size} "
                       f"is not a cover")
    text = _round_trip(dec, td_m, len(fl.nations))
    out = {"verdict": "ok", "cover": size, "m_td": sha256(text)}
    b.compare(inst["key"], out, ("verdict", "cover"), ("m_td",))
    return out


def _grid_lift_op(b, inst, tamper=False):
    gl = b.gl
    graph, dec = gl.graph, gl.decomposition
    with open(inst["gr"]) as f:
        g = graph.gr_loads(f.read())
    width, td = dec.treewidth_upper(g)
    td_k = dec.lift_power(td, g, 2)
    violation = td_k.validate(graph.power_graph(g, 2))
    if violation is not None:
        raise OpFailed(f"{inst['key']}: lifted decomposition: {violation}")
    # each bag vertex contributes its closed 2-neighbourhood
    bound = (inst["delta2"] + 1) * (width + 1)
    if not td_k.width + 1 <= bound:
        raise OpFailed(f"{inst['key']}: lifted width {td_k.width} exceeds "
                       f"(Delta(G^2) + 1) * (w + 1) = {bound}")
    out = {"verdict": "ok", "g2_td": sha256(_round_trip(dec, td_k, g.n))}
    b.compare(inst["key"], out, ("verdict",), ("g2_td",))
    return out


def setup_lift_scale(b, rng):
    gl = b.gl
    stream = []
    for _ in range(LIFT_CYCLES):
        maps, grids = [], []
        for nations in balanced(LIFT_NATIONS):
            s = rng.randrange(2 ** 31)
            key = f"map-{nations}-{s}"
            e, fl = gl.generators.random_canonical_map(nations, s)
            path = b.path(key + ".emb")
            gl.embedding.emb_dump(e, fl, path)
            maps.append(Op("map_lift", key, _map_lift_op,
                           dict(key=key, emb=path, delta=emb_max_degree(e))))
        for side in balanced(LIFT_GRID_SIDES):
            s = rng.randrange(2 ** 31)
            key = f"ptgrid-{side}-{s}"
            g = gl.generators.partially_triangulated_grid(side, side, s)
            path = b.path(key + ".gr")
            gl.graph.gr_dump(g, path)
            grids.append(Op("grid_lift", key, _grid_lift_op,
                            dict(key=key, gr=path,
                                 delta2=power_max_degree(g.n, g.edges, 2))))
        stream += interleave(maps, grids)
    return stream


SETUP = {
    "tw_exact": setup_tw_exact,
    "transfer": setup_transfer,
    "lift_scale": setup_lift_scale,
}


def make_stream(workload, bench, seed):
    """The op stream of `workload` for `seed`, inputs written to disk."""
    return SETUP[workload](bench, random.Random(f"{workload}:{seed}"))
