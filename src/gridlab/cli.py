"""Command-line front end: generation, derived graphs, treewidth,
decomposition lifting, certificate checking, and experiment sweeps.

Exit codes: 0 ok, 1 verification failure, 2 usage or parse error,
3 size refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time

from . import decomposition as dec
from . import embedding as emb
from . import graph as gr
from . import minors
from .errors import (ConstructionError, FormatError, GridlabError,
                     SizeLimitError)
from .generators import (grid, partially_triangulated_grid, random_graph,
                         random_canonical_map, random_planar_triangulation,
                         wheel_map)

EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SIZE = 3

CSV_SCHEMA = "gridlab-sweep-1"
CSV_COLUMNS = ["schema", "family", "r", "rows", "cols", "nations", "n", "k",
               "seed", "tw_M", "tw_R", "tw_D", "tw_union", "tw_G", "tw_Gk",
               "tw_dual", "delta_G", "delta_Gk", "grid_r", "verdict",
               "error", "runtime_s"]


class _UsageError(Exception):
    """An unknown, missing, malformed or unused option."""


# the first matching entry gives the exit code; any other exception is a
# bug and keeps its traceback.  An input too large for the machine's
# memory (say a .gr header claiming 10^10 vertices) is a size refusal.
EXIT_CODES = {_UsageError: EXIT_USAGE, FormatError: EXIT_USAGE,
              OSError: EXIT_USAGE, SizeLimitError: EXIT_SIZE,
              MemoryError: EXIT_SIZE, GridlabError: EXIT_VERIFY,
              ValueError: EXIT_VERIFY}

# gen family -> the options it takes; each but --seed and --seq-output
# is required
GEN_FAMILIES = {"wheel-map": ["r"], "grid": ["rows", "cols"],
                "ptgrid": ["rows", "cols", "seed"],
                "random-map": ["nations", "seed"],
                "triangulation": ["n", "seed"],
                "nation-grid": ["size", "seq-output"]}
_GEN_OPTIONAL = ("seed", "seq-output")


class _Parser(argparse.ArgumentParser):
    """A parse error is a usage error, printed by `main` like any other."""

    def error(self, message):
        raise _UsageError(message)


_PARSER = _Parser(prog="gridlab", allow_abbrev=False, description=(
    "Treewidth and grid-minor constructions for maps, powers and duals."))
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the command in `args` (default: sys.argv[1:]); an expected
    error exits with its code and one `error:` line on stderr.  The other
    two parameters do nothing; gridbench/workloads.py passes them."""
    try:
        options = vars(_PARSER.parse_args(args))
        # looked up when called, so that a wrapper patched in (as the
        # benchmark's tracer does) runs
        globals()[options.pop("command").replace("-", "_")](**options)
    except tuple(EXIT_CODES) as exc:
        # a MemoryError usually has an empty message
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        sys.exit(next(code for kind, code in EXIT_CODES.items()
                      if isinstance(exc, kind)))


def _arg(*flags, **options):
    """The arguments of one `add_argument` call, for `_command`."""
    return flags, options


def _command(*arguments):
    """Add a subcommand, with these `_arg`s, for the function decorated."""
    def add(fn):
        parser = _COMMANDS.add_parser(
            fn.__name__.replace("_", "-"), help=fn.__doc__,
            description=fn.__doc__, allow_abbrev=False)
        for flags, options in arguments:
            parser.add_argument(*flags, **options)
        return fn
    return add


def _at_least(low):
    """Option type: an integer of at least `low`."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)
    return integer


def _read(path, loads):
    """Parse the file at `path` with `loads`; failing to open, decode or
    parse it raises one FormatError that names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return loads(f.read())
    except (OSError, UnicodeDecodeError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _require_vertex_count(td_n, carrier_n):
    """Refuse a decomposition whose .td header names another vertex
    count than the graph it decomposes."""
    if td_n != carrier_n:
        raise GridlabError(f"decomposition is over {td_n} vertices, "
                           f"graph has {carrier_n}")


def _emb_map_loads(text):
    """.emb text that must carry a nation labeling."""
    e, fl = emb.emb_loads(text)
    if fl is None:
        raise FormatError("no nation labeling in file")
    return e, fl


@_command(
    _arg("family", choices=list(GEN_FAMILIES)),
    _arg("--r", type=_at_least(1), help="wheel parameter (r^2 spokes)"),
    _arg("--rows", type=_at_least(1)), _arg("--cols", type=_at_least(1)),
    _arg("--nations", type=_at_least(1)),
    _arg("--n", type=_at_least(3), help="triangulation vertex count"),
    _arg("--size", type=_at_least(1), help="nation grid side"),
    _arg("--seed", type=int, help="with ptgrid, random-map and "
         "triangulation (default 0)"),
    _arg("-o", "--output", required=True),
    _arg("--seq-output", help="with nation-grid: also write the "
         "grid-producing contraction sequence as JSON"))
def gen(family, r, rows, cols, nations, n, size, seed, output, seq_output):
    """Generate an instance and write it as .emb or .gr."""
    given = {"r": r, "rows": rows, "cols": cols, "nations": nations, "n": n,
             "size": size, "seed": seed, "seq-output": seq_output}
    missing = [f"--{p}" for p in GEN_FAMILIES[family]
               if p not in _GEN_OPTIONAL and given[p] is None]
    if missing:
        raise _UsageError(f"{family} needs {' and '.join(missing)}")
    extra = [f"--{p}" for p, value in given.items()
             if value is not None and p not in GEN_FAMILIES[family]]
    if extra:
        raise _UsageError(f"{family} takes no {' or '.join(extra)}")
    seed = 0 if seed is None else seed
    if family == "wheel-map":
        emb.emb_dump(*wheel_map(r), output)
    elif family == "grid":
        gr.gr_dump(grid(rows, cols), output)
    elif family == "ptgrid":
        gr.gr_dump(partially_triangulated_grid(rows, cols, seed), output)
    elif family == "random-map":
        emb.emb_dump(*random_canonical_map(nations, seed), output)
    elif family == "triangulation":
        e = random_planar_triangulation(n, seed)
        emb.emb_dump(e, emb.all_nations(e), output)
    else:
        e, fl, seq = minors.nation_grid_transfer_instance(size)
        emb.emb_dump(e, fl, output)
        if seq_output:
            gr._write_text(seq_output, minors.sequence_dumps(seq))
    print(f"wrote {output}")


@_command(
    _arg("input_path"),
    *(_arg(f"--{kind}", action="store_true")
      for kind in ("map", "dual", "radial", "union", "canonicalize")),
    _arg("-o", "--output", required=True))
def derive(input_path, output, **flags):
    """Derived graph of an .emb map: map/dual/radial/union as .gr,
    or the canonical form as .emb."""
    kinds = [kind for kind, on in flags.items() if on]
    if len(kinds) != 1:
        raise _UsageError("pick exactly one of --map/--dual/--radial/"
                          "--union/--canonicalize")
    kind, = kinds
    e, fl = _read(input_path, _emb_map_loads)
    if kind == "canonicalize":
        emb.emb_dump(*emb.canonicalize(e, fl), output)
    else:
        if kind == "map":
            g = emb.map_graph(e, fl)
        elif kind == "dual":
            g = emb.dual_graph(e, fl)
        elif kind == "radial":
            g, _ = emb.radial_graph(e, fl)
        else:
            g = emb.union_radial_dual(e, fl)
        gr.gr_dump(g, output)
    print(f"wrote {output}")


@_command(
    _arg("input_path"),
    # one destination, so the last of the two flags wins
    _arg("--exact", action="store_true", default=True),
    _arg("--upper", action="store_false", dest="exact"),
    _arg("-o", "--output"))
def tw(input_path, exact, output):
    """Treewidth of a .gr graph; optionally write the decomposition."""
    g = _read(input_path, gr.gr_loads)
    width, td = dec.treewidth_exact(g) if exact else dec.treewidth_upper(g)
    if output:
        dec.td_dump(td, g.n, output)
    print(f"width {width}")


@_command(
    _arg("--radial-to-map", dest="emb_path",
         help=".emb map whose radial decomposition is lifted"),
    _arg("--power", dest="k", type=_at_least(1),
         help="lift a decomposition of G to one of G^k"),
    _arg("--gr", dest="gr_path", help="base graph for --power"),
    _arg("td_path"),
    _arg("-o", "--output", required=True))
def lift(emb_path, k, gr_path, td_path, output):
    """Lift a tree decomposition (radial to map, or G to G^k)."""
    if emb_path and (k or gr_path):
        raise _UsageError("--radial-to-map takes no --power or --gr")
    td, td_n = _read(td_path, dec.td_loads)
    if emb_path:
        e, fl = _read(emb_path, _emb_map_loads)
        # the radial graph has a vertex per map vertex and per nation
        _require_vertex_count(td_n, e.num_vertices + len(fl.nations))
        td2 = dec.lift_radial_to_map(td, e, fl)
        n = len(fl.nations)
    elif k:
        if not gr_path:
            raise _UsageError("--power needs --gr")
        g = _read(gr_path, gr.gr_loads)
        _require_vertex_count(td_n, g.n)
        td2 = dec.lift_power(td, g, k)
        n = g.n
    else:
        raise _UsageError("pick --radial-to-map or --power")
    dec.td_dump(td2, n, output)
    print(f"width {td2.width}")


@_command(
    _arg("--td", dest="td_path"), _arg("--gr", dest="gr_path"),
    _arg("--model", dest="model_path"))
def check(td_path, gr_path, model_path):
    """Verify a decomposition against a graph, or a minor model (with
    --gr: a minor model of that graph)."""
    if model_path and td_path:
        raise _UsageError("--model takes no --td")
    if model_path:
        model = _read(model_path, minors.model_loads)
        if gr_path and model.host != _read(gr_path, gr.gr_loads):
            raise GridlabError(f"{model_path}: the model's host is not "
                               f"the graph in {gr_path}")
        violation = minors.verify_model(model)
    elif td_path and gr_path:
        g = _read(gr_path, gr.gr_loads)
        td, td_n = _read(td_path, dec.td_loads)
        _require_vertex_count(td_n, g.n)
        violation = td.validate(g)
    else:
        raise _UsageError("pass --model, or both --td and --gr")
    if violation is not None:
        raise GridlabError(str(violation))
    print("ok")


@_command(
    _arg("input_path"),
    _arg("--k", type=_at_least(1), required=True),
    _arg("-o", "--output"),
    _arg("--witness-r", type=_at_least(1),
         help="run the clique-or-degree-bound case analysis for r"))
def power(input_path, k, output, witness_r):
    """k-th power of a .gr graph; optional clique/bound case analysis."""
    g = _read(input_path, gr.gr_loads)
    gk = gr.power_graph(g, k)
    if output:
        gr.gr_dump(gk, output)
    print(f"power graph: n={gk.n} m={len(gk.edges)} "
          f"max_degree={gk.max_degree()}")
    if witness_r is not None:
        result = gr.power_clique_or_bound(g, k, witness_r)
        if isinstance(result, gr.CliqueWitness):
            bad = result.verify(g)
            if bad is not None:
                raise GridlabError(f"witness pair {bad} too far apart")
            print(f"clique witness of size {len(result.vertices)}")
        else:
            bad = result.verify(g)
            if bad is not None:
                raise GridlabError(
                    f"degree bound fails: vertex {bad} has "
                    f"{gk.degree(bad)} >= {result.degree_bound} "
                    f"neighbors in G^k")
            print(f"degree bound: max_degree(G^k) = "
                  f"{gk.max_degree()} < {result.degree_bound} "
                  f"({result.parity} case)")


@_command(_arg("input_path"), _arg("-o", "--output"))
def grid_minor(input_path, output):
    """Largest r x r grid minor of a .gr graph (desk scale)."""
    r, model = minors.largest_grid_minor(_read(input_path, gr.gr_loads))
    if output:
        gr._write_text(output, minors.model_dumps(model))
    print(f"grid minor {r}x{r}")


@_command(
    _arg("--emb", dest="emb_path", required=True),
    _arg("--seq", dest="seq_path", required=True), _arg("-o", "--output"))
def transfer(emb_path, seq_path, output):
    """Convert a grid minor of the radial-dual union into a grid minor
    of the dual."""
    e, fl = _read(emb_path, _emb_map_loads)
    seq = _read(seq_path, minors.sequence_loads)
    try:
        model = minors.radial_grid_to_dual_grid(seq, e, fl)
    except ConstructionError as exc:
        raise ConstructionError(f"{seq_path} on {emb_path}: {exc}") from exc
    if output:
        gr._write_text(output, minors.model_dumps(model))
    side = math.isqrt(len(model.branch_sets))
    print(f"dual grid minor {side}x{side}")


# sweep: each row function returns its measured columns and its verdict,
# and `sweep` fills in the identity columns and the blanks

def _wheel_row(r, seed):
    e, fl = wheel_map(r)
    m = emb.map_graph(e, fl)
    d = emb.dual_graph(e, fl)
    tw_m, _ = dec.treewidth_exact(m)
    tw_d, _ = dec.treewidth_exact(d)
    gr_r, _ = minors.largest_grid_minor(m)
    return {"tw_M": tw_m, "tw_D": tw_d, "grid_r": gr_r,
            "verdict": "ok" if tw_m == r * r - 1 and gr_r == r
            else "fail"}


def _map_row(nations, seed):
    e, fl = random_canonical_map(nations, seed)
    r_graph, _ = emb.radial_graph(e, fl)
    m = emb.map_graph(e, fl)
    tw_r, td_r = dec.treewidth_exact(r_graph)
    tw_m, _ = dec.treewidth_exact(m)
    delta = e.max_degree()
    # the lift raises ConstructionError unless its result is valid
    dec.lift_radial_to_map(td_r, e, fl)
    return {"tw_M": tw_m, "tw_R": tw_r, "delta_G": delta,
            "verdict": "ok" if tw_m + 1 <= delta * (tw_r + 1) else "fail"}


def _power_row(n, seed, k):
    g = random_graph(n, seed)
    gk = gr.power_graph(g, k)
    tw_g, td_g = dec.treewidth_exact(g)
    tw_gk, _ = dec.treewidth_exact(gk)
    # the lift raises ConstructionError unless its result is valid
    dec.lift_power(td_g, g, k)
    return {"tw_G": tw_g, "tw_Gk": tw_gk, "delta_G": g.max_degree(),
            "delta_Gk": gk.max_degree(),
            "verdict": "ok" if tw_gk + 1 <= gk.max_degree() * (tw_g + 1)
            else "fail"}


def _primal_dual_row(n, seed):
    e = random_planar_triangulation(n, seed)
    report = minors.primal_dual_width_report(e)
    return {"tw_G": report["tw_primal"], "tw_dual": report["tw_dual"],
            "verdict": "ok" if abs(report["tw_primal"]
                                   - report["tw_dual"]) <= 1 else "fail"}


_SWEEP_FAMILIES = {
    "wheel": (_wheel_row, "r"),
    "map": (_map_row, "nations"),
    "power": (_power_row, "n"),
    "primal-dual": (_primal_dual_row, "n"),
}


@_command(
    _arg("--family", required=True, choices=sorted(_SWEEP_FAMILIES)),
    _arg("--values", default="",
         help="comma-separated main parameter values (r, nations, n)"),
    _arg("--seeds", default="0", help="comma-separated seeds (default 0)"),
    _arg("--k", type=_at_least(1),
         help="power exponent (family power only; default 2)"),
    _arg("-o", "--output", required=True))
def sweep(family, values, seeds, k, output):
    """Run a parameter sweep and write one CSV row per instance, in
    increasing value and, within a value, increasing seed."""
    if family != "power" and k is not None:
        raise _UsageError(f"{family} takes no --k")
    try:
        value_list = sorted(int(x) for x in values.split(",") if x.strip())
        seed_list = sorted(int(x) for x in seeds.split(",") if x.strip())
    except ValueError:
        raise _UsageError("--values/--seeds must be integers")
    row_fn, key = _SWEEP_FAMILIES[family]
    params = {"k": 2 if k is None else k} if family == "power" else {}

    def run(v, s):
        row = dict.fromkeys(CSV_COLUMNS, "") | params | {
            "schema": CSV_SCHEMA, "family": family, key: v, "seed": s}
        started = time.monotonic()
        try:
            row |= row_fn(v, s, **params)
        except tuple(EXIT_CODES) as exc:  # expected failures end one row
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["runtime_s"] = f"{time.monotonic() - started:.3f}"
        return row

    rows = [run(v, s) for v in value_list for s in seed_list]
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    gr._write_text(output, buf.getvalue())
    bad = [row for row in rows if row["verdict"] == "fail" or row["error"]]
    print(f"{len(rows)} rows, {len(bad)} problem(s)")
    if bad:
        sys.exit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
