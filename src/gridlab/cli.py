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

class _Parser(argparse.ArgumentParser):
    """A parse error is a usage error, printed by `main` like any other."""

    def error(self, message):
        raise _UsageError(message)


_PARSER = _Parser(prog="gridlab", allow_abbrev=False, description=(
    "Treewidth and grid-minor constructions for maps, powers and duals."))
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the command in `args` (default: sys.argv[1:]); an expected
    error exits with its code and one `error:` line on stderr.  A first
    argument that names a command hands the rest straight to that
    command's parser.  What names no command (nothing, `--help`, an
    unknown name) goes to the top-level parser, which only prints the
    help or raises a usage error.  The other two parameters do nothing;
    gridbench/workloads.py passes them."""
    if args is None:
        args = sys.argv[1:]
    try:
        sub = _COMMANDS.choices.get(args[0]) if args else None
        if sub is None:
            _PARSER.parse_args(args)
        name, options = args[0], vars(sub.parse_args(args[1:]))
        # looked up when called, so that a wrapper patched in (as the
        # benchmark's tracer does) runs
        globals()[name.replace("-", "_")](**options)
    except tuple(EXIT_CODES) as exc:
        # a MemoryError usually has an empty message
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        sys.exit(next(code for kind, code in EXIT_CODES.items()
                      if isinstance(exc, kind)))


def _arg(*flags, **options):
    """One `add_argument` call, for `_command`."""
    return lambda parser: parser.add_argument(*flags, **options)


def _one_of(*arguments):
    """`_arg`s of which exactly one must be given."""
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for argument in arguments:
            argument(group)
    return add


def _subcommand(subcommands, name, doc, arguments):
    """Add the subcommand `name`, with these `_arg`s, to `subcommands`."""
    parser = subcommands.add_parser(name, help=doc, description=doc,
                                    allow_abbrev=False)
    for argument in arguments:
        argument(parser)


def _command(*arguments):
    """Add a subcommand, with these `_arg`s, for the function decorated."""
    def add(fn):
        _subcommand(_COMMANDS, fn.__name__.replace("_", "-"), fn.__doc__,
                    arguments)
        return fn
    return add


def _at_least(low):
    """Option type: an integer of at least `low`."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)
    return integer


def _integers(text):
    """Option type: comma-separated integers, each once, in increasing
    order."""
    try:
        return sorted({int(x) for x in text.split(",") if x.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


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


_SIDES = (_arg("--rows", type=_at_least(1), required=True),
          _arg("--cols", type=_at_least(1), required=True))
_SEED = _arg("--seed", type=int, default=0, help="(default 0)")
# gen family -> the options it takes besides -o
GEN_FAMILIES = {
    "wheel-map": [_arg("--r", type=_at_least(1), required=True,
                       help="wheel parameter (r^2 spokes)")],
    "grid": _SIDES, "ptgrid": [*_SIDES, _SEED],
    "random-map": [_arg("--nations", type=_at_least(1), required=True),
                   _SEED],
    "triangulation": [_arg("--n", type=_at_least(3), required=True,
                           help="vertex count"), _SEED],
    "nation-grid": [_arg("--size", type=_at_least(1), required=True,
                         help="nation grid side"),
                    _arg("--seq-output", help="also write the "
                         "grid-producing contraction sequence as JSON")]}


def _gen_families(parser):
    """gen's families: a subcommand each, with its own options."""
    families = parser.add_subparsers(dest="family", required=True)
    for family, arguments in GEN_FAMILIES.items():
        _subcommand(families, family, None,
                    [*arguments, _arg("-o", "--output", required=True)])


@_command(_gen_families)
def gen(family, output, seq_output=None, **params):
    """Generate an instance and write it as .emb or .gr."""
    if family == "wheel-map":
        emb.emb_dump(*wheel_map(**params), output)
    elif family == "grid":
        gr.gr_dump(grid(**params), output)
    elif family == "ptgrid":
        gr.gr_dump(partially_triangulated_grid(**params), output)
    elif family == "random-map":
        emb.emb_dump(*random_canonical_map(**params), output)
    elif family == "triangulation":
        e = random_planar_triangulation(**params)
        emb.emb_dump(e, emb.all_nations(e), output)
    else:
        e, fl, seq = minors.nation_grid_transfer_instance(**params)
        emb.emb_dump(e, fl, output)
        if seq_output:
            gr._write_text(seq_output, minors.sequence_dumps(seq))
    print(f"wrote {output}")


@_command(
    _arg("input_path"),
    _one_of(*(_arg(f"--{kind}", dest="kind", action="store_const",
                   const=kind)
              for kind in ("map", "dual", "radial", "union", "canonicalize"))),
    _arg("-o", "--output", required=True))
def derive(input_path, kind, output):
    """Derived graph of an .emb map: map/dual/radial/union as .gr,
    or the canonical form as .emb."""
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
    _one_of(_arg("--radial-to-map", dest="emb_path",
                 help=".emb map whose radial decomposition is lifted"),
            _arg("--power", dest="k", type=_at_least(1),
                 help="lift a decomposition of G to one of G^k")),
    _arg("--gr", dest="gr_path", help="base graph for --power"),
    _arg("td_path"),
    _arg("-o", "--output", required=True))
def lift(emb_path, k, gr_path, td_path, output):
    """Lift a tree decomposition (radial to map, or G to G^k)."""
    if k is None and gr_path is not None:
        raise _UsageError("--radial-to-map takes no --gr")
    if k is not None and gr_path is None:
        raise _UsageError("--power needs --gr")
    td, td_n = _read(td_path, dec.td_loads)
    if k is None:
        e, fl = _read(emb_path, _emb_map_loads)
        # the radial graph has a vertex per map vertex and per nation
        _require_vertex_count(td_n, e.num_vertices + len(fl.nations))
        td2 = dec.lift_radial_to_map(td, e, fl)
        n = len(fl.nations)
    else:
        g = _read(gr_path, gr.gr_loads)
        _require_vertex_count(td_n, g.n)
        td2 = dec.lift_power(td, g, k)
        n = g.n
    dec.td_dump(td2, n, output)
    print(f"width {td2.width}")


@_command(
    _one_of(_arg("--td", dest="td_path"), _arg("--model", dest="model_path")),
    _arg("--gr", dest="gr_path"))
def check(td_path, model_path, gr_path):
    """Verify a decomposition against a graph, or a minor model (with
    --gr: a minor model of that graph), and print what it proved."""
    if model_path is not None:
        model = _read(model_path, minors.model_loads)
        if gr_path is not None and (
                model.host != _read(gr_path, gr.gr_loads)):
            raise GridlabError(f"{model_path}: the model's host is not "
                               f"the graph in {gr_path}")
        violation = minors.verify_model(model)
        p = model.pattern
        r = math.isqrt(p.n)
        proved = (f"{r}x{r} grid minor" if r and p == grid(r, r)
                  else f"minor with n={p.n} m={len(p.edges)}")
    elif gr_path is None:
        raise _UsageError("--td needs --gr")
    else:
        g = _read(gr_path, gr.gr_loads)
        td, td_n = _read(td_path, dec.td_loads)
        _require_vertex_count(td_n, g.n)
        violation = td.validate(g)
        proved = f"width <= {td.width}"
    if violation is not None:
        raise GridlabError(str(violation))
    print(f"ok: {proved}")


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
                    f"{len(gk.adj[bad])} >= {result.degree_bound} "
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
    _arg("--values", type=_integers, default="",
         help="comma-separated main parameter values (r, nations, n)"),
    _arg("--seeds", type=_integers, default="0",
         help="comma-separated seeds (default 0)"),
    _arg("--k", type=_at_least(1),
         help="power exponent (family power only; default 2)"),
    _arg("-o", "--output", required=True))
def sweep(family, values, seeds, k, output):
    """Run a parameter sweep and write one CSV row per instance, in
    increasing value and, within a value, increasing seed."""
    if family != "power" and k is not None:
        raise _UsageError(f"{family} takes no --k")
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

    rows = [run(v, s) for v in values for s in seeds]
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
