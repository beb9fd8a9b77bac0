"""In-process probes for the invforge benchmark (child side of run.py).

run.py starts this file in a fresh interpreter with PYTHONPATH pointing at
the checkout's src/, so the working tree is what gets measured:

    python perfbench/probe.py spans OUT -- <cli args>   # span pass
    python perfbench/probe.py counts OUT -- <cli args>  # scalar-op counting pass
    python perfbench/probe.py micro OUT SEED            # single-operation timings

`spans` and `counts` run one CLI invocation through invforge.cli.main with
wrappers installed from outside at the public boundaries listed below; the
CLI's stdout is left untouched so run.py checks it like an untraced run.
The result (spans, counters) is kept in memory and written to OUT as JSON
when the invocation ends.
"""

import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter

# Span kinds.  A span's parent is the nearest enclosing span of the same
# kind, so each kind forms its own tree and self times partition each tree:
#   STAGE  algorithmic steps; their self times add up to the invocation.
#   OP     hot operators called from inside stages (matrix and polynomial
#          products, elimination); they do not take time away from the
#          stage that calls them.
#   COUNT  calls are counted, no span is recorded (called too often to be
#          worth a span, or only the count is reported).
STAGE, OP, COUNT = "stage", "op", "count"

# (metric prefix, module, class or None, attribute, kind)
BOUNDARIES = [
    ("groups.close", "invforge.groups", "FiniteMatrixGroup", "close", STAGE),
    ("groups.table_group", "invforge.groups", "FiniteMatrixGroup", "table_group", STAGE),
    ("groups.outer_classes", "invforge.groups", None, "outer_classes", STAGE),
    ("groups.mult", "invforge.groups", "FiniteMatrixGroup", "mult", COUNT),
    ("tables.automorphisms", "invforge.tables", None, "automorphisms", STAGE),
    ("linalg.kernel", "invforge.linalg", None, "kernel", STAGE),
    ("linalg.commutant_basis", "invforge.linalg", None, "commutant_basis", STAGE),
    ("linalg.matmul", "invforge.linalg", "Matrix", "__mul__", OP),
    ("linalg.rref", "invforge.linalg", "Matrix", "rref", OP),
    ("poly.mul", "invforge.poly", "Polynomial", "__mul__", OP),
    ("poly.pow", "invforge.poly", "Polynomial", "__pow__", OP),
    ("poly.substitute_linear", "invforge.poly", "Polynomial", "substitute_linear", OP),
    ("invariants.invariant_space", "invforge.invariants", None, "invariant_space", STAGE),
    ("invariants.molien_series", "invforge.invariants", None, "molien_series", STAGE),
    ("invariants.minimal_generators", "invforge.invariants", None, "minimal_generators", STAGE),
    ("invariants.hilbert_dims", "invforge.invariants", None, "hilbert_dims", STAGE),
    ("invariants.find_relation", "invforge.invariants", None, "find_relation", STAGE),
    ("normalizer.normalizer_report", "invforge.normalizer", None, "normalizer_report", STAGE),
    ("normalizer.intertwiner", "invforge.normalizer", None, "intertwiner", STAGE),
    ("geometry.check_claim_51", "invforge.geometry", None, "check_claim_51", STAGE),
    ("geometry.check_parabolic_claim", "invforge.geometry", None, "check_parabolic_claim", STAGE),
    ("geometry.perm_module_irreducible", "invforge.geometry", None, "perm_module_irreducible", STAGE),
    ("geometry.rank_obstruction", "invforge.geometry", None, "rank_obstruction", STAGE),
    ("geometry.projective_fixed_points", "invforge.geometry", None, "projective_fixed_points", STAGE),
    ("cohomology.h1_classes", "invforge.cohomology", None, "h1_classes", STAGE),
    ("cohomology.square_class_forms", "invforge.cohomology", None, "square_class_forms", STAGE),
    ("corpus.verify_example", "invforge.corpus", None, "verify_example", STAGE),
]

# Counters derived from a boundary's arguments and result: (counter, function).
EXTRA_COUNTERS = {
    "linalg.rref": ("linalg.rref_cells", lambda args, out: args[0].rows * args[0].cols),
    "groups.close": ("groups.order", lambda args, out: out.order),
    "tables.automorphisms": ("tables.automorphism_count", lambda args, out: len(out)),
    "corpus.verify_example": ("corpus.assertions", lambda args, out: len(out.results)),
}

# Scalar operations counted by the separate counting pass.  Reflected
# operators (__radd__ = __add__, __rmul__ = __mul__) are aliases and are
# counted with them; subtraction counts as an additive operation.
FIELD_OPS = [
    ("fields.add", "invforge.fields", "FieldElement", "__add__", COUNT),
    ("fields.add", "invforge.fields", "FieldElement", "__sub__", COUNT),
    ("fields.add", "invforge.fields", "FieldElement", "__rsub__", COUNT),
    ("fields.mul", "invforge.fields", "FieldElement", "__mul__", COUNT),
]


class Recorder:
    """Spans as [name, start, end, parent] plus counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stacks = {STAGE: [], OP: []}

    def wrap(self, fn, name, kind):
        counts = self.counts
        calls = name + "_calls"
        extra = EXTRA_COUNTERS.get(name)
        if kind == COUNT:
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted
        spans, stack, clock = self.spans, self._stacks[kind], time.perf_counter

        def spanned(*args, **kwargs):
            counts[calls] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                counts[extra[0]] += extra[1](args, out)
            return out
        return spanned


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "invforge" or name.startswith("invforge."))]


def _references(modules):
    """Every (holder, attribute, value) that can hold a function: module
    globals and the attributes of classes defined in invforge."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            yield mod, attr, value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    yield value, cattr, cvalue


def _function_of(value):
    return value.__func__ if isinstance(value, (staticmethod, classmethod)) else value


def install(recorder, boundaries):
    """Wrap each boundary everywhere it is bound.

    `from .x import f` copies f into the importing module, so patching x.f
    alone would miss those callers.  Every module global and class attribute
    in the package that is the original function is replaced, aliases such
    as __rmul__ = __mul__ included; a second scan fails if any is left.
    """
    wrappers = {}
    for name, module, owner, attr, kind in boundaries:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner, None)
        fn = _function_of(vars(holder).get(attr)) if holder is not None else None
        if fn is None:
            continue   # gone from the code: its metrics read 0 (EXPECTED_CALLS)
        if id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, recorder.wrap(fn, name, kind))
    modules = _package_modules()
    for holder, attr, value in _references(modules):
        hit = wrappers.get(id(_function_of(value)))
        if hit is None or hit[0] is not _function_of(value):
            continue
        wrapped = hit[1]
        if isinstance(value, (staticmethod, classmethod)):
            wrapped = type(value)(wrapped)
        setattr(holder, attr, wrapped)
    left = [f"{getattr(holder, '__name__', holder)}.{attr}"
            for holder, attr, value in _references(modules)
            if any(_function_of(value) is fn for fn, _ in wrappers.values())]
    if left:
        raise RuntimeError("unwrapped references to traced functions: " + ", ".join(left))


def run_cli(mode, out_path, argv):
    import invforge.cli as cli
    recorder = Recorder()
    install(recorder, BOUNDARIES if mode == "spans" else FIELD_OPS)
    main = recorder.wrap(cli.main, "cli.main", STAGE)
    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


# ---------------------------------------------------------------------------
# single-operation timings
# ---------------------------------------------------------------------------

FP = 101
MICRO_FIELDS = {
    "rational": "rational",
    "fp": f"finite({FP})",
    "fpm": "finite(7, z^2 + 1)",
    "quad": "number_field(z^2 + z + 2)",  # the field of m7
    "cyclo20": "cyclotomic(20)",          # the field of e8
}
MICRO_REPEATS = 5
MICRO_MIN_S = 0.02


def per_call_seconds(fn, items):
    """Median over repeats of the time per item, each repeat cycling over
    `items` until it has run for at least MICRO_MIN_S."""
    clock = time.perf_counter
    samples = []
    for _ in range(MICRO_REPEATS):
        done, start = 0, clock()
        while True:
            for item in items:
                fn(item)
            done += len(items)
            elapsed = clock() - start
            if elapsed >= MICRO_MIN_S:
                break
        samples.append(elapsed / done)
    return statistics.median(samples)


# Phi_20 = z^8 - z^6 + z^4 - z^2 + 1, low degree first
PHI20 = (1, 0, -1, 0, 1, 0, -1, 0, 1)


def raw_cyclo20_mul(pair):
    """Product in Z[z]/(Phi_20) on plain int tuples: the arithmetic of a
    Q(zeta20) multiply without FieldElement or Fraction objects."""
    a, b = pair
    prod = [0] * 15
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for k in range(14, 7, -1):
        c = prod[k]
        if c:
            for i in range(8):
                prod[k - 8 + i] -= c * PHI20[i]
    return prod[:8]


def micro(seed):
    from invforge.fields import parse_field_spec
    from invforge.linalg import Matrix
    rng = random.Random(f"perfbench-micro:{seed}")
    out = {}
    specs = {kind: parse_field_spec(text) for kind, text in MICRO_FIELDS.items()}
    for kind, spec in specs.items():
        elems = []
        while len(elems) < 64:
            x = spec.random_element(rng)
            if not x.is_zero():
                elems.append(x)
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        out[f"fields.mul_ns.{kind}"] = 1e9 * per_call_seconds(lambda p: p[0] * p[1], pairs)
        out[f"fields.add_ns.{kind}"] = 1e9 * per_call_seconds(lambda p: p[0] + p[1], pairs)
        out[f"fields.inv_ns.{kind}"] = 1e9 * per_call_seconds(lambda x: x.inverse(), elems)
    ints = [(rng.randrange(1, FP), rng.randrange(1, FP)) for _ in range(64)]
    raw_fp = 1e9 * per_call_seconds(lambda q: q[0] * q[1] % FP, ints)
    out["fields.mul_overhead.fp"] = out["fields.mul_ns.fp"] / raw_fp
    cyc = specs["cyclo20"]
    tuples = [tuple(rng.randint(-10, 10) for _ in range(8)) for _ in range(65)]
    raw_cyc = 1e9 * per_call_seconds(raw_cyclo20_mul, list(zip(tuples, tuples[1:])))
    out["fields.mul_overhead.cyclo20"] = out["fields.mul_ns.cyclo20"] / raw_cyc

    def matrix(spec, n, density):
        return Matrix(spec, [[spec.random_element(rng, height=2)
                              if rng.random() < density else spec.zero()
                              for _ in range(n)] for _ in range(n)])
    mats = [matrix(cyc, 2, 1.0) for _ in range(17)]
    out["linalg.matmul_us.cyclo20_2x2"] = 1e6 * per_call_seconds(
        lambda ab: ab[0] * ab[1], list(zip(mats, mats[1:])))
    # 45 = number of degree-8 monomials in 3 variables, m7's degree-8 basis;
    # sparse small entries like its substitution matrices.
    big = matrix(specs["quad"], 45, 0.1)
    out["linalg.rref_ms.quad_45"] = 1e3 * per_call_seconds(lambda m: m.rref(), [big])
    return out


def main(argv):
    mode = argv[0] if argv else ""
    if mode in ("spans", "counts") and len(argv) >= 3 and argv[2] == "--":
        return run_cli(mode, argv[1], argv[3:])
    if mode == "micro" and len(argv) == 3:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(micro(int(argv[2])), fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
