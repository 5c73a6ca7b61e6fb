"""Compiled symbolic evaluation and the kernel-summary memo.

``sym_eval`` compiles each expression once into a Python function; the
recursive tree walker it replaced is kept here as the oracle, and the
compiled result must match it exactly: same value, same type, same
sign for zeros and infinities, same exception.
"""

import copy
import math
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import absint, run_deep_suite
from repro.analysis.absint import (
    _NUM_OPS,
    Const,
    SBin,
    SMax,
    SMin,
    Sym,
    SymExpr,
    kernel_summaries,
    static_footprint,
    sym_eval,
)
from repro.dwarfs import registry
from repro.ocl.clsource import CLSourceError
from repro.telemetry import default_registry, tracing


def oracle_eval(expr: SymExpr, env: dict[str, float]) -> float:
    """The recursive tree walker ``sym_eval`` used to be."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        if expr.name not in env:
            raise CLSourceError(
                f"unbound symbol {expr.name!r} while evaluating a static "
                f"footprint (missing scalar in the launch model?)"
            )
        return env[expr.name]
    if isinstance(expr, SBin):
        return _NUM_OPS[expr.op](oracle_eval(expr.lhs, env),
                                 oracle_eval(expr.rhs, env))
    if isinstance(expr, SMin):
        return min(oracle_eval(a, env) for a in expr.args)
    if isinstance(expr, SMax):
        return max(oracle_eval(a, env) for a in expr.args)
    raise TypeError(f"unknown symbolic node {type(expr).__name__}")


def outcome(fn, expr, env):
    """``(type, repr)`` of the result or of the exception raised.

    ``repr`` tells ``0.0`` from ``-0.0``, ``inf`` from ``-inf`` and an
    ``int`` from an equal ``float``.
    """
    try:
        value = fn(expr, env)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return type(value), repr(value)


def _paths(spans) -> list[str]:
    """Sorted root-to-leaf name paths of a finished span set."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for span in spans:
        names = [span.name]
        parent = span.parent_id
        while parent in by_id:
            names.append(by_id[parent].name)
            parent = by_id[parent].parent_id
        out.append(";".join(reversed(names)))
    return sorted(out)


NAMES = ("a", "b", "n", "__gs0")

SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.5, -2.5])
NUMBERS = st.one_of(st.integers(-40, 40), SPECIAL_FLOATS,
                    st.floats(-1e6, 1e6, allow_nan=False))
LEAVES = st.one_of(NUMBERS.map(Const), st.sampled_from(NAMES).map(Sym))
# shift amounts stay small: 2 ** (a large int) never finishes
SHIFTS = st.one_of(st.integers(-3, 12), SPECIAL_FLOATS).map(Const)
ARITH = sorted(op for op in _NUM_OPS if op not in ("<<", ">>"))


def _extend(children):
    return st.one_of(
        st.builds(SBin, st.sampled_from(ARITH), children, children),
        st.builds(SBin, st.sampled_from(["<<", ">>"]), children, SHIFTS),
        st.lists(children, max_size=4).map(  # empty: the same ValueError
            lambda args: SMin(tuple(args))),
        st.lists(children, min_size=1, max_size=4).map(
            lambda args: SMax(tuple(args))),
        # one object used twice: the compiler evaluates it once
        st.tuples(st.sampled_from(ARITH), children).map(
            lambda pair: SBin(pair[0], pair[1], pair[1])),
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=12)
ENVS = st.dictionaries(st.sampled_from(NAMES), NUMBERS)


class TestCompiledMatchesTreeWalker:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(expr=TREES, env=ENVS)
    def test_same_value_type_and_exception(self, expr, env):
        expected = outcome(oracle_eval, expr, env)
        assert outcome(sym_eval, expr, env) == expected
        # the second call runs the cached function
        assert outcome(sym_eval, expr, env) == expected

    def test_every_operator_is_covered(self):
        assert {*ARITH, "<<", ">>"} == set(_NUM_OPS)

    def test_int_constants_stay_int(self):
        expr = SBin("*", Const(3), SBin("/", Sym("n"), Const(2)))
        assert type(sym_eval(expr, {"n": 7})) is int
        assert sym_eval(expr, {"n": 7}) == 9
        assert sym_eval(expr, {"n": -7}) == -9  # C truncation

    def test_zero_times_inf_is_zero(self):
        assert sym_eval(SBin("*", Const(0), Sym("x")), {"x": math.inf}) == 0

    def test_unbound_symbol_message(self):
        # both a and b are missing: the walk meets a first
        expr = SBin("+", Sym("a"), SBin("*", Sym("b"), Const(2)))
        for fn in (oracle_eval, sym_eval):
            try:
                fn(expr, {})
            except CLSourceError as exc:
                assert str(exc) == (
                    "unbound symbol 'a' while evaluating a static footprint "
                    "(missing scalar in the launch model?)")
            else:
                raise AssertionError("no CLSourceError")

    def test_unknown_node_is_a_type_error(self):
        class Odd(SymExpr):
            pass

        assert outcome(sym_eval, Odd(), {}) == outcome(oracle_eval, Odd(), {})

    def test_names_enter_the_code_only_as_literals(self):
        name = "x'] + __import__('os').getpid() + env['x"
        assert sym_eval(Sym(name), {name: 5}) == 5


class TestCachedFunctionIsNotState:
    def test_symexpr_pickle_copy_eq_hash(self):
        expr = SMax((SBin("+", Sym("n"), Const(1)), Const(4.0)))
        twin = SMax((SBin("+", Sym("n"), Const(1)), Const(4.0)))
        assert sym_eval(expr, {"n": 9}) == 10
        assert expr == twin and hash(expr) == hash(twin)
        for clone in (pickle.loads(pickle.dumps(expr)),
                      copy.deepcopy(expr), copy.copy(expr)):
            assert clone == expr and hash(clone) == hash(expr)
            assert sym_eval(clone, {"n": 2}) == 4.0
        assert "_fn" not in pickle.loads(pickle.dumps(expr)).__dict__

    def test_kernel_summary_pickle_copy_eq(self):
        cls = registry.get_benchmark("kmeans")
        model = cls.from_size("tiny").static_launches()
        static_footprint(model)  # compiles the summaries' bounds
        _, summaries = kernel_summaries(model.source, dict(model.macros))
        for summary in summaries.values():
            for clone in (pickle.loads(pickle.dumps(summary)),
                          copy.deepcopy(summary)):
                assert clone == summary
                assert [hash(a) for a in clone.accesses] == \
                    [hash(a) for a in summary.accesses]


class TestSummaryMemo:
    def test_hit_returns_the_same_summaries(self):
        model = registry.get_benchmark("crc").from_size("tiny") \
            .static_launches()
        first = kernel_summaries(model.source, dict(model.macros))
        assert kernel_summaries(model.source, dict(model.macros)) is first

    def test_key_keeps_macro_value_types(self):
        source = "__kernel void k(__global float* a) { a[N - 1] = 0; }"
        _, ints = kernel_summaries(source, {"N": 4})
        _, floats = kernel_summaries(source, {"N": 4.0})
        hi_int = ints["k"].accesses[0].index.hi
        hi_float = floats["k"].accesses[0].index.hi
        assert type(sym_eval(hi_int, {})) is int
        assert type(sym_eval(hi_float, {})) is float

    def test_counters_and_spans(self):
        model = registry.get_benchmark("fft").from_size("tiny") \
            .static_launches()
        absint.clear_summaries()
        registry_ = default_registry()
        registry_.reset()
        with tracing() as tracer:
            kernel_summaries(model.source, dict(model.macros))
            kernel_summaries(model.source, dict(model.macros))
        spans = [s for s in tracer.finished if s.name == "absint_summaries"]
        assert [s.attributes["hit"] for s in spans] == [False, True]
        assert {s.attributes["phase"] for s in spans} == {"absint"}
        assert {"parse_s", "interpret_s"} <= set(spans[0].attributes)
        assert "interpret_s" not in spans[1].attributes
        # the miss's interpretation is muted: no child spans
        assert not [s for s in tracer.finished
                    if s.name == "absint_interpret"]
        hits = registry_.counter("harness_memo_hits_total")
        misses = registry_.counter("harness_memo_misses_total")
        assert misses.value(memo="summaries") == 1
        assert hits.value(memo="summaries") == 1

    def test_memo_is_bounded(self):
        absint.clear_summaries()
        for n in range(absint._SUMMARIES_MAX + 5):
            kernel_summaries("__kernel void k(__global int* a) { a[0] = 0; }",
                             {"N": n})
        assert len(absint._summaries) == absint._SUMMARIES_MAX

    def test_topology_does_not_depend_on_memo_state(self):
        names = ["crc", "csr"]
        run_deep_suite(benchmarks=names, traces=True, aiwc=True)
        with tracing() as warm:
            warm_json = run_deep_suite(benchmarks=names, traces=True,
                                       aiwc=True).to_json()
        absint.clear_summaries()
        with tracing() as cold:
            cold_json = run_deep_suite(benchmarks=names, traces=True,
                                       aiwc=True).to_json()
        assert _paths(cold.finished) == _paths(warm.finished)
        assert cold_json == warm_json
        hits = {s.attributes["hit"] for s in cold.finished
                if s.name == "absint_summaries"}
        assert hits == {False, True}
