"""Shadow execution: one compiled pass, two numerical universes.

The :class:`ShadowInterpreter` runs closure-lowered procedure bodies
(:mod:`repro.fortran.compile`) and carries every real value as a
**triple** SV(p, s, m):

* ``p`` — the *primary* value at its effective (possibly overlaid) kind.
  The primary side is bit-identical to a plain :class:`Interpreter` run
  under the same assignment, including every ledger charge: control
  flow, comparisons, subscripts, loop bounds and intrinsic argument
  handling are all driven by ``p`` alone, so the shadow never perturbs
  what it measures.
* ``s`` — a float64 *reference* computed from the shadow values of the
  operands: the value the whole program would have produced in double
  precision along the primary's control-flow path (RAPTOR-style).
* ``m`` — a float64 *statement-local* reference computed from the
  float64 images of the primary leaf operands, reset at variable loads
  and call boundaries.  Comparing ``p`` against ``m`` isolates the
  rounding error a single statement *introduces*; comparing ``m``
  against ``s`` isolates the error *propagated* from upstream
  (CHEF-FP's local/propagated decomposition).

Per-assignment the engine records relative error, ulp distance at the
target kind, the local/propagated split, and catastrophic-cancellation
events (a subtraction whose exact result loses ≥ ``CANCEL_BITS`` bits
against its larger operand), aggregated per variable and per statement
(``scope:line`` labels — stable across runs because they come from the
source, not from object identity).  The :class:`ShadowRecorder` counts
each observation and creates its entries at once, but only buffers the
three float64 sides (scalars in a preallocated array, arrays as
copies); the error math runs as one set of array operations per
:attr:`ShadowRecorder.BATCH` observations, and the per-observation
peaks are folded into the entries in observation order, so the
statistics are bit-identical to evaluating each observation on its
own.

The triples are a value domain of the compiled lowering.  The shadow
compiler (:class:`_ShadowCompiler`) changes two kinds of closure only:
real-valued assignments (scalar, indexed, component and WHERE-masked)
evaluate their right-hand side as triples and record one observation,
and actual-argument references carry each argument's shadow to the
call.  Conditions, subscripts, loop bounds, integer and logical
arithmetic and every other statement run the plain compiled closures.
Call binding, local elaboration, SAVE and write-back are the inherited
``Interpreter._invoke``; :meth:`ShadowInterpreter._run_body` wraps the
body in a prologue that seeds the dummies' shadows from the actuals'
shadows staged at the call site (recording the bind observations) and
an epilogue that carries SAVE shadows and delivers the write-back and
function-result shadows.  Staged actuals sit on a stack keyed by the
callee, so a user function that a specification expression calls while
the callee's locals are elaborated (through the tree evaluator, which
stages nothing) cannot take them; that function's dummies start their
references from the primaries.  Shadow closures live in their own
:class:`~repro.fortran.compile.CodeCache`, so profiling never touches
the plain backend's cache.

Shadow state lives beside the primary state: scalar shadows are stored
in the same frame/module dicts under a ``"\\x00sh"``-mangled key (no
Fortran identifier can collide, and the shadow dies with its frame);
array shadows are float64 buffers keyed by the identity of the primary
NumPy buffer, with keep-alive references so ids are never recycled.
Kind-conversion copies at call boundaries alias the original buffer's
shadow — the float64 reference run has no conversions to mirror.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

import numpy as np

from ..errors import FortranRuntimeError
from ..fortran import ast_nodes as F
from ..fortran.compile import (CodeCache, CompiledInterpreter, _ProcCompiler,
                               _array_ref, _assign_indexed, _assign_masked,
                               _assign_whole_array, _convert_like,
                               _element_ref, _raiser, _truth)
from ..fortran.instrumentation import Ledger
from ..fortran.interpreter import (_ARITH_CLASS, _CMP_OPS, Frame,
                                   Interpreter, OutBox)
from ..fortran.intrinsics import INTRINSICS
from ..fortran.symbols import KIND_DOUBLE, KIND_SINGLE, ProgramIndex
from ..fortran.values import (FArray, dtype_for_kind, element_count,
                              kind_of, promote_kinds, relative_gap,
                              ulp_distance)
from ..fortran.vectorize import ProgramVecInfo

__all__ = ["CANCEL_BITS", "SHADOW_CODE_CACHE", "ShadowInterpreter",
           "ShadowRecorder", "SV"]

#: A +/- whose exact result is smaller than its larger operand by this
#: many binary orders of magnitude counts as catastrophic cancellation.
CANCEL_BITS = 16
_CANCEL_FACTOR = 2.0 ** -CANCEL_BITS

#: Mangled dict-key suffix for scalar shadows ("\x00" cannot appear in a
#: Fortran identifier, so primary lookups can never collide).
_SH = "\x00sh"


class SV:
    """One shadow triple: primary / float64 reference / statement-exact.

    Triples are never mutated, so constant ones are shared."""

    __slots__ = ("p", "s", "m")

    def __init__(self, p: Any, s: Any, m: Any):
        self.p = p
        self.s = s
        self.m = m

    def __repr__(self) -> str:  # debugging aid only
        return f"SV(p={self.p!r}, s={self.s!r}, m={self.m!r})"


class _Stats:
    """Error aggregate for one variable or one statement."""

    __slots__ = ("observations", "elements", "max_rel", "sum_rel",
                 "last_rel", "max_ulp", "max_local", "max_prop",
                 "cancellations", "nonfinite", "kind")

    def __init__(self, kind: int):
        self.observations = 0
        self.elements = 0
        self.max_rel = 0.0
        self.sum_rel = 0.0
        self.last_rel = 0.0
        self.max_ulp = 0.0
        self.max_local = 0.0
        self.max_prop = 0.0
        self.cancellations = 0
        self.nonfinite = 0
        self.kind = kind

    def to_dict(self) -> dict[str, float]:
        mean = self.sum_rel / self.observations if self.observations else 0.0
        return {
            "observations": self.observations,
            "elements": self.elements,
            "max_rel_error": self.max_rel,
            "mean_rel_error": mean,
            "last_rel_error": self.last_rel,
            "max_ulp_error": self.max_ulp,
            "max_local_error": self.max_local,
            "max_propagated_error": self.max_prop,
            "cancellations": self.cancellations,
            "nonfinite": self.nonfinite,
            "kind": self.kind,
        }


class ShadowRecorder:
    """Accumulates per-variable / per-statement error observations.

    :meth:`observe` counts an observation and buffers its three float64
    sides; the error math runs in :meth:`_flush`, once over every
    :attr:`BATCH` buffered observations (or :attr:`BATCH_ELEMENTS`
    buffered array elements).  The dict views flush first."""

    #: Observations buffered between two passes of the error math.
    BATCH = 1024
    #: Array elements buffered between two passes (bounds the memory
    #: that large array observations hold).
    BATCH_ELEMENTS = 1 << 16

    def __init__(self) -> None:
        self.variables: dict[str, _Stats] = {}
        self.statements: dict[str, _Stats] = {}
        self.assignments = 0
        self.cancellations = 0
        self.nonfinite = 0
        self.untracked = 0
        # Pending observations.  Scalar triples fill columns of one
        # preallocated buffer; array triples are (3, n) copies.  The
        # pieces list holds both, as buffer runs and copies, in
        # observation order; the flat lists hold each observation's
        # entries, kind and element count.
        self._scalars = np.empty((3, self.BATCH))
        self._sp, self._ss, self._sm = self._scalars
        self._n_scalars = 0
        self._run_start = 0
        self._pieces: list[np.ndarray] = []
        self._array_elements = 0
        self._vars: list[Optional[_Stats]] = []
        self._stmts: list[Optional[_Stats]] = []
        self._kinds: list[int] = []
        self._lengths: list[int] = []

    # ------------------------------------------------------------------

    def _stats(self, table: dict[str, _Stats], key: Optional[str],
               kind: int) -> Optional[_Stats]:
        if key is None:
            return None
        st = table.get(key)
        if st is None:
            st = table[key] = _Stats(kind)
        return st

    def observe(self, qual: Optional[str], label: Optional[str], kind: int,
                stored: Any, shadow: Any, exact: Any) -> None:
        """One committed assignment: primary *stored* (as float64)
        against the float64 reference *shadow* and the statement-exact
        value *exact*.  Arrays are copied: callers may pass live
        buffers."""
        self.assignments += 1
        f64 = np.float64
        if type(stored) is f64 and type(shadow) is f64 \
                and type(exact) is f64:
            i = self._n_scalars
            self._sp[i] = stored
            self._ss[i] = shadow
            self._sm[i] = exact
            self._n_scalars = i + 1
            n = 1
        else:
            self._close_scalar_run()
            sides = np.array(np.broadcast_arrays(
                np.asarray(stored, dtype=f64), np.asarray(shadow, dtype=f64),
                np.asarray(exact, dtype=f64))).reshape(3, -1)
            self._pieces.append(sides)
            n = sides.shape[1]
            self._array_elements += n
        var = self._stats(self.variables, qual, kind)
        stmt = self._stats(self.statements, label, kind)
        for st in (var, stmt):
            if st is not None:
                st.observations += 1
                st.elements += n
        self._vars.append(var)
        self._stmts.append(stmt)
        self._kinds.append(kind)
        self._lengths.append(n)
        if len(self._lengths) == self.BATCH \
                or self._array_elements >= self.BATCH_ELEMENTS:
            self._flush()

    def _close_scalar_run(self) -> None:
        if self._run_start < self._n_scalars:
            self._pieces.append(
                self._scalars[:, self._run_start:self._n_scalars])
            self._run_start = self._n_scalars

    def _flush(self) -> None:
        """Run the error math once over every pending observation and
        fold each observation's peaks into its entries, in order."""
        lengths = self._lengths
        if not lengths:
            return
        self._close_scalar_run()
        p, s, m = np.concatenate(self._pieces, axis=1)
        counts = np.array(lengths)
        ends = np.cumsum(counts)
        starts = ends - counts
        elem_kinds = np.repeat(self._kinds, counts)
        with np.errstate(all="ignore"):
            bad = ~(np.isfinite(p) & np.isfinite(s) & np.isfinite(m))
            ulp = np.empty_like(p)
            for kind in set(self._kinds):
                sel = elem_kinds == kind
                ulp[sel] = ulp_distance(p[sel], s[sel], kind)
            errors = np.stack([relative_gap(p, s), ulp, relative_gap(p, m),
                               relative_gap(m, s)])
        errors[:, bad] = -np.inf
        bad_before = np.concatenate(([0], np.cumsum(bad)))
        n_bad = (bad_before[ends] - bad_before[starts]).tolist()
        self.nonfinite += int(bad_before[-1])
        live = counts > 0
        peaks = zip(*np.maximum.reduceat(errors, starts[live], axis=1)
                    .tolist()) if live.any() else iter(())
        for var, stmt, n, nb in zip(self._vars, self._stmts, lengths, n_bad):
            if not n:
                continue
            rel, ulp_max, local, prop = next(peaks)
            targets = [st for st in (var, stmt) if st is not None]
            if nb:
                for st in targets:
                    st.nonfinite += nb
                if nb == n:
                    continue
            for st in targets:
                st.max_rel = max(st.max_rel, rel)
                st.sum_rel += rel
                st.last_rel = rel
                st.max_ulp = max(st.max_ulp, ulp_max)
                st.max_local = max(st.max_local, local)
                st.max_prop = max(st.max_prop, prop)
        self._n_scalars = self._run_start = self._array_elements = 0
        self._pieces.clear()
        self._vars.clear()
        self._stmts.clear()
        self._kinds.clear()
        self._lengths.clear()

    def cancellation(self, qual: Optional[str], label: Optional[str],
                     kind: int, count: int) -> None:
        self.cancellations += count
        for table, key in ((self.variables, qual),
                           (self.statements, label)):
            st = self._stats(table, key, kind)
            if st is not None:
                st.cancellations += count

    # ------------------------------------------------------------------

    def variables_dict(self) -> dict[str, dict[str, float]]:
        self._flush()
        return {q: st.to_dict() for q, st in sorted(self.variables.items())}

    def statements_dict(self) -> dict[str, dict[str, float]]:
        self._flush()
        return {s: st.to_dict() for s, st in sorted(self.statements.items())}

    def counters_dict(self) -> dict[str, int]:
        self._flush()
        return {
            "assignments": self.assignments,
            "cancellations": self.cancellations,
            "nonfinite": self.nonfinite,
            "untracked": self.untracked,
        }


# ---------------------------------------------------------------------------
# Triple helpers (closures take the executing ShadowInterpreter as ``I``)
# ---------------------------------------------------------------------------

_TRUE = SV(True, True, True)
_FALSE = SV(False, False, False)


def _same(value: Any) -> SV:
    """A non-real value: the reference runs compute it identically."""
    return SV(value, value, value)


def _f64(value: Any) -> Any:
    """Float64 image of a primary raw value (scalar or ndarray)."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return np.float64(value)


def _raw(side: Any) -> Any:
    """One reference side as a raw scalar/ndarray (a non-real array
    passes through as its FArray)."""
    return side.data if isinstance(side, FArray) else side


def _scalar_side(side: Any, value: Any) -> Any:
    """A reference side stored into a scalar slot.  An array side is
    degenerate (the primary store would have failed); fall back to the
    primary's image."""
    if isinstance(side, (FArray, np.ndarray)):
        return _f64(value.data if isinstance(value, FArray) else value)
    return side


def _note_cancellation(I, lm: Any, rm: Any, m_out: Any) -> None:
    """CHEF-FP-style catastrophic-cancellation detector on the
    statement-exact side: the *exact* sum lost >= CANCEL_BITS bits
    against its larger operand, so the primary result is dominated by
    previously committed rounding error.

    The event is attributed to the innermost assignment executing.  It
    fires while that assignment's right-hand side is still being
    evaluated, so a statement entry it creates carries the reference
    kind; the statement's own observation does not re-kind it."""
    amax = np.maximum(np.abs(np.asarray(lm, dtype=np.float64)),
                      np.abs(np.asarray(rm, dtype=np.float64)))
    out = np.abs(np.asarray(m_out, dtype=np.float64))
    with np.errstate(invalid="ignore"):
        mask = (amax > 0.0) & np.isfinite(amax) \
            & (out < amax * _CANCEL_FACTOR)
    count = int(np.count_nonzero(mask))
    if count:
        I.recorder.cancellation(I._cur_assign_qual, I._cur_stmt_label,
                                KIND_DOUBLE, count)


def _result_sv(I, result: Any) -> SV:
    """Wrap a user-function result: the call boundary resets the
    statement-exact side to the primary's float64 image."""
    if isinstance(result, FArray):
        if result.kind is None:
            return _same(result)
        m = result.data.astype(np.float64)
        s = I._ret_shadow
        if not (isinstance(s, np.ndarray) and s.shape == result.data.shape):
            s = m
        return SV(result, s, m)
    if kind_of(result) is None:
        return _same(result)
    m = np.float64(result)
    s = I._ret_shadow
    s = np.float64(s) if s is not None and not isinstance(
        s, np.ndarray) else m
    return SV(result, s, m)


def _array_ref_sv(I, load_keys: dict, arr: FArray, key: tuple, n: int,
                  is_section: bool) -> SV:
    """An element or section of *arr*: a section view aliases the
    matching slice of the array's shadow."""
    p = _array_ref(I, load_keys, arr, key, n, is_section)
    if arr.kind is None:
        return _same(p)
    sh = I._sh_arr_get(arr)[key]
    if is_section:
        I._sh_arr_alias(p.data, sh)
        return SV(p, sh, p.data.astype(np.float64))
    return SV(p, np.float64(sh), np.float64(p))


def _intrinsic_side(I, fn, args: list, kwargs: dict, fallback: Any) -> Any:
    try:
        with np.errstate(all="ignore"):
            out = fn(*args, **kwargs)
    except Exception:
        I.recorder.untracked += 1
        return _f64(fallback.data if isinstance(fallback, FArray)
                    else fallback)
    return _f64(out.data if isinstance(out, FArray) else out)


def _commit_array(I, arr: FArray, key: Any, sv: SV, qual: Optional[str],
                  label: str) -> None:
    sh = I._sh_arr_get(arr)
    mraw = _raw(sv.m)
    try:
        sh[key] = _raw(sv.s)
    except (ValueError, TypeError):
        # Shape-incompatible shadow (untracked path): resynchronize from
        # the committed primary.
        sh[key] = arr.data[key]
        mraw = sh[key]
        I.recorder.untracked += 1
    I.recorder.observe(qual, label, arr.kind, _f64(arr.data[key]),
                       _f64(sh[key]), _f64(mraw))


# ---------------------------------------------------------------------------
# The shadow lowering
# ---------------------------------------------------------------------------


class _ShadowCompiler(_ProcCompiler):
    """Lowers one procedure for :class:`ShadowInterpreter`.

    :meth:`sexpr` compiles an expression into a closure returning its
    :class:`SV` triple; it is used for the right-hand sides of
    assignments and for actual arguments.  Every other expression keeps
    the parent's plain closure.
    """

    def _field(self, e):
        """A scalar Name or component as ``(closure returning the dict
        that holds it, key)``: a frame or module slot, or a derived-type
        instance.  Its shadow lives in the same dict."""
        if isinstance(e, F.Name):
            return self._slot(e.name), e.name
        return self._compile_component_base(e), e.component

    # -- triple expressions ----------------------------------------------

    def sexpr(self, e: F.Expr):
        t = type(e)
        if t is F.IntLit or t is F.LogicalLit or t is F.StringLit:
            const = _same(e.value)
            return lambda I, frame: const
        if t is F.RealLit:
            p = dtype_for_kind(e.kind).type(e.value)
            const = SV(p, np.float64(p), np.float64(p))
            return lambda I, frame: const
        if self._static_type(e) is not None:
            # Integer/logical arithmetic over integer/logical scalars.
            ev = self.expr(e)
            return lambda I, frame: _same(ev(I, frame))
        if t is F.Name or t is F.ComponentRef and e.args is None:
            return self._svariable(e)
        if t is F.UnaryOp:
            return self._sunary(e)
        if t is F.BinOp:
            return self._sbinop(e)
        if t is F.Apply:
            return self._sapply(e)
        if t is F.ComponentRef:
            return self._scomponent_element(e)
        if t is F.ArrayCons:
            return self._sarray_cons(e)
        ev = self.expr(e)          # raises like the parent
        return lambda I, frame: _same(ev(I, frame))

    def _svariable(self, e):
        """A Name or argument-less component: the plain (charging) read
        plus the variable's reference, seeded on first use."""
        load = self.expr(e)
        dict_fn, field = self._field(e)
        key = field + _SH

        def ev(I, frame):
            val = load(I, frame)
            if isinstance(val, FArray):
                if val.kind is None:
                    return _same(val)
                return SV(val, I._sh_arr_get(val),
                          val.data.astype(np.float64))
            if kind_of(val) is None:
                return _same(val)
            return SV(val, I._sh_get(dict_fn(I, frame), key, val),
                      np.float64(val))
        return ev

    def _sunary(self, e: F.UnaryOp):
        operand = self.sexpr(e.operand)
        if e.op == ".not.":
            return lambda I, frame: _same(not _truth(operand(I, frame).p))
        if e.op == "+":
            return operand
        scope = self.scope

        def ev(I, frame):
            sv = operand(I, frame)
            val = sv.p
            is_array = isinstance(val, FArray)
            out = -(val.data if is_array else val)
            k = kind_of(val)
            if k is not None:
                I.ledger.add_op(scope, "arith", k, I._cur_vec or is_array,
                                element_count(val))
            if is_array:
                prim = FArray(out, val.lbounds, val.kind)
                if val.kind is None:
                    return _same(prim)
                return SV(prim, -_raw(sv.s), -_raw(sv.m))
            if isinstance(val, bool):
                raise FortranRuntimeError("negation of a logical value")
            if k is not None:
                return SV(out, -sv.s, -sv.m)
            return _same(int(out))
        return ev

    def _sbinop(self, e: F.BinOp):
        op = e.op
        lev, rev = self.sexpr(e.left), self.sexpr(e.right)
        if op == ".and.":
            return lambda I, frame: (
                _same(_truth(rev(I, frame).p))
                if _truth(lev(I, frame).p) else _FALSE)
        if op == ".or.":
            return lambda I, frame: (
                _TRUE if _truth(lev(I, frame).p)
                else _same(_truth(rev(I, frame).p)))
        if op in (".eqv.", ".neqv."):
            want_eq = op == ".eqv."

            def ev_logical(I, frame):
                left = _truth(lev(I, frame).p)
                right = _truth(rev(I, frame).p)
                return _same(left == right if want_eq else left != right)
            return ev_logical

        # A literal operand promotes for free; only a variable operand
        # charges a convert.
        left_lit = isinstance(e.left, (F.RealLit, F.IntLit))
        right_lit = isinstance(e.right, (F.RealLit, F.IntLit))
        is_cmp = op in _CMP_OPS
        opclass = "cmp" if is_cmp else _ARITH_CLASS[op]
        cancels = op in ("+", "-")
        arith = Interpreter._arith
        scope = self.scope

        def ev(I, frame):
            lsv = lev(I, frame)
            rsv = rev(I, frame)
            left, right = lsv.p, rsv.p
            kl, kr = kind_of(left), kind_of(right)
            lraw = left.data if type(left) is FArray else left
            rraw = right.data if type(right) is FArray else right
            if kl is None and kr is None:
                return _same(Interpreter._int_binop(op, lraw, rraw))
            nl, nr = element_count(left), element_count(right)
            n = max(nl, nr)
            is_vec = I._cur_vec or n > 1
            wide = promote_kinds(kl, kr)
            led = I.ledger
            if kl is not None and kr is not None and kl != kr:
                if kl < kr:
                    if not left_lit:
                        led.add_op(scope, "convert", wide, is_vec, nl)
                elif not right_lit:
                    led.add_op(scope, "convert", wide, is_vec, nr)
            led.add_op(scope, opclass, wide, is_vec, n)
            template = left if type(left) is FArray else (
                right if type(right) is FArray else None)
            if is_cmp:
                out = Interpreter._compare(op, lraw, rraw)
                if template is not None and isinstance(out, np.ndarray):
                    out = FArray(out, template.lbounds, kind_of(out))
                return _same(out)
            out = arith(op, lraw, rraw)
            # A non-real operand contributes its primary value to both
            # references (they compute the same integer).
            ls, lm = (_raw(lsv.s), _raw(lsv.m)) if kl is not None \
                else (lraw, lraw)
            rs, rm = (_raw(rsv.s), _raw(rsv.m)) if kr is not None \
                else (rraw, rraw)
            m_out = arith(op, lm, rm)
            s_out = arith(op, ls, rs)
            if cancels:
                _note_cancellation(I, lm, rm, m_out)
            if template is not None and isinstance(out, np.ndarray):
                return SV(FArray(out, template.lbounds, kind_of(out)),
                          _f64(s_out), _f64(m_out))
            return SV(out, np.float64(s_out), np.float64(m_out))
        return ev

    def _sapply(self, e: F.Apply):
        name = e.name
        fallback = self._sapply_fallback(e)
        if self._category(name)[0] == "dynamic":
            return fallback
        fetch = self._fetch(name)
        index_key = self._compile_index_key(e.args)
        load_keys = self._keys("load")

        def ev(I, frame):
            val = fetch(I, frame)
            if type(val) is FArray:
                key, n, is_section = index_key(I, frame, val)
                return _array_ref_sv(I, load_keys, val, key, n, is_section)
            if val is None:
                raise FortranRuntimeError(
                    f"use of unallocated array {name!r}")
            return fallback(I, frame)
        return ev

    def _sapply_fallback(self, e: F.Apply):
        """User function (its result shadow) or intrinsic."""
        pscope = self.index.find_procedure(e.name)
        if pscope is not None and isinstance(pscope.node, F.Function):
            invoke = self._compile_invoke(pscope, e.args)
            return lambda I, frame: _result_sv(I, invoke(I, frame))
        intr = INTRINSICS.get(e.name)
        if intr is not None:
            return self._sintrinsic(intr, e)
        return _raiser(FortranRuntimeError,
                       f"unknown function or array {e.name!r}")

    def _sintrinsic(self, intr, e: F.Apply):
        steps = [(a.name, self.sexpr(a.value))
                 if isinstance(a, F.KeywordArg) else (None, self.sexpr(a))
                 for a in e.args]
        suppress = intr.opclass == "none"
        fn = intr.fn
        opclass = intr.opclass
        scope = self.scope

        def ev(I, frame):
            args_sv: list[SV] = []
            kwargs: dict[str, Any] = {}
            if suppress:
                I._suppress_loads += 1
            try:
                for kwn, c in steps:
                    if kwn is None:
                        args_sv.append(c(I, frame))
                    else:
                        kwargs[kwn] = c(I, frame).p
            finally:
                if suppress:
                    I._suppress_loads -= 1
            args = [sv.p for sv in args_sv]
            result = fn(*args, **kwargs)
            if not suppress:
                n = max((element_count(a) for a in args), default=1)
                k = kind_of(result)
                if k is None:
                    k = next((kind_of(a) for a in args
                              if kind_of(a) is not None), None)
                if k is not None:
                    I.ledger.add_op(scope, opclass, k,
                                    I._cur_vec or n > 1, n)
            if kind_of(result) is None:
                # Integer/logical result (size, int, nint, ...): the
                # references follow the primary so control stays in
                # lockstep.
                return _same(result)
            s_args, m_args = [], []
            for sv in args_sv:
                p = sv.p
                if kind_of(p) is None:
                    s_args.append(p)
                    m_args.append(p)
                else:
                    s_args.append(_raw(sv.s))
                    m_args.append(_raw(sv.m))
            return SV(result, _intrinsic_side(I, fn, s_args, kwargs, result),
                      _intrinsic_side(I, fn, m_args, kwargs, result))
        return ev

    def _scomponent_element(self, e: F.ComponentRef):
        base_fn = self._compile_component_base(e)
        comp = e.component
        index_key = self._compile_index_key(e.args)
        load_keys = self._keys("load")

        def ev(I, frame):
            base = base_fn(I, frame)
            if comp not in base:
                raise FortranRuntimeError(
                    f"derived type has no component {comp!r}")
            val = base[comp]
            if not isinstance(val, FArray):
                raise FortranRuntimeError(
                    f"subscript on scalar component {comp!r}")
            key, n, is_section = index_key(I, frame, val)
            return _array_ref_sv(I, load_keys, val, key, n, is_section)
        return ev

    def _sarray_cons(self, e: F.ArrayCons):
        item_evs = [self.sexpr(i) for i in e.items]

        def ev(I, frame):
            items_sv = [c(I, frame) for c in item_evs]
            items = [sv.p for sv in items_sv]
            kinds = [kind_of(i) for i in items]
            if all(k is None for k in kinds):
                data = np.array([int(i) for i in items], dtype=np.int64)
                return _same(FArray(data, (1,), None))
            kind = KIND_SINGLE
            for k in kinds:
                if k is not None:
                    kind = promote_kinds(kind, k)
            data = np.array([float(i) for i in items],
                            dtype=dtype_for_kind(kind))
            s = np.array([float(sv.s) if k is not None else float(sv.p)
                          for sv, k in zip(items_sv, kinds)],
                         dtype=np.float64)
            m = np.array([float(sv.m) if k is not None else float(sv.p)
                          for sv, k in zip(items_sv, kinds)],
                         dtype=np.float64)
            return SV(FArray(data, (1,), kind), s, m)
        return ev

    # -- actual arguments ------------------------------------------------

    def _compile_ref(self, e: F.Expr):
        """Actual-argument reference: ``(I, frame) -> (value, setter,
        shadow, shadow_setter)``.  A real scalar variable carries its
        shadow and a setter for the write-back; arrays carry theirs by
        buffer identity (a section view aliases its slice)."""
        if (isinstance(e, F.Name)
                or isinstance(e, F.ComponentRef) and e.args is None):
            pair = super()._compile_ref(e)
            dict_fn, field = self._field(e)
            key = field + _SH

            def rf(I, frame):
                val, setter = pair(I, frame)
                if isinstance(val, FArray) or kind_of(val) is None:
                    return val, setter, None, None
                slot = dict_fn(I, frame)
                return (val, setter, I._sh_get(slot, key, val),
                        partial(slot.__setitem__, key))
            return rf
        if (isinstance(e, F.Apply)
                and self._category(e.name)[0] != "dynamic"):
            return self._sref_element(e)
        return self._sref_value(e)

    def _sref_element(self, e: F.Apply):
        fetch = self._fetch(e.name)
        index_key = self._compile_index_key(e.args)
        load_keys = self._keys("load")
        value_ref = self._sref_value(e)

        def rf(I, frame):
            container = fetch(I, frame)
            if not isinstance(container, FArray):
                return value_ref(I, frame)
            key, _n, is_section = index_key(I, frame, container)
            val, setter = _element_ref(I, load_keys, container, key,
                                       is_section)
            if container.kind is None:
                return val, setter, None, None
            sh = I._sh_arr_get(container)
            if is_section:
                I._sh_arr_alias(val.data, sh[key])
                return val, setter, None, None
            return (val, setter, np.float64(sh[key]),
                    partial(sh.__setitem__, key))
        return rf

    def _sref_value(self, e: F.Expr):
        """An expression passed by value.  A temporary real array
        registers its shadow so the callee's binding finds it by buffer
        id."""
        ev = self.sexpr(e)

        def rf(I, frame):
            sv = ev(I, frame)
            p = sv.p
            if isinstance(p, FArray):
                if p.kind is not None and isinstance(sv.s, np.ndarray):
                    I._sh_arr_alias(p.data, sv.s)
                return p, None, None, None
            if kind_of(p) is not None:
                return p, None, np.float64(sv.s), None
            return p, None, None, None
        return rf

    def _compile_invoke(self, pscope, args: list[F.Expr]):
        """Stage the actuals' shadows for the callee's prologue, then
        run the inherited binding."""
        proc = pscope.node
        if len(args) != len(proc.args) or any(
                isinstance(a, F.KeywordArg) for a in args):
            return super()._compile_invoke(pscope, args)   # raises
        refs = [self._compile_ref(a) for a in args]
        qual = pscope.name
        scope = self.scope

        def ev(I, frame):
            staged = [r(I, frame) for r in refs]
            return I._staged_call(proc, staged, I._invoke, qual, proc,
                                  [ref[:2] for ref in staged],
                                  caller_scope=scope, vec_ctx=I._cur_vec)
        return ev

    # -- assignments -----------------------------------------------------

    def _target_identity(self, target: F.Expr, stmt: F.Stmt
                         ) -> tuple[Optional[str], str]:
        """(qualified variable name, statement label) for attribution.
        Both are derived purely from the source, so they are stable
        across runs and worker configurations."""
        if isinstance(target, (F.Name, F.Apply)):
            sym = self.index.resolve(self.scope, target.name)
            qual = sym.qualified if sym is not None \
                else f"{self.scope}::{target.name}"
        elif isinstance(target, F.ComponentRef):
            base = target.base
            base_name = base.name if isinstance(base, F.Name) else "?"
            qual = f"{self.scope}::{base_name}%{target.component}"
        else:
            qual = None
        return qual, f"{self.scope}:{getattr(stmt, 'line', 0)}"

    def _observes_nothing(self, s: F.Assignment) -> bool:
        """An integer/logical store of an integer/logical expression:
        no real value is read or written, so the plain closure runs."""
        target = s.target
        if (self._static_type(s.value) is None
                or not isinstance(target, (F.Name, F.Apply))):
            return False
        sym = self.index.resolve(self.scope, target.name)
        if sym is None or sym.type_ not in ("integer", "logical"):
            return False
        return isinstance(target, F.Name) or all(
            self._static_type(a) is not None for a in target.args)

    def _compile_assignment(self, s: F.Assignment):
        if self._observes_nothing(s):
            return super()._compile_assignment(s)
        sid = id(s)
        static_vec = self.stmt_flags.get(sid, False)
        rhs_lit = isinstance(s.value, (F.RealLit, F.IntLit))
        value_ev = self.sexpr(s.value)
        qual, label = self._target_identity(s.target, s)
        commit = self._compile_commit(s.target, qual, label)

        def ex(I, frame):
            prev = I._cur_vec
            prev_id = I._cur_stmt_id
            prev_lit = I._rhs_literal
            prev_qual = I._cur_assign_qual
            prev_label = I._cur_stmt_label
            if sid in I._devec_stmts:
                I._cur_vec = False
            else:
                I._cur_vec = static_vec or frame.vec_inherit
            I._cur_stmt_id = sid
            I._rhs_literal = rhs_lit
            I._cur_assign_qual = qual
            I._cur_stmt_label = label
            try:
                commit(I, frame, value_ev(I, frame))
            finally:
                I._cur_vec = prev
                I._cur_stmt_id = prev_id
                I._rhs_literal = prev_lit
                I._cur_assign_qual = prev_qual
                I._cur_stmt_label = prev_label
        return ex

    def _compile_commit(self, target: F.Expr, qual: Optional[str],
                        label: str):
        """Store a triple: ``(I, frame, sv) -> None``.  The primary store
        is the plain lowering's; a real target also stores the reference
        and records one observation."""
        if isinstance(target, F.Apply):
            return self._compile_commit_indexed(
                self._fetch(target.name), target.args,
                f"non-array {target.name!r}", qual, label)
        if not isinstance(target, (F.Name, F.ComponentRef)):
            return _raiser(FortranRuntimeError,
                           f"cannot assign to {type(target).__name__}")
        dict_fn, field = self._field(target)
        if isinstance(target, F.ComponentRef) and target.args is not None:
            return self._compile_commit_indexed(
                lambda I, frame: dict_fn(I, frame).get(field), target.args,
                f"non-array component {field!r}", qual, label)
        store_keys = self._keys("store")
        convert_keys = self._keys("convert")
        key = field + _SH

        def commit(I, frame, sv):
            slot = dict_fn(I, frame)
            current = slot.get(field)
            if isinstance(current, FArray):
                _assign_whole_array(I, store_keys, convert_keys, current,
                                    sv.p)
                if current.kind is not None:
                    _commit_array(I, current, Ellipsis, sv, qual, label)
                return
            stored = slot[field] = _convert_like(
                I, store_keys, convert_keys, current, sv.p)
            kd = kind_of(current)
            if kd is not None and not isinstance(stored, FArray):
                s = slot[key] = np.float64(_scalar_side(sv.s, sv.p))
                I.recorder.observe(qual, label, kd, np.float64(stored), s,
                                   np.float64(_scalar_side(sv.m, sv.p)))
        return commit

    def _compile_commit_indexed(self, fetch, args: list[F.Expr], what: str,
                                qual: Optional[str], label: str):
        store_keys = self._keys("store")
        convert_keys = self._keys("convert")
        index_key = self._compile_index_key(args)

        def commit_indexed(I, frame, sv):
            arr = fetch(I, frame)
            if not isinstance(arr, FArray):
                raise FortranRuntimeError(f"subscripted assignment to {what}")
            key, n, is_section = index_key(I, frame, arr)
            _assign_indexed(I, store_keys, convert_keys, arr, key, n,
                            is_section, sv.p)
            if arr.kind is not None:
                _commit_array(I, arr, key, sv, qual, label)
        return commit_indexed

    def _compile_masked_assignment(self, s: F.Stmt):
        if not isinstance(s, F.Assignment):
            return super()._compile_masked_assignment(s)
        value_ev = self.sexpr(s.value)
        target = s.target
        qual, label = self._target_identity(target, s)
        fetch = (self._fetch(target.name)
                 if isinstance(target, (F.Name, F.Apply)) else None)
        store_keys = self._keys("store")
        convert_keys = self._keys("convert")

        def m(I, frame, mask):
            prev_qual = I._cur_assign_qual
            prev_label = I._cur_stmt_label
            I._cur_assign_qual = qual
            I._cur_stmt_label = label
            try:
                sv = value_ev(I, frame)
                if fetch is None:
                    raise FortranRuntimeError("where assigns to whole arrays")
                arr = fetch(I, frame)
                n = _assign_masked(I, store_keys, convert_keys, arr, mask,
                                   sv.p)
                if arr.kind is None or not n:
                    return
                sh = I._sh_arr_get(arr)
                sraw, mraw = _raw(sv.s), _raw(sv.m)
                if isinstance(sraw, np.ndarray) and sraw.shape == mask.shape:
                    sh[mask] = sraw[mask]
                    if (isinstance(mraw, np.ndarray)
                            and mraw.shape == mask.shape):
                        mraw = mraw[mask]
                else:
                    sh[mask] = sraw
                I.recorder.observe(qual, label, arr.kind,
                                   arr.data[mask].astype(np.float64),
                                   sh[mask], _f64(mraw))
            finally:
                I._cur_assign_qual = prev_qual
                I._cur_stmt_label = prev_label
        return m


#: Lowered shadow bodies, kept apart from the plain backend's
#: :data:`~repro.fortran.compile.CODE_CACHE` (same keys, other closures).
SHADOW_CODE_CACHE = CodeCache(compiler=_ShadowCompiler)


# ---------------------------------------------------------------------------
# The shadow interpreter
# ---------------------------------------------------------------------------


class ShadowInterpreter(CompiledInterpreter):
    """Compiled interpreter whose primary side is bit- and
    charge-identical to :class:`Interpreter` while a float64 reference
    runs alongside."""

    def __init__(
        self,
        index: ProgramIndex,
        overlay: Optional[dict[str, int]] = None,
        vec_info: Optional[ProgramVecInfo] = None,
        ledger: Optional[Ledger] = None,
        max_ops: Optional[int] = None,
    ):
        super().__init__(index, overlay=overlay, vec_info=vec_info,
                         ledger=ledger, max_ops=max_ops,
                         code_cache=SHADOW_CODE_CACHE)
        self.recorder = ShadowRecorder()
        #: id(primary ndarray buffer) -> float64 shadow buffer.
        self._sh_arr: dict[int, np.ndarray] = {}
        #: Keep-alive anchors so registered buffer ids never recycle.
        self._sh_keep: list[Any] = []
        #: ``(procedure, staged actuals)`` of every call in progress that
        #: staged its actuals' ``(value, setter, shadow, shadow_setter)``
        #: at the call site, innermost last.
        self._call_shadows: list[tuple[F.ProcedureUnit, list[tuple]]] = []
        #: qualified procedure -> mangled SAVE-variable shadows.
        self._sh_saves: dict[str, dict[str, np.float64]] = {}
        #: Float64 shadow of the most recent function result.
        self._ret_shadow: Any = None
        #: Attribution of the innermost assignment executing (for
        #: cancellations).
        self._cur_assign_qual: Optional[str] = None
        self._cur_stmt_label: Optional[str] = None

    # ------------------------------------------------------------------
    # Shadow storage
    # ------------------------------------------------------------------

    def _sh_get(self, slot: dict, key: str, primary: Any) -> np.float64:
        """Scalar shadow under mangled *key* in *slot*, lazily seeded
        from the primary (an untracked value entered the shadow
        universe)."""
        s = slot.get(key)
        if s is None:
            s = slot[key] = np.float64(primary)
            self.recorder.untracked += 1
        return s

    def _sh_arr_get(self, arr: FArray) -> np.ndarray:
        buf = arr.data
        s = self._sh_arr.get(id(buf))
        if s is None:
            s = buf.astype(np.float64)
            self._sh_arr[id(buf)] = s
            self._sh_keep.append(buf)
            self.recorder.untracked += 1
        return s

    def _sh_arr_alias(self, buf: np.ndarray, shadow: np.ndarray) -> None:
        self._sh_arr[id(buf)] = shadow
        self._sh_keep.append(buf)

    # ------------------------------------------------------------------
    # Call boundaries
    # ------------------------------------------------------------------

    def call(self, name: str, args: Optional[list[Any]] = None) -> Any:
        # Harness actuals carry no shadow: the reference starts from
        # their primary values.
        scope = self.index.find_procedure(name)
        if scope is None:
            return super().call(name, args)         # raises
        staged = [(v.value if isinstance(v, OutBox) else v, None, None, None)
                  for v in args or ()]
        return self._staged_call(scope.node, staged, super().call, name,
                                 args)

    def _staged_call(self, proc: F.ProcedureUnit, staged: list[tuple],
                     invoke, *args, **kwargs) -> Any:
        """Run *invoke* with *staged* visible to *proc*'s prologue.  The
        prologue matches by procedure, so a user function called while
        *proc*'s bounds and locals are elaborated does not take them."""
        self._call_shadows.append((proc, staged))
        try:
            return invoke(*args, **kwargs)
        finally:
            self._call_shadows.pop()

    def _run_body(self, proc: F.ProcedureUnit, frame: Frame) -> None:
        staged = None
        if self._call_shadows and self._call_shadows[-1][0] is proc:
            staged = self._call_shadows[-1][1]
        if staged is None or len(staged) != len(proc.args):
            staged = [(None, None, None, None)] * len(proc.args)
        symbols = self.index.scopes[frame.scope].symbols
        self._bind_shadows(proc, frame, symbols, staged)
        super()._run_body(proc, frame)
        self._deliver_shadows(proc, frame, symbols, staged)

    def _bind_shadows(self, proc: F.ProcedureUnit, frame: Frame,
                      symbols: dict, staged: list[tuple]) -> None:
        """Prologue: seed real dummies' shadows and record the binding
        observations (scalars first, then arrays, as they were bound)."""
        arrays = []
        for dummy, (value, _setter, sval, _sset) in zip(proc.args, staged):
            sym = symbols[dummy]
            if sym.type_ != "real":
                continue
            if sym.is_array:
                arrays.append((sym, value, frame.values[dummy]))
                continue
            bound = frame.values[dummy]
            if value is None:       # OutBox(None) binds 0.0 at the dummy kind
                value = bound
            # The dummy's reference is the actual's unrounded reference
            # (the float64 run has no boundary cast), and the cast is
            # where a lowered dummy's rounding error is introduced.
            s_in = np.float64(sval if sval is not None else value)
            frame.values[dummy + _SH] = s_in
            self.recorder.observe(
                sym.qualified, f"{sym.qualified}:bind", self._eff_kind(sym),
                np.float64(bound), s_in, np.float64(value))
        for sym, value, bound in arrays:
            if value is None or bound.data is value.data:
                continue            # aliased: the shadow follows the buffer
            # A kind-conversion copy shares the original's shadow.
            sh = self._sh_arr_get(value)
            self._sh_arr_alias(bound.data, sh)
            self.recorder.observe(
                sym.qualified, f"{sym.qualified}:bind", bound.kind,
                bound.data.astype(np.float64), sh,
                value.data.astype(np.float64))
        saved = self._sh_saves.get(frame.scope)
        if saved:
            frame.values.update(saved)

    def _deliver_shadows(self, proc: F.ProcedureUnit, frame: Frame,
                         symbols: dict, staged: list[tuple]) -> None:
        """Epilogue: persist SAVE shadows, write back scalar shadows, and
        hand a function result's shadow to the caller."""
        values = frame.values
        saves = self._saves.get(frame.scope)
        if saves:
            sh_saves = self._sh_saves.setdefault(frame.scope, {})
            for name in saves:
                key = name + _SH
                if key in values:
                    sh_saves[key] = values[key]
        is_function = isinstance(proc, F.Function)
        for dummy, (_value, _setter, _sval, sset) in zip(proc.args, staged):
            sym = symbols[dummy]
            # ``Interpreter._invoke``'s write-back rule.
            writes_back = sym.intent in ("out", "inout") or (
                sym.intent is None and not is_function)
            if (sset is not None and writes_back and sym.type_ == "real"
                    and not sym.is_array):
                sset(values[dummy + _SH])
        if not is_function:
            return
        result = values.get(proc.result)
        if isinstance(result, FArray) and result.kind is not None:
            self._ret_shadow = self._sh_arr_get(result).copy()
        elif kind_of(result) is not None:
            s = values.get(proc.result + _SH)
            self._ret_shadow = s if s is not None else np.float64(result)
        else:
            self._ret_shadow = None
