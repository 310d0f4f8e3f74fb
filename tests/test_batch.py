"""Property tests for the variant-batched backend (repro.fortran.batch).

The lockstep engine's contract is simple: every lane of a
:class:`VariantBatch` is **bit-identical** — observable bytes, stdout,
ledger fingerprint, raised errors — to a scalar compiled run of the
same precision overlay, no matter how the wave is shaped.  These tests
pin the three shape properties the campaign integration relies on:

* batch-of-one: a width-1 wave is the compiled backend, bit for bit;
* wave invariance: permuting lanes or re-chunking one wave into
  several must not move a single bit of any lane's artifacts (the
  oracle chunks waves by search-algorithm batch size, and resume can
  re-chunk differently than the original run);
* the fallback valve: lanes the engine sends to the scalar path (here:
  a NaN store, whose scalar/array bit semantics NumPy does not keep
  consistent) are byte-identical to a pure compiled run, and lanes
  that stay vectorized are unaffected by their fallen-back neighbours.

Beyond wave shape, the per-lane intrinsic call and the int64 rule are
checked statement by statement against compiled, and each model's
seeded wave must stay fully vectorized.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.assignment import PrecisionAssignment
from repro.core.evaluation import Evaluator
from repro.fortran import (CompiledInterpreter, OutBox, VariantBatch,
                           analyze, analyze_program, parse_source)
from repro.fortran.symbols import KIND_DOUBLE, KIND_SINGLE
from repro.models import AdcircCase, FunarcCase, MpasCase, Mom6Case
from repro.perf import ledger_fingerprint


def _artifacts(interp):
    """Full artifact set of one driver() run, bitwise-comparable."""
    box = OutBox(None)
    error = None
    try:
        interp.call("driver", [box])
    except Exception as exc:  # noqa: BLE001 - errors must match too
        error = (type(exc).__name__, str(exc))
    value = box.value
    observable = (value.tobytes(), str(value.dtype)) \
        if hasattr(value, "tobytes") else repr(value)
    return {
        "observable": observable,
        "stdout": tuple(interp.stdout),
        "ledger": ledger_fingerprint(interp.ledger),
        "error": error,
    }


_SOURCE = """\
module pb
  implicit none
  real(kind=8) :: acc
contains
  function step(x, y) result(r)
    implicit none
    real(kind=8) :: x
    real(kind=4) :: y
    real(kind=8) :: r
    r = x * 1.000001d0 + sin(y) * 0.125d0
    acc = acc + r * 1.0d-3
  end function step

  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t
    real(kind=4) :: s
    acc = 0.25d0
    t = 1.5d0
    s = 0.5
    do i = 1, 12
      t = step(t, s)
      s = s + 0.125
      if (s > 1.0) then
        t = t - 0.0625d0
      end if
    end do
    out = t + s + acc
  end subroutine driver
end module pb
"""

#: Overlay-targetable reals of the miniature above.
_ATOMS = ("pb::acc", "pb::step::x", "pb::step::y", "pb::step::r",
          "pb::driver::t", "pb::driver::s")

#: driver() stores sqrt(-t) when t's overlay kind makes epsilon large —
#: i.e. exactly the single-precision lanes hit the NaN store and must
#: take the scalar fallback while double lanes stay vectorized.
_FALLBACK_SOURCE = """\
module fb
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    integer :: i
    real(kind=8) :: t, bad
    t = 2.0d0
    do i = 1, 6
      t = t * 1.25d0 - 0.5d0
    end do
    if (epsilon(t) > 1.0d-10) then
      bad = sqrt(-1.0d0)
      t = t + bad
    end if
    out = t
  end subroutine driver
end module fb
"""


def _analyzed(source):
    index = analyze(parse_source(source))
    return index, analyze_program(index)


def _overlays(seed, count):
    rng = random.Random(seed)
    return [
        {atom: rng.choice((KIND_SINGLE, KIND_DOUBLE))
         for atom in _ATOMS if rng.random() < 0.6}
        for _ in range(count)
    ]


def _compiled(index, vec, overlay):
    return _artifacts(CompiledInterpreter(
        index, overlay=dict(overlay), vec_info=vec, max_ops=1_000_000))


def _wave(index, vec, overlays):
    batch = VariantBatch(index, [dict(o) for o in overlays],
                         vec_info=vec, max_ops=1_000_000)
    arts = [_artifacts(batch.lane(i)) for i in range(len(overlays))]
    return batch, arts


class TestBatchOfOne:
    def test_width_one_is_compiled_bit_for_bit(self):
        index, vec = _analyzed(_SOURCE)
        for overlay in _overlays("batch-of-one", 8):
            _, arts = _wave(index, vec, [overlay])
            assert arts[0] == _compiled(index, vec, overlay)

    def test_evaluator_batch_of_one_matches_scalar_record(self):
        model = FunarcCase(n=60)
        space = model.space
        rng = random.Random("batch-of-one-evaluator")
        kinds = tuple(rng.choice(space.levels) for _ in space.atoms)
        assignment = PrecisionAssignment(atoms=space.atoms, kinds=kinds)
        batched = Evaluator(model, backend="batched")
        compiled = Evaluator(model, backend="compiled")
        (record,) = batched.evaluate_assigned_batch([(assignment, 7)])
        assert record == compiled.evaluate_assigned(assignment, 7)


class TestWaveInvariance:
    def test_lane_results_invariant_under_permutation(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("permute", 9)
        _, base = _wave(index, vec, overlays)
        rng = random.Random("permute-order")
        perm = list(range(len(overlays)))
        rng.shuffle(perm)
        _, shuffled = _wave(index, vec, [overlays[i] for i in perm])
        for new_lane, old_lane in enumerate(perm):
            assert shuffled[new_lane] == base[old_lane], (
                f"lane {old_lane} drifted when moved to {new_lane}")

    def test_lane_results_invariant_under_rechunking(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("rechunk", 10)
        _, whole = _wave(index, vec, overlays)
        for split in (1, 4, 7):
            _, left = _wave(index, vec, overlays[:split])
            _, right = _wave(index, vec, overlays[split:])
            assert left + right == whole, f"re-chunk at {split} drifted"

    def test_every_lane_matches_compiled(self):
        index, vec = _analyzed(_SOURCE)
        overlays = _overlays("vs-compiled", 12)
        _, arts = _wave(index, vec, overlays)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")


class TestScalarFallback:
    def test_fallback_lanes_byte_identical_to_pure_compiled(self):
        index, vec = _analyzed(_FALLBACK_SOURCE)
        # Alternate double (vectorized) and single (NaN store ->
        # fallback) lanes within one wave.
        overlays = [
            {"fb::driver::t": KIND_DOUBLE, "fb::driver::bad": KIND_DOUBLE},
            {"fb::driver::t": KIND_SINGLE},
            {},
            {"fb::driver::t": KIND_SINGLE, "fb::driver::bad": KIND_SINGLE},
        ]
        batch, arts = _wave(index, vec, overlays)
        stats = batch.stats()
        assert stats.fallback_lanes == 2, vars(stats)
        assert stats.vector_lanes == 2
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")
        # The fallen-back lanes really did leave the vector path.
        assert batch.lanes[1].fell_back
        assert batch.lanes[3].fell_back
        assert not batch.lanes[0].fell_back
        assert not batch.lanes[2].fell_back

    def test_nan_observables_match_scalar_bitwise(self):
        # The NaN itself must round-trip bit-exactly through the
        # fallback (NumPy array ops would flip its sign bit).
        index, vec = _analyzed(_FALLBACK_SOURCE)
        overlay = {"fb::driver::t": KIND_SINGLE}
        _, arts = _wave(index, vec, [overlay, {}])
        compiled = _compiled(index, vec, overlay)
        obs_bytes, dtype = arts[0]["observable"]
        assert np.isnan(np.frombuffer(obs_bytes, dtype=dtype)[0])
        assert arts[0] == compiled


#: The differential fuzzer's shrunk reproducer (seed 977, program 54):
#: ``abs(3)`` is a NumPy integer in the scalar engines, so its product
#: with the float32 ``sign(3.0, d1)`` is float64 there and storing it
#: into ``f0`` charges a convert.
_NUMPY_INT_SOURCE = """\
module fz
  implicit none
  real(kind=8) :: acc
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: d0, d1, d2
    real(kind=4) :: f0, f1
    acc = 0.25d0
    d0 = 1.5d0
    d1 = -0.75d0
    d2 = 2.25d0
    f0 = 0.5
    f1 = 1.75
    f0 = (abs(3) * sign(3.0, d1))
    out = d0 + d1 + d2 + f0 + f1 + acc
  end subroutine driver
end module fz
"""


class TestNumpyIntegerOperands:
    def test_fuzz_reproducer_matches_compiled(self):
        index, vec = _analyzed(_NUMPY_INT_SOURCE)
        _, arts = _wave(index, vec, [{}])
        assert arts[0] == _compiled(index, vec, {})

    @pytest.mark.parametrize("expr", [
        "abs(7) * f1", "(abs(7) + 1) * f1", "-merge(1, 2, d1 > 0.0d0) * f1",
        "mod(f1, abs(3))", "atan2(abs(3), f1)", "merge(f1, abs(3), d1 > 0)",
    ])
    def test_only_float32_lanes_fall_back(self, expr):
        source = _NUMPY_INT_SOURCE.replace("(abs(3) * sign(3.0, d1))", expr)
        index, vec = _analyzed(source)
        overlays = [{}, {"fz::driver::f1": KIND_DOUBLE}]
        batch, arts = _wave(index, vec, overlays)
        for lane, overlay in enumerate(overlays):
            assert arts[lane] == _compiled(index, vec, overlay), (
                f"lane {lane} diverges from compiled")
        assert batch.lanes[0].fell_back
        assert not batch.lanes[1].fell_back


#: A two-kind template for single-statement probes: STMT runs once on a
#: wave whose lanes mix kind-4 and kind-8 reals, and every local flows
#: into the observable.
_PROBE_SOURCE = """\
module pr
  implicit none
contains
  subroutine driver(out)
    implicit none
    real(kind=8), intent(out) :: out
    real(kind=8) :: d0, d1, ra(5)
    real(kind=4) :: f0, f1
    integer :: i, k, ia(5)
    logical :: flag
    d0 = 1.5d0
    d1 = -0.75d0
    f0 = 0.5
    f1 = 1.75
    k = 7
    do i = 1, 5
      ra(i) = 0.75d0 * i - 2.0d0
      ia(i) = 7 - 3 * i
    end do
    ra(2) = 4.5d0
    ia(4) = 9
    flag = .false.
    STMT
    out = d0 + d1 + f0 + f1 + k
    if (flag) then
      out = out + 0.5d0
    end if
  end subroutine driver
end module pr
"""

#: Lane kinds of the probe wave: as declared, every real at 4, every
#: real at 8, and the declared kinds swapped.
_PROBE_OVERLAYS = [
    {},
    {"pr::driver::d0": KIND_SINGLE, "pr::driver::d1": KIND_SINGLE,
     "pr::driver::ra": KIND_SINGLE},
    {"pr::driver::f0": KIND_DOUBLE, "pr::driver::f1": KIND_DOUBLE},
    {"pr::driver::d1": KIND_SINGLE, "pr::driver::f1": KIND_DOUBLE,
     "pr::driver::ra": KIND_SINGLE},
]


def _probe(stmt):
    """Run STMT on the mixed-kind wave; assert every lane equals its
    compiled run and return the batch."""
    index, vec = _analyzed(_PROBE_SOURCE.replace("STMT", stmt))
    batch, arts = _wave(index, vec, _PROBE_OVERLAYS)
    for lane, overlay in enumerate(_PROBE_OVERLAYS):
        assert arts[lane] == _compiled(index, vec, overlay), (
            f"lane {lane} diverges from compiled on {stmt!r}")
    return batch


class TestReroutedIntrinsics:
    """Intrinsics without a vectorized kernel take the per-lane scalar
    call: each lane equals compiled, and finite, in-range lanes stay on
    the vector path."""

    @pytest.mark.parametrize("stmt", [
        "d0 = sign(f1, d1)", "f0 = sign(d0, -1.0)", "k = sign(k, -3)",
        "d0 = mod(d0, f1)", "f0 = mod(f1, 0.5)", "k = mod(k, 3)",
        "d0 = merge(d1, f0, d1 > f0)", "f0 = merge(f1, f0, flag)",
        "k = merge(k, 2, f1 > 1.0)",
        "d0 = real(k)", "d0 = real(f1, kind=8)", "d0 = dble(f1)",
        "f0 = sngl(d1)", "f0 = float(k)",
        "k = int(d1 * 3.0d0)", "k = nint(f1 * 3.0)", "k = floor(d1)",
        "k = ceiling(f1)",
        "k = size(ra)", "k = size(ia, 1)", "k = lbound(ra, 1)",
        "k = ubound(ia, 1)",
        "flag = ieee_is_nan(sqrt(d1))", "flag = ieee_is_nan(d0)",
        "flag = ieee_is_finite(d0 / 0.0d0)", "flag = ieee_is_finite(f1)",
        "d0 = maxval(ra)", "f0 = minval(ra)", "k = maxval(ia)",
        "k = minval(ia)", "k = maxloc(ra)", "k = maxloc(ia)",
        "d0 = epsilon(f1)", "d1 = huge(d1) * 1.0d-300", "f0 = tiny(f1)",
    ])
    def test_lanes_match_compiled_and_stay_vectorized(self, stmt):
        stats = _probe(stmt).stats()
        assert stats.fallback_lanes == 0, stats.fallback_reasons


class TestIntegerRange:
    """The scalar engines hold unbounded Python ints; a lane whose exact
    integer result leaves int64 must take the fallback, not wrap."""

    @pytest.mark.parametrize("stmt", [
        "d1 = 1.0d30\n    k = d1\n    d0 = k",
        "d1 = 1.0d30\n    k = floor(d1)\n    d0 = k",
        "d1 = 1.0d30\n    k = ceiling(d1)\n    d0 = k",
        "d1 = 1.0d30\n    k = int(d1)\n    d0 = k",
        "d1 = 1.0d30\n    k = nint(d1)\n    d0 = k",
        "k = nint(3000000.7d0)\n    d0 = k * k * k",
        "k = nint(3000000.7d0)\n    d0 = k ** 4",
        "k = nint(3000000.7d0)\n    d0 = k + 9223372036854775000",
        "k = nint(3000000.7d0)\n    d0 = (-k) - 9223372036854775000",
        "k = nint(-4611686018427387904.0d0) * 2\n    d0 = -k",
        "k = nint(-4611686018427387904.0d0) * 2\n    d0 = k / (-1)",
        "d1 = 1.0d30\n    stop d1",
    ], ids=["assign", "floor", "ceiling", "int", "nint", "mul", "pow", "add",
            "sub", "negate", "div", "stop-code"])
    def test_lanes_beyond_int64_match_compiled(self, stmt):
        batch = _probe(stmt)
        assert batch.stats().fallback_lanes == len(_PROBE_OVERLAYS)

    @pytest.mark.parametrize("stmt", [
        "k = nint(2097151.2d0)\n    d0 = k * k * k",
        "k = nint(-2.0d0)\n    d0 = k ** 63",
        "k = nint(3037000499.2d0)\n    d0 = k * k",
    ], ids=["cube", "pow", "square"])
    def test_lanes_at_the_int64_edge_stay_vectorized(self, stmt):
        batch = _probe(stmt)
        assert batch.stats().fallback_lanes == 0


class TestModelTraffic:
    """Every model's random wave stays on the vector path, so a trim of
    the engine cannot quietly push model traffic onto the fallback."""

    @pytest.mark.parametrize("make", [
        lambda: FunarcCase(n=60), MpasCase.small, AdcircCase.small,
        Mom6Case.small,
    ], ids=["funarc", "mpas", "adcirc", "mom6"])
    def test_seeded_wave_keeps_every_lane_vectorized(self, make):
        model = make()
        space = model.space
        rng = random.Random("model-traffic")
        tasks = [
            (PrecisionAssignment(
                atoms=space.atoms,
                kinds=tuple(rng.choice(space.levels) for _ in space.atoms)),
             vid)
            for vid in range(8)
        ]
        evaluator = Evaluator(model, backend="batched")
        evaluator.evaluate_assigned_batch(tasks)
        stats = evaluator.last_batch_stats
        assert stats.width == 8
        assert stats.fallback_lanes == 0, stats.fallback_reasons
