"""Command-line front end: problem files in, deterministic reports out.

Four subcommands:

  compute <file> [--milnor] [--json]
      parse a problem file, run both Chern character routes plus the
      cycle and commutator identities, print a report
  verify (<file> | --random N --seed S)
      run the invariant suite on a file or on N seeded random instances,
      each random one also against the power series of exp(-R); the first
      failing random instance is serialized for replay
  examples <name>
      run a built-in corpus instance against its golden report
  milnor "<poly>" --vars x,y,z
      Jacobian Groebner basis, standard monomials, Milnor number

Problem files are JSON with `#`-prefixed comment lines allowed (stripped
before parsing).  Every entry string, polynomial or one-form, is read by
the one grammar of rings._Parser.  Parse-time validation mirrors the
module invariants, and refuses a relation whose quotient ring is not
smooth (forms.relation_differential: the paper's hypothesis, under which
the mod-relation test is exact).  Rejected inputs name the violated
clause, and an entry the grammar refuses also its block and place, as in
`module block: delta[0][1]: ...`.  Reports are byte-stable for a fixed
input: the only nondeterministic lines are prefixed `# time:` and carry
no mathematical content.

Exit codes: 0 pass, 2 invalid input, 3 identity failure, 4 internal
consistency failure.

`run_suite` forms the curvature K = nabla^2 and A = [nabla, delta] first,
then follows one schedule, in which K's linearity check is a stage of
its own (curvature_mat does not run it).  A list of stages, in order the
later half of the even rows of A·A (when A^4 is a Chern-Weil word), K's
linearity check, the Chern-Weil words with a K letter and the commutator
check, gives its values to this process, which meanwhile forms the first
half of those rows and holds their sum (A^4 is then their square alone),
evaluates the pure powers of A, reads the check, adopts the supertraces
of the words with K, and sums Chern-Weil, runs the chain route (which
then forms nothing new) and the cycle check.  Only the transport
differs.  Where the commutator check forms more than
FORK_MIN_PAIRS term pairs and the process can fork, may use two CPUs and
runs one thread, a forked child runs every stage and pipes back each value
or the exception the stage raised; elsewhere (random instances, small
files) each stage runs in this process when its value is read.  Results
are the same either way, and so is the failure raised first: a failing
linearity check wins over a failure of any other stage.

`main` may be called many times in one process (the tests and the
benchmark do).  The argument parser is built once per process, on first
use and not at import, and every later call reuses it.  A subcommand is
dispatched by name: `main` runs the module's `cmd_<name>` as bound when it
is called, so a rebound `cmd_*` is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import resources

from .errors import (
    EngineError,
    IdentityFailure,
    InternalCheckFailure,
    InvalidInput,
)
from .forms import DiffForm, USeries, milnor_representative, relation_differential
from .groebner import (
    Capped,
    Infinite,
    buchberger,
    jacobian_ideal,
    standard_monomials,
)
from .hochschild import chern_via_chains
from .matform import Mat, WordEvaluator, restrict_rows, stored_terms
from .modules import (
    Connection,
    CurvedAlgebra,
    CurvedModule,
    IdentityVerdict,
    chern_power_series,
    chern_weil,
    check_curvature,
    chern_weil_words,
    commutator_check,
    connection_with_mu,
    covariant_derivative,
    curvature_mat,
    cycle_check,
    levi_civita,
)
from .randomgen import random_module_instance
from .rings import GradedRing, RingElement, _mono_str, _parse_entry

EXAMPLE_NAMES = ("mf-xy", "s4-nonflat")


# -- problem files -----------------------------------------------------


def strip_comments(text: str) -> str:
    """Drop `#`-prefixed lines so hand-written corpus files can carry notes."""
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )


def canonical_spec(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True)


@dataclass
class Instance:
    """A parsed and validated problem: everything a report needs."""

    label: str
    data: dict
    ring: GradedRing
    algebra: CurvedAlgebra
    module: CurvedModule
    connection: Connection
    connection_kind: str
    options: dict = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(canonical_spec(self.data).encode()).hexdigest()


def _require(cond: bool, clause: str) -> None:
    if not cond:
        raise InvalidInput(clause)


def _known_keys(block: dict, allowed: set, where: str) -> None:
    for key in block:
        _require(key in allowed, f"{where}: unknown key {key!r}")


def _is_int(value) -> bool:
    """A JSON integer (true and false are not numbers here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_square(rows, n: int, entry_ok) -> bool:
    """rows is a list of n lists of n entries, each passing entry_ok."""
    return (
        isinstance(rows, list)
        and len(rows) == n
        and all(
            isinstance(row, list) and len(row) == n and all(entry_ok(v) for v in row)
            for row in rows
        )
    )


def _is_poly_entry(value) -> bool:
    return isinstance(value, str) or _is_int(value)


def parse_form_entry(ring: GradedRing, text: str) -> DiffForm:
    """A one-form matrix entry such as `x*d(y) - y*d(x)`, or a zero such as
    `0`: read by the grammar of every entry string (rings._Parser), then
    refused unless each of its terms has form degree 1."""
    v = _parse_entry(ring, text)
    _require(
        all(mask.bit_count() == 1 for _, mask in v.groups),
        f"{text!r} is not a one-form (expected a sum of poly*d(var) terms)",
    )
    return DiffForm._make(ring, v.den, v.width, v.groups)


def _located(where: str, read, *args):
    """read(*args), an InvalidInput it raises prefixed with `where`, the
    place of the value in the problem file."""
    try:
        return read(*args)
    except InvalidInput as exc:
        raise InvalidInput(f"{where}: {exc}") from exc


def _entries(ring: GradedRing, where: str, rows, read) -> list:
    """The string entries of a matrix block read by read(ring, entry), each
    refusal prefixed with `where[s][t]`; integer entries kept as they are."""
    return [
        [v if _is_int(v) else _located(f"{where}[{s}][{t}]", read, ring, v) for t, v in enumerate(row)]
        for s, row in enumerate(rows)
    ]


def parse_instance(text: str, label: str) -> Instance:
    """Validate a problem file; every violated clause is named."""
    try:
        data = json.loads(strip_comments(text))
    # ValueError covers a syntax error and an integer literal past the
    # interpreter's digit limit; RecursionError, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"problem file is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "problem file: top level must be an object")
    known = {"ring", "curved", "module", "connection", "options"}
    for key in data:
        _require(key in known, f"problem file: unknown block {key!r}")
    _require("ring" in data, "problem file: missing ring block")
    _require("module" in data, "problem file: missing module block")

    rb = data["ring"]
    _require(isinstance(rb, dict), "ring block: must be an object")
    _known_keys(rb, {"grading", "variables", "degrees", "relation"}, "ring block")
    grading = rb.get("grading", "Z2")
    _require(grading in ("Z", "Z2"), "ring block: grading must be Z or Z2")
    variables = rb.get("variables")
    _require(
        isinstance(variables, list) and variables, "ring block: variables required"
    )
    _require(
        all(isinstance(v, str) for v in variables),
        "ring block: variable names must be strings",
    )
    degrees = rb.get("degrees", [0] * len(variables))
    _require(
        isinstance(degrees, list) and len(degrees) == len(variables),
        "ring block: one degree per variable required",
    )
    _require(all(_is_int(d) for d in degrees), "ring block: degrees must be integers")
    _require(
        rb.get("relation") is None or isinstance(rb["relation"], str),
        "ring block: relation must be a polynomial string",
    )
    ring = _located(
        "ring block", GradedRing, tuple(variables), tuple(degrees), grading, rb.get("relation")
    )
    _located("ring block", relation_differential, ring)

    cb = data.get("curved", {})
    _require(isinstance(cb, dict), "curved block: must be an object")
    _known_keys(cb, {"h"}, "curved block")
    h = cb.get("h", "0")
    _require(isinstance(h, str), "curved block: h must be a polynomial string")
    algebra = CurvedAlgebra(ring, _located("curved block: h", ring.from_string, h))

    mb = data["module"]
    _require(isinstance(mb, dict), "module block: must be an object")
    _known_keys(mb, {"degrees", "idempotent", "delta"}, "module block")
    _require("degrees" in mb and "delta" in mb, "module block: degrees and delta required")
    _require(
        isinstance(mb["degrees"], list) and all(_is_int(d) for d in mb["degrees"]),
        "module block: degrees must be a list of integers",
    )
    n = len(mb["degrees"])
    _require(
        _is_square(mb["delta"], n, _is_poly_entry),
        "module block: delta must be a square matrix of polynomial strings over the basis",
    )
    _require(
        mb.get("idempotent") is None or _is_square(mb["idempotent"], n, _is_poly_entry),
        "module block: idempotent must be a square matrix of polynomial strings over the basis",
    )
    stored = {
        key: _entries(ring, f"module block: {key}", mb[key], GradedRing.from_string)
        for key in ("delta", "idempotent")
        if mb.get(key) is not None
    }
    module = CurvedModule.from_stored(
        algebra, mb["degrees"], stored["delta"], idempotent_rows=stored.get("idempotent")
    )
    verdict = module.verdict()
    if not verdict.ok:
        raise InvalidInput("module block: " + "; ".join(verdict.failures))

    nb = data.get("connection", {"kind": "levi-civita"})
    _require(isinstance(nb, dict), "connection block: must be an object")
    kind = nb.get("kind", "levi-civita")
    if kind == "levi-civita":
        _known_keys(nb, {"kind"}, "connection block")
        connection = levi_civita(module)
    elif kind == "explicit":
        _known_keys(nb, {"kind", "mu"}, "connection block")
        _require("mu" in nb, "connection block: explicit kind requires mu rows")
        rows = nb["mu"]
        _require(
            _is_square(rows, len(module.degrees), lambda v: isinstance(v, str)),
            "connection block: mu must be a square matrix of one-form strings over the basis",
        )
        mu_rows = _entries(ring, "connection block: mu", rows, parse_form_entry)
        mu = Mat.from_stored(ring, module.degrees, mu_rows)
        connection = connection_with_mu(module, mu)
    else:
        raise InvalidInput("connection block: kind must be levi-civita or explicit")

    ob = data.get("options", {})
    _require(isinstance(ob, dict), "options block: must be an object")
    _known_keys(ob, {"milnor"}, "options block")
    _require(
        isinstance(ob.get("milnor", False), bool), "options block: milnor must be true or false"
    )
    return Instance(label, data, ring, algebra, module, connection, kind, dict(ob))


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read problem file: {exc}") from exc
    return parse_instance(text, path)


# -- serialization (random instances, for replay) ----------------------


def instance_to_spec(M: CurvedModule, C: Connection) -> dict:
    """Serialize a module/connection pair in the problem-file format."""
    ring = M.ring
    data: dict = {
        "ring": {
            "grading": ring.grading,
            "variables": list(ring.variables),
            "degrees": list(ring.degrees),
        },
        "curved": {"h": str(M.algebra.h)},
        "module": {
            "degrees": list(M.degrees),
            "idempotent": [[str(v.coefficient(0)) for v in row] for row in M.e.display()],
            "delta": [[str(v.coefficient(0)) for v in row] for row in M.delta.display()],
        },
    }
    if ring.relation is not None:
        data["ring"]["relation"] = str(ring.relation)
    if C.theta.is_zero():
        data["connection"] = {"kind": "levi-civita"}
    else:
        data["connection"] = {
            "kind": "explicit",
            "mu": [[str(v.coefficient(0)) for v in row] for row in C.theta.display()],
        }
    return data


# -- the invariant suite -----------------------------------------------


@contextmanager
def _exact_digits():
    """Convert integers of any length to text, as reports and failure
    messages print coefficients exactly; outside, the input readers keep
    the interpreter's limit, which refuses over-long integer literals."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@dataclass
class SuiteResult:
    """Everything cmd_compute and cmd_verify report."""

    ch_weil: USeries
    ch_chains: USeries
    routes_equal: bool
    first_mismatch: int | None
    cycle: IdentityVerdict
    commutator: IdentityVerdict
    milnor_f: RingElement | None = None
    milnor_rep: RingElement | None = None
    timing: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.routes_equal and self.cycle.ok and self.commutator.ok


# The suite runs in two processes only when it pays (cli module docstring).
# Forking a 25 MB process, piping a result back and reaping the child took
# 3-5 ms raw on a 2-core x86-64 host, and the work in the child took as
# long as in the parent (copy-on-write adds little).  The gate is sized by
# the commutator check alone: it costs ~1.2 us raw per term pair of
# delta·R and R·delta (s4-nonflat: 161 588 pairs, 160 496 by _check_pairs,
# in 0.19 s), so at this many pairs it takes ~24 ms, about five times what
# the fork costs.  The child's share, all of run_suite's stages, is larger
# than that, so the gate errs on the side of not forking.  Random instances
# reach at most 715 by _check_pairs (seeds 0-999).
FORK_MIN_PAIRS = 20_000


def _check_pairs(delta: Mat, K: Mat, A: Mat) -> int:
    """The term pairs delta·R and R·delta form in the commutator residue,
    estimated as 2·T(delta)·T(R)/n, T(X) the terms X stores and n the
    rank: a term of delta meets the terms of one row or column of R, about
    T(R)/n.  R = u·K + A stores K's terms and A's, at different u-powers."""

    def terms(X: Mat) -> int:
        return sum(stored_terms(v) for row in X.rows for v in row.values())

    return 2 * terms(delta) * (terms(K) + terms(A)) // len(delta.rows)


def _forks(delta: Mat, K: Mat, A: Mat) -> bool:
    """Whether run_suite runs its stages in a forked child (cli module
    docstring): the platform forks, the process may use two CPUs and runs
    one thread (a fork copies only the calling thread), and the commutator
    check forms more than FORK_MIN_PAIRS term pairs (_check_pairs of delta,
    K = nabla^2 and A = [nabla, delta])."""
    if _check_pairs(delta, K, A) <= FORK_MIN_PAIRS:  # small modules: no system call
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1


def _timed(stage, *args, **kwargs) -> tuple:
    """(stage(*args, **kwargs), the seconds it took)."""
    t0 = time.monotonic()
    return stage(*args, **kwargs), time.monotonic() - t0


def _chern_weil_share(M: CurvedModule, C: Connection, K: Mat, words: WordEvaluator,
                      with_k: bool) -> dict:
    """Evaluate through `words` the Chern-Weil words (chern_weil_words)
    that contain a K letter if with_k, else the pure powers of A; returns
    the supertraces `words` then holds, its classes()."""
    sums = chern_weil_words(M, C, words)
    k = words.letter(K)
    for w in sums:
        if (k in w) == with_k:
            words.supertrace(w)
    return words.classes()


def _even_rows_half(A: Mat, later: bool) -> Mat:
    """The rows of P_0(A·A), the even rows of A·A, for the first ceil(m/2)
    of A's m rows of even basis degree, or for the later floor(m/2) if
    `later`; every other row is empty.  Row t of a product depends only on
    row t of its left factor (Gustavson, ACM TOMS 4(3), 1978), so the sum
    of the two halves is P_0(A·A) entry for entry."""
    even = [t for t, d in enumerate(A.target_degrees) if d % 2 == 0]
    cut = (len(even) + 1) // 2
    return restrict_rows(A, even[cut:] if later else even[:cut]) @ A


@contextmanager
def _run_stages(ring: GradedRing, stages: list, first: int, fork: bool):
    """Run `stages`, pairs (missing, stage) with stage() not None, in
    order: in a forked child if `fork`, else in this process as the block
    reads each value.  Yields receive(): the next stage's value, or what the
    stage raised (same type, same message), or InternalCheckFailure(missing)
    if the child sent nothing for it.  Should the block raise before it read
    stage `first`, the stages up to `first` are read, and the exception of
    stage `first`, if it raised one, is raised in place of the block's.

    A forked child runs every stage, a failing one too, and pickles each
    outcome down a pipe; values of `ring` travel without it and arrive on
    this process's ring object.  On leaving the block the child is reaped,
    and killed first if a value was never read."""

    def run_here():
        """Each stage's value, or the exception it raised, in order."""
        for _, stage in stages:
            try:
                yield stage()
            except Exception as exc:
                yield exc

    outcomes = run_here()
    if fork:
        # imported here: only a run that forks needs it, and it adds ~0.25 MB
        # to the peak memory of every other run
        import pickle

        class Pickler(pickle.Pickler):
            def persistent_id(self, obj):
                return "ring" if obj is ring else None

        class Unpickler(pickle.Unpickler):
            def persistent_load(self, pid):
                return ring

        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                with os.fdopen(w, "wb") as fh:
                    for out in outcomes:
                        Pickler(fh).dump(out)
                        fh.flush()
            finally:
                # leave without the parent's atexit handlers, buffer flushes or test teardown
                os._exit(0)
        os.close(w)
        reader = os.fdopen(r, "rb")

        def arrive():
            """The child's next message; None if it sent nothing, or cut it short."""
            try:
                return Unpickler(reader).load()
            except (EOFError, pickle.UnpicklingError):
                return None

        outcomes = (arrive() for _ in stages)
    got = []  # the outcomes received so far, in order

    def receive():
        got.append(next(outcomes))
        if got[-1] is None:
            raise InternalCheckFailure(stages[len(got) - 1][0])
        if isinstance(got[-1], Exception):
            raise got[-1]
        return got[-1]

    try:
        yield receive
    except Exception:
        while len(got) <= first:
            got.append(next(outcomes))
        if isinstance(got[first], Exception):
            raise got[first]
        raise
    finally:
        if fork:
            reader.close()
            if len(got) < len(stages):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# bound is ignored: perfbench/workloads.py and perfbench/make_reference.py still pass it
@_exact_digits()
def run_suite(M: CurvedModule, C: Connection, *, bound=None, milnor: bool = False) -> SuiteResult:
    """Both routes and both identity checks on (M, C), as the cli module
    docstring says; the result, and the failure raised first, are the same
    whether the stages run in a forked child (_forks) or not.  `timing`
    holds each stage's own seconds: curvature (forming K, which C then
    holds for the later stages, and its linearity check, the check
    measured where it ran), chern_weil (A and the words, with the
    wait for a forked child's rows of A·A and supertraces, less the time
    spent reading the check), chern_via_chains, and identity_checks, the
    cycle check's time plus the commutator check's, measured where it ran.
    """
    timing: dict[str, float] = {}
    # one evaluator for both routes: a word they share is evaluated once
    words = WordEvaluator()
    # K and A are held on C for every stage below
    K, k_s = _timed(curvature_mat, C)
    A, a_s = _timed(covariant_derivative, C, M.delta, 1)
    # A and K are interned here, so a forked copy of `words` has the same
    # letter ids; only A^4's supertrace squares the even rows of A·A
    a = words.letter(A)
    halves = (a,) * 4 in chern_weil_words(M, C, words)
    check = ("the forked process sent no curvature check",
             lambda: _timed(check_curvature, C, K)[1])
    stages = [
        check,
        ("the forked process sent no Chern-Weil classes",
         lambda: _chern_weil_share(M, C, K, words, True)),
        ("the commutator check's process sent no verdict",
         lambda: _timed(commutator_check, M, C)),
    ]
    if halves:
        rows = ("the forked process sent no rows of A·A", lambda: _even_rows_half(A, True))
        stages.insert(0, rows)
    # a failing linearity check is raised first, as if it ran first
    with _run_stages(M.ring, stages, stages.index(check), _forks(M.delta, K, A)) as receive:
        t0 = time.monotonic()
        if halves:
            words.hold((a, a), 0, _even_rows_half(A, False) + receive())
        _chern_weil_share(M, C, K, words, False)
        check_s, read_s = _timed(receive)
        timing["curvature"] = k_s + check_s
        words.adopt(receive())
        ch_weil = chern_weil(M, C, words)
        timing["chern_weil"] = a_s + time.monotonic() - t0 - read_s
        ch_chains, timing["chern_via_chains"] = _timed(chern_via_chains, M, C, words=words)
        cycle, cycle_s = _timed(cycle_check, M, ch_weil)
        commutator, commutator_s = receive()
    timing["identity_checks"] = cycle_s + commutator_s
    diff = ch_weil - ch_chains
    routes_equal = diff.is_zero()
    first_mismatch = None if routes_equal else diff.u_powers()[0]
    result = SuiteResult(
        ch_weil, ch_chains, routes_equal, first_mismatch, cycle, commutator,
        timing=timing,
    )
    if milnor:
        f = -M.algebra.h
        if f.is_zero():
            raise InvalidInput("milnor reduction needs a nonzero curvature h")
        top = ch_weil.coefficient(0).component(M.ring.nvars)
        result.milnor_f = f
        result.milnor_rep = milnor_representative(top, f)
    return result


@_exact_digits()
def _raise_on_failure(res: SuiteResult) -> None:
    if not res.routes_equal:
        J = res.first_mismatch
        raise IdentityFailure(
            f"route mismatch at u^{J}: chern-weil gives "
            f"{res.ch_weil.coefficient(J)}, chain route gives "
            f"{res.ch_chains.coefficient(J)}"
        )
    if not res.cycle.ok:
        raise IdentityFailure(f"cycle check failed: {res.cycle.detail}")
    if not res.commutator.ok:
        raise IdentityFailure(f"commutator check failed: {res.commutator.detail}")


# -- reports -----------------------------------------------------------


def _verdict_text(v: IdentityVerdict) -> str:
    mode = v.mode if not v.detail else f"{v.mode}, {v.detail}"
    return f"{'ok' if v.ok else 'FAIL'} [{mode}]"


def _useries_lines(p: USeries) -> list[str]:
    if p.is_zero():
        return ["  (zero)"]
    coeffs = p.coeffs
    return [f"  u^{J}: {coeffs[J]}" for J in sorted(coeffs)]


@_exact_digits()
def render_report(inst: Instance, res: SuiteResult, *, timing: bool = True) -> str:
    ring = inst.ring
    weil = _useries_lines(res.ch_weil)
    # equal routes are equal series, whose printing is the same
    chains = weil if res.routes_equal else _useries_lines(res.ch_chains)
    trace_e = ring.zero()
    for k in range(len(inst.module.degrees)):
        trace_e = trace_e + inst.module.e.entry(k, k).coefficient(0).coefficient(())
    lines = [
        "curvedchern report",
        "==================",
        f"input: {inst.label}",
        f"sha256: {inst.sha256}",
        f"ring: {', '.join(ring.variables)} | grading {ring.grading}"
        f" | degrees {', '.join(str(d) for d in ring.degrees)}"
        f" | relation: {ring.relation if ring.relation is not None else 'none'}",
        f"h: {inst.algebra.h}",
        f"module: ambient rank {len(inst.module.degrees)}"
        f" | trace(e) = {trace_e}"
        f" | basis degrees {', '.join(str(d) for d in inst.module.degrees)}",
        f"connection: {inst.connection_kind}",
        "check_module: ok",
        f"realized curvature: delta^2 = -(h)*e with h = {inst.algebra.h} [exact]",
        "chern character (chern-weil):",
        *weil,
        "chern character (chain route):",
        *chains,
        f"route agreement: {'exact' if res.routes_equal else 'MISMATCH'}",
        f"cycle check (u*d + dh): {_verdict_text(res.cycle)}",
        f"commutator check ([u*nabla + delta, R] = dh*e): {_verdict_text(res.commutator)}",
    ]
    if res.milnor_rep is not None:
        lines.append(
            f"milnor representative (u^0 top part, f = {res.milnor_f}): {res.milnor_rep}"
        )
    lines.extend(["input echo:", canonical_spec(inst.data)])
    if timing:
        for name in sorted(res.timing):
            lines.append(f"# time: {name} {res.timing[name]:.3f}s")
    return "\n".join(lines) + "\n"


@_exact_digits()
def render_json(inst: Instance, res: SuiteResult) -> str:
    weil = {f"u^{J}": str(f) for J, f in res.ch_weil.coeffs.items()}
    doc = {
        "input": inst.label,
        "sha256": inst.sha256,
        "spec": inst.data,
        "chern_weil": weil,
        # equal routes are equal series, whose printing is the same
        "chern_chains": weil if res.routes_equal else {
            f"u^{J}": str(f) for J, f in res.ch_chains.coeffs.items()
        },
        "route_agreement": res.routes_equal,
        "cycle_check": asdict(res.cycle),
        "commutator_check": asdict(res.commutator),
        "milnor_representative": (
            None if res.milnor_rep is None else str(res.milnor_rep)
        ),
        "timing": {k: round(v, 6) for k, v in res.timing.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- subcommands -------------------------------------------------------


def cmd_compute(args) -> int:
    inst = load_instance(args.file)
    milnor = bool(args.milnor or inst.options.get("milnor"))
    res = run_suite(inst.module, inst.connection, milnor=milnor)
    if args.json:
        sys.stdout.write(render_json(inst, res))
    else:
        sys.stdout.write(render_report(inst, res))
    _raise_on_failure(res)
    return 0


def cmd_verify(args) -> int:
    if args.random is not None and args.file is not None:
        raise InvalidInput("verify takes a problem file or --random N --seed S, not both")
    if args.random is not None:
        if args.seed is None:
            raise InvalidInput("--random requires an explicit --seed")
        if args.random < 1:
            raise InvalidInput(
                f"--random needs a positive instance count, got {args.random}"
            )
        return _verify_random(args.random, args.seed)
    if args.seed is not None:
        raise InvalidInput("--seed needs --random N")
    if args.file is None:
        raise InvalidInput("verify needs a problem file or --random N --seed S")
    inst = load_instance(args.file)
    res = run_suite(inst.module, inst.connection)
    print(f"verify {inst.label}")
    print("PASS check_module")
    print(f"{'PASS' if res.routes_equal else 'FAIL'} route equivalence")
    print(f"{'PASS' if res.cycle.ok else 'FAIL'} cycle check [{res.cycle.mode}]")
    print(
        f"{'PASS' if res.commutator.ok else 'FAIL'} commutator check"
        f" [{res.commutator.mode}]"
    )
    _raise_on_failure(res)
    return 0


def _verify_random(count: int, seed: int) -> int:
    for k in range(count):
        s = seed + k
        M, C = random_module_instance(s)
        res = run_suite(M, C)
        series = _power_series_mismatch(M, C, res.ch_weil) if res.ok else None
        status = "PASS" if res.ok and series is None else "FAIL"
        powers = ",".join(str(J) for J in res.ch_weil.u_powers()) or "-"
        print(
            f"{status} instance {k:02d} (seed {s}): ring {len(M.ring.variables)} vars"
            f" {M.ring.grading}, rank {len(M.degrees)}, u-powers {powers}"
        )
        if status == "FAIL":
            out = f"failing-instance-{s}.json"
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(instance_to_spec(M, C), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"failing instance written to {out}")
            _raise_on_failure(res)
            raise IdentityFailure(series)
    print(f"all {count} random instances passed")
    return 0


@_exact_digits()
def _power_series_mismatch(M: CurvedModule, C: Connection, ch: USeries) -> str | None:
    """None when ch equals modules.chern_power_series, else the failure
    message at the first u-power where they differ."""
    series = chern_power_series(M, C)
    diff = ch - series
    if diff.is_zero():
        return None
    J = diff.u_powers()[0]
    return (
        f"power-series check failed: u^{J}: chern-weil gives {ch.coefficient(J)},"
        f" power series gives {series.coefficient(J)}"
    )


def _corpus_text(filename: str) -> str:
    return (resources.files("curvedchern") / "corpus" / filename).read_text(
        encoding="utf-8"
    )


def _load_golden(name: str) -> str:
    return _corpus_text(f"{name.replace('-', '_')}.golden.txt")


def cmd_examples(args) -> int:
    name = args.name
    if name not in EXAMPLE_NAMES:
        raise InvalidInput(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    inst = parse_instance(
        _corpus_text(f"{name.replace('-', '_')}.json"), f"examples:{name}"
    )
    res = run_suite(inst.module, inst.connection, milnor=bool(inst.options.get("milnor")))
    report = render_report(inst, res, timing=False)
    sys.stdout.write(report)
    _raise_on_failure(res)
    golden = _load_golden(name)
    if report != golden:
        print("golden report mismatch:")
        gotn = report.splitlines()
        want = golden.splitlines()
        for k in range(max(len(gotn), len(want))):
            g = gotn[k] if k < len(gotn) else "<missing>"
            w = want[k] if k < len(want) else "<missing>"
            if g != w:
                print(f"  line {k + 1}: got  {g}")
                print(f"  line {k + 1}: want {w}")
        raise InternalCheckFailure(f"report for {name} differs from its golden file")
    print("golden: match")
    return 0


def cmd_milnor(args) -> int:
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise InvalidInput("--vars needs a comma-separated list of variable names")
    ring = GradedRing(tuple(names), (0,) * len(names), grading="Z2")
    f = ring.from_string(args.poly)
    G = buchberger(jacobian_ideal(f))
    print(f"f = {f}")
    print("jacobian groebner basis:")
    for g in G.elements:
        print(f"  {g}")
    sm = standard_monomials(G)
    if isinstance(sm, Infinite):
        print(f"standard monomials: infinite ({sm.reason})")
        print("milnor number: infinite (non-isolated critical locus)")
        return 0
    if isinstance(sm, Capped):
        print(f"standard monomials: more than {sm.cap} (not listed)")
        print(f"milnor number: more than {sm.cap} (finite: isolated critical point)")
        return 0
    shown = ", ".join(_mono_str(ring, m) or "1" for m in sm) or "(none)"
    print(f"standard monomials: {shown}")
    # the standard monomials are a basis of the Milnor algebra
    print(f"milnor number: {len(sm)}")
    return 0


# -- entry point -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a polynomial such as "-x^2+y^2" reads as an unknown option
        if message.startswith("the following arguments are required") and "poly" in message:
            message += (
                "; a polynomial that starts with '-' goes after '--',"
                ' as in: milnor --vars x,y -- "-x^2+y^2"'
            )
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands, built once per process on first
    use; every call returns that same parser.  Parsing leaves it unchanged,
    and the parsed `command` names the subcommand: main dispatches by that
    name, so the parser holds no reference to the `cmd_*` functions."""
    parser = argparse.ArgumentParser(
        prog="curvedchern",
        description="Exact Chern characters of curved modules, two ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compute", help="run both routes on a problem file")
    p.add_argument("file")
    p.add_argument("--milnor", action="store_true", help="reduce the u^0 top form")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="invariant suite on a file or random instances")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None, metavar="S")

    p = sub.add_parser("examples", help="run a built-in example against its golden report")
    p.add_argument("name", help=f"one of: {', '.join(EXAMPLE_NAMES)}")

    p = sub.add_parser("milnor", help="Milnor number of an isolated singularity")
    p.add_argument("poly")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code.  The parser is built
    on the first call in a process and reused; the subcommand runs as the
    `cmd_<command>` this module holds at the time of the call, looked up by
    name, so a rebound one (a test's monkeypatch, a tracer's wrapper) runs."""
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except IdentityFailure as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 3
    except InternalCheckFailure as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
