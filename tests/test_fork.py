"""The suite's stages in a forked child: on s4 the child forms half of
the even rows of A·A, runs the curvature's linearity check, evaluates the
Chern-Weil words that contain K = nabla^2 and runs the commutator check,
and the suite gives the same result as when those stages run in this
process; a child that raises or dies in any stage keeps the exit-code
contract, and a failing check is raised first in either process, though
the child runs every stage; the even rows of A·A are split only where A^4
squares them; the Chern-Weil words are listed once, before the fork; no
child outlives its suite; and random instances, the small corpus file
and `milnor` never fork."""

from __future__ import annotations

import contextlib
import functools
import io
import os
import time
from importlib.resources import files

import pytest

from curvedchern import cli, modules
from curvedchern.errors import IdentityFailure, InternalCheckFailure, InvalidInput
from curvedchern.matform import Mat, WordEvaluator

from util import not_a_derivation

CORPUS = files("curvedchern") / "corpus"


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process while the test runs."""
    pids = []
    plain = os.fork

    def spy():
        pid = plain()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _s4_suite():
    inst = cli.parse_instance(cli._corpus_text("s4_nonflat.json"), "s4")
    return cli.run_suite(inst.module, inst.connection, **inst.options)


def test_the_forked_s4_suite_matches_the_in_process_one(forks, monkeypatch):
    forked = _s4_suite()
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(cli, "_forks", lambda *mats: False)
    here = _s4_suite()
    assert len(forks) == 1
    assert forked.ch_weil == here.ch_weil and forked.ch_chains == here.ch_chains
    assert (forked.routes_equal, forked.first_mismatch) == (here.routes_equal, here.first_mismatch)
    # both verdicts field for field: ok, mode and detail
    assert (forked.cycle, forked.commutator) == (here.cycle, here.commutator)
    assert forked.commutator.mode == "mod-relation" and forked.commutator.detail == ""
    assert (forked.milnor_f, forked.milnor_rep) == (here.milnor_f, here.milnor_rep)
    assert sorted(forked.timing) == sorted(here.timing)
    assert forked.ok


def _raising(exc):
    def stage(*args, **kwargs):
        raise exc

    return stage


def _forked_only(plain, stage):
    """plain, with stage in its place in a forked child."""
    parent = os.getpid()

    def run(*args, **kwargs):
        return (plain if os.getpid() == parent else stage)(*args, **kwargs)

    return run


@pytest.mark.parametrize(
    "stage, check, corpus, code, message",
    [
        ("commutator_check", _raising(InvalidInput("bad in the child")), "mf_xy", 2,
         "invalid input: bad in the child\n"),
        ("commutator_check", _raising(IdentityFailure("fails in the child")), "mf_xy", 3,
         "identity failure: fails in the child\n"),
        # dies without writing a verdict
        ("commutator_check", lambda M, C: os._exit(1), "mf_xy", 4,
         "internal consistency failure: the commutator check's process sent no verdict\n"),
        # the curvature's linearity check, the child's first stage on mf-xy
        ("check_curvature", _raising(IdentityFailure("check fails in the child")), "mf_xy", 3,
         "identity failure: check fails in the child\n"),
        # dies before it sends the seconds of its check
        ("check_curvature", lambda C, K: os._exit(1), "mf_xy", 4,
         "internal consistency failure: the forked process sent no curvature check\n"),
        # its half of the even rows of A·A, the child's first stage on s4
        # (mf-xy, with two variables, has no A^4 and no rows to split)
        ("_even_rows_half", _raising(IdentityFailure("rows fail in the child")), "s4_nonflat", 3,
         "identity failure: rows fail in the child\n"),
        # dies before it sends its rows
        ("_even_rows_half", lambda A, later: os._exit(1), "s4_nonflat", 4,
         "internal consistency failure: the forked process sent no rows of A·A\n"),
    ],
    ids=["invalid-input", "identity-failure", "no-verdict", "check-identity-failure", "no-check",
         "rows-identity-failure", "no-rows"],
)
def test_what_the_child_raises_keeps_the_exit_code(forks, monkeypatch, stage, check, corpus, code,
                                                    message):
    # forced onto the fork path; the replacement acts in the child only,
    # as on s4 this process forms its own half of the rows through the
    # same function
    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    monkeypatch.setattr(cli, stage, _forked_only(getattr(cli, stage), check))
    assert _main("compute", str(CORPUS / f"{corpus}.json"))[::2] == (code, message)
    assert len(forks) == 1
    _no_child_left()


def test_a_forked_run_without_a4_forms_no_rows_of_a_a(forks, monkeypatch):
    # mf-xy has two variables, so no Chern-Weil word is A^4 and nothing
    # reads P_0(A·A): neither process forms a half of it (the child's
    # stages are the list this process built, without the rows)
    calls = []
    plain = cli._even_rows_half
    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    monkeypatch.setattr(cli, "_even_rows_half", lambda A, later: calls.append(later) or plain(A, later))
    assert _main("compute", str(CORPUS / "mf_xy.json"))[0] == 0
    assert calls == []
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize(
    "corpus, fork",
    [("mf_xy", False), ("mf_xy", True), ("s4_nonflat", True)],
    ids=["mf-xy-in-process", "mf-xy-forked", "s4-forked"],
)
def test_the_chern_weil_words_are_listed_once_per_suite(forks, monkeypatch, tmp_path, corpus, fork):
    # this process lists them before any fork, once for the suite's one
    # key, on an empty cache; both Chern-Weil shares, in whichever
    # process, and the final sum read that one list
    record, plain = tmp_path / "listed", modules._word_list.__wrapped__

    def spy(*key):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {key}\n")
        return plain(*key)

    monkeypatch.setattr(modules, "_word_list", functools.cache(spy))
    monkeypatch.setattr(cli, "_forks", lambda *mats: fork)
    inst = cli.parse_instance(cli._corpus_text(f"{corpus}.json"), corpus)
    assert cli.run_suite(inst.module, inst.connection, **inst.options).ok
    listed = record.read_text(encoding="utf-8").splitlines()
    assert len(listed) == 1 and listed[0].split()[0] == str(os.getpid())
    assert len(forks) == fork
    _no_child_left()


def test_in_one_process_the_check_counts_in_curvature_only(forks, monkeypatch):
    # the check runs when the suite reads it, after the pure powers of A,
    # but its seconds are not Chern-Weil's
    monkeypatch.setattr(cli, "_forks", lambda *mats: False)
    monkeypatch.setattr(cli, "check_curvature", lambda C, K: time.sleep(0.3))
    inst = cli.parse_instance(cli._corpus_text("mf_xy.json"), "mf-xy")
    timing = cli.run_suite(inst.module, inst.connection, **inst.options).timing
    assert timing["curvature"] >= 0.3
    assert timing["chern_weil"] < 0.3
    assert forks == []


def _in_the_child(act):
    """WordEvaluator.supertrace that runs act() first in a forked child and
    evaluates as before in this process."""
    parent = os.getpid()
    plain = WordEvaluator.supertrace

    def supertrace(self, word):
        if os.getpid() != parent:
            act()
        return plain(self, word)

    return supertrace


@pytest.mark.parametrize(
    "act, code, message",
    [
        (_raising(InvalidInput("bad word")), 2, "invalid input: bad word\n"),
        (_raising(IdentityFailure("word fails")), 3, "identity failure: word fails\n"),
        (_raising(InternalCheckFailure("word broke")), 4, "internal consistency failure: word broke\n"),
        # dies before it sends its classes
        (lambda: os._exit(1), 4,
         "internal consistency failure: the forked process sent no Chern-Weil classes\n"),
    ],
    ids=["invalid-input", "identity-failure", "internal", "no-classes"],
)
def test_what_the_child_word_stage_raises_keeps_the_exit_code(forks, monkeypatch, act, code, message):
    # s4, whose child has words with K to evaluate
    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    monkeypatch.setattr(WordEvaluator, "supertrace", _in_the_child(act))
    assert _main("compute", str(CORPUS / "s4_nonflat.json"))[::2] == (code, message)
    assert len(forks) == 1
    _no_child_left()


def _in_this_process(act):
    """WordEvaluator.supertrace that runs act() first in this process and
    evaluates as before in a forked child."""
    parent = os.getpid()
    plain = WordEvaluator.supertrace

    def supertrace(self, word):
        if os.getpid() == parent:
            act()
        return plain(self, word)

    return supertrace


NONLINEAR = "internal consistency failure: curvature fails linearity in x2 on column 4\n"


# (id, nonlinear, rows_raise, parent_raises, message)
_PRECEDENCE = [
    ("nonlinear", True, False, False, NONLINEAR),
    # the check's failure comes first, though this process evaluates the
    # pure powers of A before it reads the check
    ("nonlinear-and-words-raise", True, False, True, NONLINEAR),
    # and though the child's rows of A·A come before the check, and the
    # child goes on to its later stages after either fails
    ("nonlinear-and-child-rows-raise", True, True, False, NONLINEAR),
    ("nonlinear-and-both-raise", True, True, True, NONLINEAR),
    # a check that passes leaves the words' own failure standing
    ("words-raise", False, False, True, "internal consistency failure: word broke\n"),
]


@pytest.mark.parametrize(
    "fork, nonlinear, rows_raise, parent_raises, message",
    [
        pytest.param(fork, *case, id=f"{name}-{'forked' if fork else 'in-process'}")
        for name, *case in _PRECEDENCE
        for fork in (True, False)
        # one process has no child to raise in its rows
        if fork or not case[1]
    ],
)
def test_the_curvature_check_fails_first_in_either_process(
    forks, monkeypatch, fork, nonlinear, rows_raise, parent_raises, message
):
    # s4 under the mutant of D that the linearity check names as x2 on
    # column 4 (tests/test_modules.py); the check is the second stage,
    # after the later rows of A·A, whether a child runs the stages or this
    # process does, and this process forms its own rows and evaluates the
    # pure powers of A before it reads the check, so when they raise, the
    # check is read before their failure is raised
    monkeypatch.setattr(cli, "_forks", lambda *mats: fork)
    if nonlinear:
        monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation((1,), 1, True))
    if rows_raise:
        monkeypatch.setattr(cli, "_even_rows_half", _forked_only(
            cli._even_rows_half, _raising(InternalCheckFailure("rows broke"))))
    if parent_raises:
        monkeypatch.setattr(
            WordEvaluator, "supertrace", _in_this_process(_raising(InternalCheckFailure("word broke")))
        )
    assert _main("compute", str(CORPUS / "s4_nonflat.json"))[::2] == (4, message)
    assert len(forks) == int(fork)
    _no_child_left()


def test_a_failing_parent_stage_kills_and_reaps_the_child(forks, monkeypatch):
    monkeypatch.setattr(cli, "_forks", lambda *mats: True)
    monkeypatch.setattr(cli, "commutator_check", lambda M, C: time.sleep(60))
    monkeypatch.setattr(cli, "chern_via_chains", _raising(InternalCheckFailure("chain route broke")))
    t0 = time.monotonic()
    code, _, err = _main("compute", str(CORPUS / "mf_xy.json"))
    assert (code, err) == (4, "internal consistency failure: chain route broke\n")
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _no_child_left()


def test_random_instances_the_small_file_and_milnor_never_fork(forks):
    assert _main("verify", "--random", "300", "--seed", "0")[0] == 0
    assert _main("compute", str(CORPUS / "mf_xy.json"))[0] == 0
    assert _main("milnor", "x^3+y^4+z^5+x*y^2*z", "--vars", "x,y,z")[0] == 0
    assert forks == []
