"""`split.Sibling`: `parts` returns [run(*part) for part in parts], the second
of two parts run in a process forked by the first such call, and a `with`
block runs the caller inside `one_half` and reaps the sibling."""

import contextlib
import os

import pytest

from ringskip import split


def where(x):
    return os.getpid(), x


class Unpicklable(Exception):
    """Pickles, but unpickling calls the class with one argument and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.fixture
def forks(monkeypatch):
    """The process id of each `os.fork` call made in this process."""
    made, real = [], os.fork

    def counting():
        made.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_part_forks_nothing(cpus, forks):
    cpus(2)
    with split.Sibling(where) as sibling:
        assert sibling.parts([("a",)]) == [(os.getpid(), "a")]
        assert sibling.parts([]) == []
    assert forks == [] and sibling.peak_rss_mb is None
    assert_no_child_left()


def test_two_parts_fork_once_and_return_in_part_order(cpus, forks):
    cpus(2)
    here = os.getpid()
    with split.Sibling(where) as sibling:
        (first, a), (other, b) = sibling.parts([("a",), ("b",)])
        later = sibling.parts([("c",), ("d",)])
        alone = sibling.parts([("e",)])
    assert forks == [here]
    assert (first, a, b) == (here, "a", "b") and other != here
    assert later == [(here, "c"), (other, "d")]  # the same sibling serves every call
    assert alone == [(here, "e")]
    assert sibling.peak_rss_mb > 0
    assert_no_child_left()


@pytest.mark.parametrize("case", ["one CPU", "inside a half"])
def test_nothing_forks_where_the_split_runs_inline(cpus, forks, case):
    cpus(1 if case == "one CPU" else 2)
    ran = []

    def run(x):
        ran.append(x)
        return where(x)

    with split.one_half() if case == "inside a half" else contextlib.nullcontext():
        with split.Sibling(run) as sibling:
            assert sibling.parts([("a",), ("b",)]) == [(os.getpid(), "a"), (os.getpid(), "b")]
    assert ran == ["a", "b"]
    assert forks == [] and sibling.peak_rss_mb is None


@pytest.mark.parametrize("failing", [0, 1])
def test_an_error_in_either_part_reaches_the_caller(cpus, forks, failing):
    """The second part's error is chained to the sibling's traceback. Either
    way the sibling's reply has been read, so the next call gets its own."""
    cpus(2)

    def run(i):
        if i == failing:
            raise ValueError(f"part {i} failed")
        return i

    with split.Sibling(run) as sibling:
        for _ in range(2):
            with pytest.raises(ValueError, match=f"part {failing} failed") as raised:
                sibling.parts([(0,), (1,)])
            cause = raised.value.__cause__
            if failing == 1:
                assert isinstance(cause, RuntimeError)
                assert "raised in the sibling process" in str(cause)
                assert "part 1 failed" in str(cause)
            else:
                assert cause is None
        assert sibling.parts([(2,), (3,)]) == [2, 3]
    assert len(forks) == 1
    assert_no_child_left()


def test_an_error_that_does_not_unpickle_comes_back_named(cpus):
    cpus(2)

    def run(i):
        if i == 1:
            raise Unpicklable("odd", "error")
        return i

    with pytest.raises(RuntimeError, match="Unpicklable: odd error"):
        with split.Sibling(run) as sibling:
            sibling.parts([(0,), (1,)])
    assert_no_child_left()


def test_a_with_block_runs_the_caller_inside_one_half(cpus):
    cpus(2)
    assert split.can_split()
    with split.Sibling(where):
        assert not split.can_split()
    assert split.can_split()
    with pytest.raises(KeyError):
        with split.Sibling(where):
            assert not split.can_split()
            raise KeyError("left by an exception")
    assert split.can_split()
