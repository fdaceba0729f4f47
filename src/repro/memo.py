"""Memos that live for one dependence-graph build.

A few hot-path memos key on one routine's objects (its loop stacks,
the loop contexts and rename maps built over them): they hit across
the pairs of a routine and not across routines, and every entry pins
the routine's IR.  :func:`routine_memo` makes such a memo, and
:func:`~repro.graph.depgraph.build_dependence_graph` empties all of
them with :func:`release_routine_memos` when it returns (as does the
study's pair census after each routine), so memory follows the routine
being analyzed rather than the whole walk.

Memos keyed by value (the ``LinearExpr`` pool, the linearization and
rename memos) hit across routines and stay process-wide.
"""

from __future__ import annotations

from typing import List

_ROUTINE_MEMOS: List[dict] = []


def routine_memo() -> dict:
    """A new memo dict, emptied at the end of every graph build."""
    memo: dict = {}
    _ROUTINE_MEMOS.append(memo)
    return memo


def release_routine_memos() -> None:
    """Empty every routine memo (the end of a graph build)."""
    for memo in _ROUTINE_MEMOS:
        memo.clear()
