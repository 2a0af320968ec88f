"""Deterministic fault injection for the pool executor.

Recovery code that can only be exercised by real hardware failures is
recovery code that is never exercised.  This module gives the crash /
soak / golden suites a *deterministic* way to kill, wedge, or stall a
pool worker at an exact point of the Map → shuffle-out → shuffle-in →
Reduce state machine, replacing the ad-hoc ``os._exit`` mapper
subclasses the earlier crash tests monkeypatched in.  A plan is a plain
string (so it travels through ``repro render --fault-plan``, the
executor's ``fault_plan`` and a worker's spawn ``cfg`` dict unchanged)
with the grammar::

    plan   := rule ( ';' rule )*
    rule   := action '@' stage ( ':' cond ( ',' cond )* )?
    action := 'crash' | 'exit' [ '(' code ')' ] | 'stall' '(' seconds ')'
    stage  := 'map' | 'shuffle-out' | 'shuffle-in' | 'reduce'
    cond   := ('worker'|'frame'|'chunk') '=' int | 'gen' '=' ( int | 'any' )

Condition values are validated at parse time: ``frame`` is the
pipeline frame sequence number in **1-based submission order** (the
first submitted frame is ``frame=1``), so ``frame=0`` — a rule that
could never fire — is rejected, as are negative ``worker``/``chunk``
ids and non-integer ``exit()`` codes.

Examples::

    crash@map:worker=1,frame=2          # hard-kill worker 1 mapping frame 2
    exit(3)@shuffle-out:worker=0        # graceful exit before shuffling out
    stall(5)@shuffle-in:worker=1        # sleep 5 s before draining edges
    crash@reduce:worker=0,gen=any       # re-crash every respawned replacement

Semantics:

* ``crash`` calls ``os._exit`` — no cleanup, the way a segfault or OOM
  kill looks to the parent.  ``exit(code)`` raises ``SystemExit`` so
  the worker's ``finally`` teardown (arena detach, ring/edge unlink)
  still runs — the way an external SIGTERM looks.  ``stall(seconds)``
  sleeps in place, long enough (by construction of the test) to trip a
  ring-write or watermark timeout.
* Every condition must match for a rule to fire; omitted conditions
  match anything.  ``frame`` is the pipeline frame sequence number
  (1-based submission order), ``chunk`` the chunk *index* within its
  frame, ``worker`` the worker id.
* ``gen`` is the worker's **spawn generation**: 0 for the pool's first
  wave of processes, incremented on every supervised respawn wave.  It
  defaults to 0, so an injected fault fires on the first attempt and
  the respawned replacement (generation 1) sails through — exactly the
  recover-and-converge scenario.  ``gen=any`` makes the fault
  persistent, which is how the degradation-ladder tests force retries
  to exhaust.
* A rule fires at most once per worker process, so a ``stall`` cannot
  re-trigger on every chunk and turn a bounded plan into an unbounded
  slowdown.

The plan is parsed (and therefore validated) in the parent at
configuration time — a typo raises ``ValueError`` before any process
is spawned — and re-parsed cheaply inside each worker.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_STAGES",
    "FaultPlan",
    "FaultRule",
]

#: The injectable points of the worker state machine, in execution order.
FAULT_STAGES = ("map", "shuffle-out", "shuffle-in", "reduce")

#: Supported actions (see the module docstring for their semantics).
FAULT_ACTIONS = ("crash", "exit", "stall")

#: Exit status of a ``crash`` action — distinct from Python's generic
#: error exits so a supervised parent can tell an injected crash from an
#: interpreter failure when it logs the death.
CRASH_EXIT_CODE = 70

_RULE_RE = re.compile(
    r"^(?P<action>[a-z]+)"
    r"(?:\((?P<arg>[^)]*)\))?"
    r"@(?P<stage>[a-z-]+)"
    r"(?::(?P<conds>.+))?$"
)


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a fault plan (see the module grammar)."""

    action: str
    stage: str
    arg: Optional[float] = None  # exit code / stall seconds
    worker: Optional[int] = None
    frame: Optional[int] = None
    chunk: Optional[int] = None
    gen: Optional[int] = 0  # None means "any generation"

    def matches(
        self,
        stage: str,
        worker: int,
        frame: int,
        chunk: Optional[int],
        gen: int,
    ) -> bool:
        if stage != self.stage:
            return False
        if self.worker is not None and worker != self.worker:
            return False
        if self.frame is not None and frame != self.frame:
            return False
        if self.chunk is not None and chunk != self.chunk:
            return False
        if self.gen is not None and gen != self.gen:
            return False
        return True


def _parse_rule(text: str) -> FaultRule:
    m = _RULE_RE.match(text.strip())
    if m is None:
        raise ValueError(
            f"fault rule {text!r} does not match "
            "'action[(arg)]@stage[:key=value,...]'"
        )
    action = m.group("action")
    if action not in FAULT_ACTIONS:
        raise ValueError(
            f"fault rule {text!r}: unknown action {action!r} "
            f"(expected one of {FAULT_ACTIONS})"
        )
    stage = m.group("stage")
    if stage not in FAULT_STAGES:
        raise ValueError(
            f"fault rule {text!r}: unknown stage {stage!r} "
            f"(expected one of {FAULT_STAGES})"
        )
    arg: Optional[float] = None
    raw_arg = m.group("arg")
    if raw_arg is not None:
        try:
            arg = float(raw_arg)
        except ValueError:
            raise ValueError(
                f"fault rule {text!r}: argument {raw_arg!r} is not a number"
            ) from None
    if action == "stall":
        if arg is None or arg <= 0:
            raise ValueError(
                f"fault rule {text!r}: stall needs a positive duration, "
                "e.g. stall(5)@shuffle-in"
            )
    elif action == "crash" and raw_arg is not None:
        raise ValueError(
            f"fault rule {text!r}: crash takes no argument (use exit(code) "
            "for a chosen status)"
        )
    elif action == "exit" and arg is not None and arg != int(arg):
        # Exit statuses are integers; silently truncating exit(3.5) to 3
        # would make the observed exitcode disagree with the plan.
        raise ValueError(
            f"fault rule {text!r}: exit code {raw_arg!r} is not an integer"
        )
    fields = {"worker": None, "frame": None, "chunk": None, "gen": 0}
    conds = m.group("conds")
    if conds:
        for cond in conds.split(","):
            if "=" not in cond:
                raise ValueError(
                    f"fault rule {text!r}: condition {cond!r} is not key=value"
                )
            key, _, value = cond.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in fields:
                raise ValueError(
                    f"fault rule {text!r}: unknown condition key {key!r} "
                    "(expected worker/frame/chunk/gen)"
                )
            if key == "gen" and value == "any":
                fields[key] = None
                continue
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"fault rule {text!r}: condition {key}={value!r} "
                    "is not an integer"
                ) from None
            # Frames are 1-based submission order: frame=0 (or below)
            # can never match, so a rule carrying it is a typo that
            # would otherwise silently never fire.  worker/chunk/gen
            # ids are 0-based and cannot be negative.
            if key == "frame" and fields[key] < 1:
                raise ValueError(
                    f"fault rule {text!r}: frame={value} can never fire — "
                    "frames are numbered from 1 in submission order"
                )
            if key in ("worker", "chunk", "gen") and fields[key] < 0:
                raise ValueError(
                    f"fault rule {text!r}: condition {key}={value} "
                    "must be >= 0"
                )
    return FaultRule(action=action, stage=stage, arg=arg, **fields)


class FaultPlan:
    """A parsed, per-process fault plan bound to one spawn generation.

    The parent validates the plan string once at configuration time;
    each worker re-parses it and binds its own generation, so
    :meth:`fire` calls on the hot path reduce to a few integer
    comparisons (or nothing at all when the plan is ``None``).
    """

    def __init__(self, rules: Tuple[FaultRule, ...], generation: int = 0):
        self.rules = tuple(rules)
        self.generation = int(generation)
        self._fired: set = set()

    @classmethod
    def parse(
        cls, text: Optional[str], generation: int = 0
    ) -> Optional["FaultPlan"]:
        """Parse a plan string; ``None``/empty/whitespace parses to None
        (no injection).  Raises :class:`ValueError` on bad grammar."""
        if text is None:
            return None
        text = text.strip()
        if not text:
            return None
        rules = tuple(
            _parse_rule(rule) for rule in text.split(";") if rule.strip()
        )
        if not rules:
            return None
        return cls(rules, generation=generation)

    def fire(
        self,
        stage: str,
        worker: int,
        frame: int,
        chunk: Optional[int] = None,
    ) -> None:
        """Trigger the first not-yet-fired rule matching this point.

        Called by the worker at each stage boundary; a match executes
        the rule's action *in place* (crash/exit never return).
        """
        for idx, rule in enumerate(self.rules):
            if idx in self._fired:
                continue
            if rule.matches(stage, worker, frame, chunk, self.generation):
                self._fired.add(idx)
                self._trigger(rule)
                return

    @staticmethod
    def _trigger(rule: FaultRule) -> None:
        if rule.action == "crash":
            os._exit(CRASH_EXIT_CODE)  # no cleanup: a segfault's signature
        elif rule.action == "exit":
            code = CRASH_EXIT_CODE if rule.arg is None else int(rule.arg)
            raise SystemExit(code)  # graceful: finally-teardown runs
        elif rule.action == "stall":
            time.sleep(float(rule.arg))
