"""Deterministic fault injection: the chaos plane of the service stack.

The paper's speculation story only works because misspeculation recovery
is cheap *and exercised on every run*; the serving stack holds itself to
the same bar.  Every layer that can fail in production — worker
execution, service socket I/O, journal and cache writes, trace-store
I/O, shared-memory attach — carries an **injection site**: a named
:func:`fire` call that normally costs one ``is None`` check and, under
an active :class:`FaultPlan`, deterministically returns the fault to
inject at that hit.

Determinism is the whole design: a plan is a list of
``site:action[:arg]@trigger`` rules plus a seed, and triggers are
**counter-based** — "the 3rd journal write", "every 2nd socket send",
"each hit with probability 0.25 under seed 7" — never wall-clock or
global randomness.  The probabilistic trigger hashes
``(seed, site, hit-number)``, so the same plan against the same request
sequence fires at exactly the same points on every run; a chaos failure
in CI reproduces locally with one environment variable.

Activation:

* ``REPRO_FAULTS=<spec>`` — any process (daemon, worker, test) parses
  the spec on first :func:`fire` call.  ``REPRO_FAULTS=@plan.json``
  loads a JSON plan file instead.  An unparseable spec warns once and
  disables injection — a typo'd plan must not crash a production write
  path it was meant to test.
* :func:`install_plan` — programmatic installation (tests, the daemon's
  ``chaos`` protocol op).  With ``export_env=True`` the spec is also
  exported to ``os.environ`` so worker processes spawned *afterwards*
  inherit the plan.

Sites and their actions are listed in :data:`SITES`; ``repro chaos``
drives a plan against a live daemon and DESIGN.md ("Fault model &
degradation ladder") documents which faults must be survivable.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable carrying the active fault plan spec (or
#: ``@<path>`` naming a JSON plan file).  Empty/unset means no faults.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable with the plan seed (used by probabilistic
#: triggers); ``REPRO_FAULTS_SEED``, default 0.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Every known injection site and the actions it honours.  ``fire`` on
#: an unknown site still works (sites are strings), but plan parsing
#: validates against this table so a typo'd site fails loudly instead of
#: silently never firing.
SITES: dict[str, tuple[str, ...]] = {
    # Worker execution (queue pool + batch pool): die, wedge, crawl, raise.
    "worker.execute": ("crash", "hang", "slow", "error"),
    # Service socket I/O: drop the response, send half of it, or stall
    # before answering (the client's read timeout is what catches this).
    "service.send": ("drop", "partial", "stall"),
    # Journal appends: a torn half-record (kill mid-write) or a failing
    # fsync (the write may or may not be durable; the daemon must degrade).
    "journal.write": ("torn", "fsync"),
    # Result-cache persistence: torn tmp-file write, disk full, plain IO
    # error.  Never allowed to affect the in-memory result.
    "cache.write": ("torn", "enospc", "error"),
    # Trace-store loads: damage the on-disk entry *before* the read so the
    # real validation/quarantine path runs against real corruption.
    "store.read": ("truncate", "garbage-meta"),
    # Trace-store persists: disk full, or a partial multi-file write.
    "store.write": ("enospc", "partial"),
    # Shared-memory plane: attach failure in the worker, materialisation
    # failure in the parent.  Both must degrade to a local rebuild.
    "shm.attach": ("fail",),
    "shm.materialize": ("fail",),
    # Cluster plane, router side: a routing decision that picks the
    # wrong shard ("misroute" — any shard can run any job, so this only
    # costs cache locality) or finds its shard dead ("drop" — the
    # router must mark it down and rebalance onto the ring's survivors).
    "cluster.route": ("misroute", "drop"),
    # Membership gossip: a heartbeat that never leaves the shard
    # ("drop") or leaves late ("delay", arg = seconds).  Gossip is an
    # eventually-consistent optimisation, so neither may affect result
    # correctness — only how fast the fleet converges.
    "gossip.heartbeat": ("drop", "delay"),
}


class FaultSpecError(ValueError):
    """A fault plan spec or plan file could not be parsed."""


class InjectedFault(RuntimeError):
    """An error deliberately raised by the fault plane (non-IO sites)."""


@dataclass(frozen=True)
class FaultRule:
    """One ``site:action[:arg]@trigger`` rule of a :class:`FaultPlan`.

    The trigger is one of: explicit hit numbers (``when``, 1-based),
    ``every`` Nth hit, or per-hit probability ``prob`` (resolved
    deterministically from the plan seed and the hit counter).  A rule
    with no trigger fires on every hit.
    """

    site: str
    action: str
    arg: float | None = None
    when: tuple[int, ...] = ()
    every: int = 0
    prob: float = 0.0

    def matches(self, hit: int, seed: int) -> bool:
        """Whether this rule fires on the *hit*-th visit to its site."""
        if self.when:
            return hit in self.when
        if self.every:
            return hit % self.every == 0
        if self.prob:
            digest = hashlib.sha256(
                f"{seed}:{self.site}:{hit}".encode()).digest()
            return int.from_bytes(digest[:8], "big") < self.prob * 2**64
        return True

    def trigger_text(self) -> str:
        """The trigger part of the spec syntax (for round-trips/reports)."""
        if self.when:
            return ",".join(str(n) for n in self.when)
        if self.every:
            return f"every={self.every}"
        if self.prob:
            return f"p={self.prob:g}"
        return "always"

    def to_spec(self) -> str:
        """This rule in ``site:action[:arg]@trigger`` spec syntax."""
        head = f"{self.site}:{self.action}"
        if self.arg is not None:
            head += f":{self.arg:g}"
        trigger = self.trigger_text()
        return head if trigger == "always" else f"{head}@{trigger}"


def _parse_trigger(text: str) -> dict:
    text = text.strip()
    if not text or text == "always":
        return {}
    if text.startswith("every="):
        try:
            every = int(text[len("every="):])
        except ValueError:
            raise FaultSpecError(f"bad every= trigger: {text!r}") from None
        if every < 1:
            raise FaultSpecError(f"every= must be >= 1: {text!r}")
        return {"every": every}
    if text.startswith("p="):
        try:
            prob = float(text[len("p="):])
        except ValueError:
            raise FaultSpecError(f"bad p= trigger: {text!r}") from None
        if not 0.0 <= prob <= 1.0:
            raise FaultSpecError(f"p= must be in [0, 1]: {text!r}")
        return {"prob": prob}
    if text.startswith("first="):
        try:
            first = int(text[len("first="):])
        except ValueError:
            raise FaultSpecError(f"bad first= trigger: {text!r}") from None
        if first < 1:
            raise FaultSpecError(f"first= must be >= 1: {text!r}")
        return {"when": tuple(range(1, first + 1))}
    try:
        when = tuple(sorted(int(part) for part in text.split(",")))
    except ValueError:
        raise FaultSpecError(f"bad trigger {text!r} (expected hit numbers, "
                             "every=N, first=N or p=F)") from None
    if any(n < 1 for n in when):
        raise FaultSpecError(f"hit numbers are 1-based: {text!r}")
    return {"when": when}


def _parse_rule(text: str) -> FaultRule:
    text = text.strip()
    head, _, trigger = text.partition("@")
    parts = head.split(":")
    if len(parts) < 2 or len(parts) > 3:
        raise FaultSpecError(
            f"bad fault rule {text!r} (expected site:action[:arg][@trigger])")
    site, action = parts[0].strip(), parts[1].strip()
    arg = None
    if len(parts) == 3:
        try:
            arg = float(parts[2])
        except ValueError:
            raise FaultSpecError(f"bad numeric arg in {text!r}") from None
    if site not in SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r} (known: {', '.join(sorted(SITES))})")
    if action not in SITES[site]:
        raise FaultSpecError(
            f"site {site!r} does not support action {action!r} "
            f"(supported: {', '.join(SITES[site])})")
    return FaultRule(site=site, action=action, arg=arg,
                     **_parse_trigger(trigger))


@dataclass
class FaultPlan:
    """A seeded set of fault rules plus per-site hit counters.

    ``check(site)`` increments the site's counter and returns the first
    rule that fires on this hit (or ``None``).  The counters *are* the
    schedule: no wall-clock, no global RNG, so the same plan against the
    same operation sequence injects at the same points on every run.
    """

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str, seed: int | None = None) -> "FaultPlan":
        """Build a plan from a ``;``-joined rule spec or ``@<file>``.

        Raises :class:`FaultSpecError` on any syntax problem — callers
        that own a user-supplied spec (the CLI, the daemon's ``chaos``
        op) surface that as a clean error.
        """
        spec = (spec or "").strip()
        if spec.startswith("@"):
            return cls.from_file(spec[1:], seed=seed)
        rules = [_parse_rule(part) for part in spec.split(";")
                 if part.strip()]
        if not rules:
            raise FaultSpecError("fault spec contains no rules")
        return cls(rules=rules, seed=_env_seed() if seed is None else seed)

    @classmethod
    def from_file(cls, path: str | os.PathLike,
                  seed: int | None = None) -> "FaultPlan":
        """Load a JSON plan file: ``{"seed": N, "rules": [...]}``.

        Each rule object carries ``site``, ``action`` and optionally
        ``arg`` and ``trigger`` (the same trigger syntax the inline spec
        uses).  An explicit *seed* argument overrides the file's.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise FaultSpecError(f"cannot load fault plan {path}: {exc}") \
                from None
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("rules"), list):
            raise FaultSpecError(f"{path} is not a fault plan "
                                 "({'seed': N, 'rules': [...]})")
        rules = []
        for raw in payload["rules"]:
            if not isinstance(raw, dict) or "site" not in raw \
                    or "action" not in raw:
                raise FaultSpecError(f"bad rule in {path}: {raw!r}")
            text = f"{raw['site']}:{raw['action']}"
            if raw.get("arg") is not None:
                text += f":{raw['arg']}"
            if raw.get("trigger"):
                text += f"@{raw['trigger']}"
            rules.append(_parse_rule(text))
        if not rules:
            raise FaultSpecError(f"{path} contains no rules")
        if seed is None:
            seed = int(payload.get("seed", _env_seed()))
        return cls(rules=rules, seed=seed)

    def to_spec(self) -> str:
        """The plan as the inline ``;``-joined spec syntax."""
        return ";".join(rule.to_spec() for rule in self.rules)

    def check(self, site: str) -> FaultRule | None:
        """Count one hit on *site*; the rule to inject now, or ``None``."""
        hit = self.counts.get(site, 0) + 1
        self.counts[site] = hit
        for rule in self.rules:
            if rule.site == site and rule.matches(hit, self.seed):
                self.fired[site] = self.fired.get(site, 0) + 1
                return rule
        return None

    def describe(self) -> dict:
        """Plan summary for ``health``/``chaos`` responses and reports."""
        return {
            "seed": self.seed,
            "rules": [rule.to_spec() for rule in self.rules],
            "hits": dict(self.counts),
            "fired": dict(self.fired),
        }


def _env_seed() -> int:
    raw = os.environ.get(FAULTS_SEED_ENV, "").strip()
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


# Module state: None = no plan, _UNRESOLVED = env not yet consulted.
# The fast path of fire() is one identity check against None.
_UNRESOLVED = object()
_plan: "FaultPlan | None | object" = _UNRESOLVED
_warned = False


def active_plan() -> FaultPlan | None:
    """The installed plan, resolving ``$REPRO_FAULTS`` on first use.

    A spec that fails to parse warns once on stderr and disables
    injection for the process — the production write paths under test
    must not crash because the *test harness* input was malformed.
    """
    global _plan, _warned
    if _plan is _UNRESOLVED:
        spec = os.environ.get(FAULTS_ENV, "").strip()
        if not spec:
            _plan = None
        else:
            try:
                _plan = FaultPlan.parse(spec)
            except FaultSpecError as exc:
                if not _warned:
                    print(f"repro: ignoring ${FAULTS_ENV}: {exc}",
                          file=sys.stderr)
                    _warned = True
                _plan = None
    return _plan  # type: ignore[return-value]


def install_plan(plan: "FaultPlan | str | None", *,
                 seed: int | None = None,
                 export_env: bool = False) -> FaultPlan | None:
    """Install (or, with ``None``, clear) the process-wide fault plan.

    Accepts a ready :class:`FaultPlan` or a spec string (parsed with
    :meth:`FaultPlan.parse` — raises :class:`FaultSpecError` on bad
    input).  With *export_env* the spec is mirrored into
    ``$REPRO_FAULTS`` so processes spawned after this call inherit the
    plan (each with fresh counters); clearing removes the variable.
    Returns the previously active plan.
    """
    global _plan
    previous = _plan if _plan is not _UNRESOLVED else None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan, seed=seed)
    _plan = plan
    if export_env:
        if plan is None:
            os.environ.pop(FAULTS_ENV, None)
            os.environ.pop(FAULTS_SEED_ENV, None)
        else:
            os.environ[FAULTS_ENV] = plan.to_spec()
            os.environ[FAULTS_SEED_ENV] = str(plan.seed)
    return previous  # type: ignore[return-value]


def reset() -> None:
    """Forget the installed plan and re-resolve from the environment.

    Test isolation: a test that installed a plan (or mutated
    ``$REPRO_FAULTS``) calls this so the next :func:`fire` sees a clean
    slate.
    """
    global _plan, _warned
    _plan = _UNRESOLVED
    _warned = False


def fire(site: str) -> FaultRule | None:
    """The injection hook: the fault to inject at *site* now, or ``None``.

    This is the only call production code makes; with no plan active it
    is one identity comparison.  Counters advance even for sites no rule
    names, so ``health`` can report traffic per site under a plan.
    """
    plan = _plan
    if plan is None:
        return None
    if plan is _UNRESOLVED:
        plan = active_plan()
        if plan is None:
            return None
    return plan.check(site)


# -- action helpers (shared by the injection sites) -----------------------


def io_error(rule: FaultRule, site: str) -> OSError:
    """Build the :class:`OSError` a disk-fault rule injects.

    ``enospc`` maps to ``ENOSPC`` (disk full), everything else to
    ``EIO`` — real errno values, so the production ``except OSError``
    handling under test is exactly the code that would run in anger.
    """
    code = errno.ENOSPC if rule.action == "enospc" else errno.EIO
    return OSError(code, f"injected {rule.action} fault at {site}")


def apply_worker_fault(fault: dict, *, allow_fatal: bool = True) -> None:
    """Execute a ``worker.execute`` fault directive inside a worker.

    The parent evaluates the plan (keeping the schedule deterministic in
    one place) and ships a small directive; the worker acts it out:
    ``crash`` dies like a SIGKILL (``os._exit``), ``hang`` sleeps past
    any job timeout, ``slow`` sleeps briefly then proceeds, ``error``
    raises :class:`InjectedFault`.  With ``allow_fatal=False`` (the
    batch pool, which cannot survive a dead worker) ``crash``/``hang``
    degrade to ``error``.
    """
    action = fault.get("action")
    arg = fault.get("arg")
    if action in ("crash", "hang") and not allow_fatal:
        action = "error"
    if action == "crash":
        os._exit(137)
    elif action == "hang":
        time.sleep(arg if arg else 3600.0)
    elif action == "slow":
        time.sleep(arg if arg else 0.05)
    elif action == "error":
        raise InjectedFault("injected worker fault")


def damage_store_entry(rule: FaultRule, entry: Path,
                       column_file: str, meta_file: str) -> None:
    """Apply a ``store.read`` fault by damaging the on-disk entry.

    ``truncate`` cuts the first column file in half; ``garbage-meta``
    overwrites the metadata with non-JSON bytes.  The *reader* then runs
    its ordinary validation against genuine corruption — the healing
    path under test is the real one, not a mock.
    """
    try:
        if rule.action == "truncate":
            target = entry / column_file
            size = target.stat().st_size
            with open(target, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        elif rule.action == "garbage-meta":
            (entry / meta_file).write_bytes(b"\x00not json{{{")
    except OSError:
        pass
