"""Generated documentation: CLI + predictor references, plus API gates.

Two of the pages under ``docs/`` are *derived*, never hand-edited:

* ``docs/cli.md`` — rendered from the live argparse trees
  (:func:`generate_cli`);
* ``docs/predictors.md`` — rendered from the live predictor registry
  (:func:`generate_predictors` walks
  :data:`repro.engine.job.PREDICTOR_NAMES`, builds every
  configuration through ``make_predictor`` and reads names, docstrings
  and Table 1 storage budgets off the real objects).

``python -m repro.docs`` rewrites every generated page;
``python -m repro.docs --check`` (the CI drift gate, also pinned by
``tests/unit/test_docs.py``) verifies the checked-in copies match and
that :func:`check_docstrings` finds no public class or function in
``repro.engine`` / ``repro.predictors`` without a docstring.

Rendering reads argparse/predictor metadata directly (option strings,
choices, defaults, docstrings, ``storage_kb``) instead of
``format_help()``, so the output does not depend on the invoking
terminal's width or ``COLUMNS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

CLI_HEADER = """\
# CLI reference

<!-- Generated by `python -m repro.docs` from the live argparse trees.
     Do not edit by hand: CI regenerates this file and fails on drift. -->

Two entry points ship with the reproduction:

* **`repro`** (`python -m repro.cli`) — single runs, paper tables and
  figures, declarative sweep campaigns that resume after a kill, the
  simulation service daemon and its clients, and result-cache
  management;
* **`python -m repro.experiments.reproduce`** — the everything driver
  that prints the paper-vs-reproduction report.

Environment variables honoured by both: `REPRO_JOBS` (worker processes),
`REPRO_CACHE_DIR` (persistent result cache, written as each result
lands, so rerunning a killed campaign picks up where it stopped),
`REPRO_CLUSTER_SHARDS` and `REPRO_SERVICE_TOKEN` (the daemons a client
or a `--backend cluster` run talks to, and their token; without them,
`./repro-service.addr`, which a daemon that generated its own token
writes).  Simulation results are bit-identical regardless of all of
them.
"""

PREDICTORS_HEADER = """\
# Value predictor reference

<!-- Generated by `python -m repro.docs` from the live predictor
     registry (repro.experiments.runner).  Do not edit by hand: CI
     regenerates this file and fails on drift. -->

Every experiment selects a predictor *configuration* by name — on the
CLI (`repro run --predictor`, `repro cluster run --predictors`), as a
campaign `predictor` axis, or through
`repro.experiments.runner.make_predictor`.  The table and sections below
are read off the live registry: one entry per registered name, built
with the default knobs (8192 base entries, FPC confidence, squash
recovery) and measured with the paper's Table 1 storage accounting
(1 KB = 1000 bytes).

Every configuration accepts the same knobs: `fpc` (Forward
Probabilistic Counters vs plain 3-bit confidence), `recovery`
(`squash` at commit vs selective `reissue`, which also selects the FPC
probability vector), and `entries` (base table size).
"""


def _default_repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# docs/cli.md — from the argparse trees.
# ---------------------------------------------------------------------------


def _subparser_actions(parser: argparse.ArgumentParser):
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk API
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            yield action


def _visible_actions(parser: argparse.ArgumentParser):
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, (argparse._HelpAction,  # noqa: SLF001
                               argparse._SubParsersAction)):  # noqa: SLF001
            continue
        yield action


def _value_token(action: argparse.Action) -> str:
    if action.nargs == 0:
        return ""
    if action.choices is not None:
        return "{" + ",".join(str(c) for c in action.choices) + "}"
    if action.metavar is not None:
        return str(action.metavar)
    return action.dest.upper()


def _option_syntax(action: argparse.Action) -> str:
    if action.option_strings:
        flags = ", ".join(action.option_strings)
        value = _value_token(action)
        return f"{flags} {value}".rstrip()
    token = _value_token(action)
    if action.nargs in ("?", "*"):
        return f"[{token}]"
    return token


def _default_text(action: argparse.Action) -> str:
    if action.option_strings and action.nargs == 0:
        return ""  # store_true flags: the default is simply "off"
    if action.default is None or action.default is argparse.SUPPRESS:
        return ""
    return f"default: `{action.default}`"


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def _render_actions(parser: argparse.ArgumentParser, lines: list[str]) -> None:
    actions = list(_visible_actions(parser))
    if not actions:
        return
    lines.append("| argument | description |")
    lines.append("| --- | --- |")
    for action in actions:
        help_text = " ".join((action.help or "").split())
        default = _default_text(action)
        if default:
            help_text = f"{help_text} ({default})" if help_text else default
        lines.append(f"| `{_escape(_option_syntax(action))}` | "
                     f"{_escape(help_text)} |")
    lines.append("")


def _usage_line(prog: str, parser: argparse.ArgumentParser) -> str:
    parts = [prog]
    for action in _visible_actions(parser):
        if action.option_strings:
            continue
        token = _value_token(action)
        parts.append(f"[{token}]" if action.nargs in ("?", "*") else token)
    for action in _subparser_actions(parser):
        parts.append("{" + ",".join(action.choices) + "}")
    parts.append("...")
    return " ".join(parts)


def _render_parser(
    prog: str,
    parser: argparse.ArgumentParser,
    lines: list[str],
    depth: int,
) -> None:
    lines.append("#" * depth + f" `{prog}`")
    lines.append("")
    description = " ".join((parser.description or "").split())
    if description:
        lines.append(description)
        lines.append("")
    has_sub = any(True for _ in _subparser_actions(parser))
    if has_sub:
        lines.append(f"Usage: `{_usage_line(prog, parser)}`")
        lines.append("")
    _render_actions(parser, lines)
    for action in _subparser_actions(parser):
        # choices maps every alias to its parser; keep first-name order and
        # document each sub-parser once.
        seen: set[int] = set()
        for name, sub in action.choices.items():
            if id(sub) in seen:
                continue
            seen.add(id(sub))
            _render_parser(f"{prog} {name}", sub, lines, depth + 1)


def generate_cli() -> str:
    """Render docs/cli.md from the live argparse trees."""
    # Imported here so `python -m repro.docs` stays importable even while
    # the CLI modules are being reworked.
    from repro.cli import build_parser as build_cli_parser
    from repro.experiments.reproduce import build_parser as build_reproduce_parser

    lines: list[str] = [CLI_HEADER]
    _render_parser("repro", build_cli_parser(), lines, 2)
    _render_parser("python -m repro.experiments.reproduce",
                   build_reproduce_parser(), lines, 2)
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# docs/predictors.md — from the predictor registry.
# ---------------------------------------------------------------------------


def _first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(paragraph.split())


def _predictor_rows() -> list[dict]:
    """One row per registered configuration, read off live instances."""
    from repro.engine.job import PREDICTOR_NAMES
    from repro.experiments.runner import make_predictor
    from repro.predictors.base import predictor_class

    rows = []
    for name in PREDICTOR_NAMES:
        predictor = make_predictor(name)
        if predictor is None:
            rows.append({
                "name": name,
                "cls": None,
                "label": "—",
                "storage": "—",
                "summary": "The no-value-prediction baseline every speedup "
                           "is measured against; the pipeline runs with the "
                           "predictor stage disabled.",
            })
            continue
        cls = predictor_class(predictor)
        storage = predictor.storage_kb()
        rows.append({
            "name": name,
            "cls": cls,
            "label": predictor.describe(),
            "storage": f"{storage:,.1f}" if storage else "0",
            "summary": _first_paragraph(cls),
        })
    return rows


def generate_predictors() -> str:
    """Render docs/predictors.md from the live predictor registry."""
    lines: list[str] = [PREDICTORS_HEADER]
    rows = _predictor_rows()
    lines.append("| name | implementation | instance | storage (KB) |")
    lines.append("| --- | --- | --- | --- |")
    for row in rows:
        if row["cls"] is None:
            impl = "—"
        else:
            impl = f"`{row['cls'].__module__}.{row['cls'].__name__}`"
        lines.append(f"| [`{row['name']}`](#{row['name']}) | {impl} | "
                     f"`{_escape(row['label'])}` | {row['storage']} |")
    lines.append("")
    for row in rows:
        lines.append(f"## `{row['name']}`")
        lines.append("")
        if row["cls"] is not None:
            lines.append(f"*Class:* `{row['cls'].__module__}."
                         f"{row['cls'].__name__}` — *instance:* "
                         f"`{row['label']}` — *storage:* "
                         f"{row['storage']} KB at the default 8192 entries.")
            lines.append("")
        lines.append(row["summary"])
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# docs/workloads.md — from the catalog, scenario and fuzzer code.
# ---------------------------------------------------------------------------

WORKLOADS_HEADER = """\
# Workload reference

<!-- Generated by `python -m repro.docs` from the live workload catalog,
     scenario grammar and fuzzer (repro.workloads).
     Do not edit by hand: CI regenerates this file and fails on drift. -->

Everywhere a workload name is accepted — `repro run`, `repro cluster run`,
campaign axes, `SimJob.make` — two name families resolve through the
same catalog:

* **catalog kernels** (`gzip`, `wupwise`, …) — the paper's Table 3
  benchmarks, modelled as seeded synthetic kernels;
* **scenario points** (`scenario-c<chase>-e<entropy>-l<locality>`) — a
  parametric microbenchmark grammar over pointer-chase depth, branch
  entropy and value locality.

Both produce the same `PackedColumns` plane and behave identically
downstream (result cache, service backend, worker fan-out through the
trace store).
"""


def generate_workloads() -> str:
    """Render docs/workloads.md from the live workload machinery."""
    from repro.workloads import fuzzer, scenarios
    from repro.workloads.names import WORKLOADS

    lines: list[str] = [WORKLOADS_HEADER]

    lines.append("## Catalog kernels (Table 3)")
    lines.append("")
    lines.append("| name | SPEC benchmark | suite | notes |")
    lines.append("| --- | --- | --- | --- |")
    for spec in WORKLOADS:
        lines.append(f"| `{spec.name}` | {_escape(spec.spec_name)} | "
                     f"{spec.suite} | {_escape(spec.notes)} |")
    lines.append("")

    lines.append("## Scenario grammar")
    lines.append("")
    lines.append(_first_paragraph(scenarios.ScenarioParams))
    lines.append("")
    defaults = scenarios.ScenarioParams()
    lines.append("| knob | range | default | meaning |")
    lines.append("| --- | --- | --- | --- |")
    lines.append(f"| `chase` | 0..{scenarios.MAX_CHASE} | {defaults.chase} | "
                 "dependent loads per loop iteration |")
    lines.append(f"| `entropy` | 0..100 | {defaults.entropy} | "
                 "branch-direction entropy, percent of maximum |")
    lines.append(f"| `locality` | 0..100 | {defaults.locality} | "
                 "value-reuse probability, percent |")
    lines.append("")
    lines.append(f"Example name: `{defaults.name}` (the defaults). The "
                 "per-point seed derives from the knobs, so a scenario "
                 "name alone reproduces its trace bit-exactly.")
    lines.append("")

    lines.append("## Differential fuzzer")
    lines.append("")
    lines.append(_first_paragraph(fuzzer))
    lines.append("")
    example = fuzzer.FuzzSpec(workload="gcc", predictor="vtage")
    lines.append("One-line spec grammar (replayable via "
                 "`repro fuzz --replay \"<spec>\"`):")
    lines.append("")
    lines.append("```")
    lines.append(example.line())
    lines.append("```")
    lines.append("")
    lines.append("Auto-registered corner kinds "
                 "(`<store>/fuzz-corners.json`):")
    lines.append("")
    for kind, meaning in (
        ("divergence", "an implementation leg disagreed with the legacy "
                       "model — always a bug; the sweep exits non-zero"),
        ("fallback-only", "the config is outside the fast-path families; "
                          "all legs ran the sequential model"),
        ("perfect-accuracy", "≥50 predictions used, none wrong"),
        ("zero-coverage", "≥100 eligible µops predicted, none confident "
                          "enough to use"),
        ("saturated-coverage", "≥95% of eligible µops used a prediction"),
    ):
        lines.append(f"* `{kind}` — {meaning}")
    lines.append("")
    return "\n".join(lines).rstrip() + "\n"


#: Every generated page: filename under docs/ -> generator.
PAGES = {
    "cli.md": generate_cli,
    "predictors.md": generate_predictors,
    "workloads.md": generate_workloads,
}


# ---------------------------------------------------------------------------
# Docstring coverage gate.
# ---------------------------------------------------------------------------

#: Packages whose public API must be documented (the CI gate's scope).
DOCSTRING_PACKAGES = ("repro.engine", "repro.predictors")


def _module_names(package_name: str) -> list[str]:
    package = importlib.import_module(package_name)
    names = [package_name]
    if hasattr(package, "__path__"):
        # Recursive: a future subpackage must not escape the gate.
        names.extend(info.name for info in pkgutil.walk_packages(
            package.__path__, prefix=f"{package_name}."))
    return sorted(names)


def _has_docstring(obj) -> bool:
    doc = (obj.__doc__ or "").strip()
    if not doc:
        return False
    if dataclasses.is_dataclass(obj) and doc.startswith(f"{obj.__name__}("):
        return False  # the auto-generated dataclass signature, not a doc
    return True


def check_docstrings(packages: tuple[str, ...] = DOCSTRING_PACKAGES) -> list[str]:
    """Dotted names of public classes/functions missing a docstring.

    Walks every module of *packages* and inspects the public
    (non-underscore) classes and functions *defined there* (imports
    don't count twice).  Auto-generated dataclass signatures do not
    count as documentation.  An empty list means the gate passes.
    """
    missing = []
    for package_name in packages:
        for module_name in _module_names(package_name):
            module = importlib.import_module(module_name)
            for attr in sorted(vars(module)):
                if attr.startswith("_"):
                    continue
                obj = getattr(module, attr)
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if not _has_docstring(obj):
                    missing.append(f"{module_name}.{attr}")
    return sorted(missing)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.docs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.docs",
        description="Regenerate (or, with --check, verify) every generated "
                    "docs/ page and the public-API docstring gate.",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify the generated pages match the live code and that the "
             "public engine/predictor API is fully docstringed; exit 1 on "
             "any failure",
    )
    parser.add_argument(
        "--output-dir", default=None, metavar="DIR",
        help="directory holding the generated pages "
             "(default: <repo>/docs)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Write (or check) every generated page, then the docstring gate."""
    args = build_parser().parse_args(argv)
    root = (Path(args.output_dir) if args.output_dir
            else _default_repo_root() / "docs")
    failures = 0
    for filename, generator in PAGES.items():
        target = root / filename
        rendered = generator()
        if args.check:
            on_disk = target.read_text() if target.is_file() else None
            if on_disk != rendered:
                print(f"{target} is out of date with the code; regenerate "
                      "it with `python -m repro.docs`", file=sys.stderr)
                failures += 1
            else:
                print(f"{target} is up to date")
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(rendered)
            print(f"wrote {target}")
    missing = check_docstrings()
    if missing:
        print(f"{len(missing)} public definition(s) missing docstrings:",
              file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        failures += 1
    else:
        print("docstring coverage: OK "
              f"({', '.join(DOCSTRING_PACKAGES)})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
