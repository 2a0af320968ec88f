"""The documented command lines still point at real things.

Nothing runs ``.github/workflows/ci.yml`` before it is pushed, and
nothing runs the README's examples at all, so a CLI flag, subcommand or
script removed from the repo but still named there would only fail on
the runner or in a reader's terminal.  These tests read the workflow,
join each ``run:`` step's backslash continuations, substitute every
``${{ matrix.* }}`` combination of its job, read README.md's fenced code
blocks the same way, and check that:

* every ``python -m repro …`` line, of any subcommand, parses with the
  real parser;
* every ``python -m repro <cmd>`` in the workflow names a real
  subcommand;
* every relative path a step names exists in the repo;
* every ``REPRO_*`` variable the workflow sets is read somewhere under
  ``src/`` (a step that sets a variable nothing reads would run without
  the effect it was written for);
* every ``pytest … -k EXPR`` step selects at least one ``def test_``
  of the files it names (pytest exits with status 5, failing the job,
  when a rename leaves a selection empty).

The workflow installs ``.[test]``, so every third-party module that
``tests/`` and ``benchmarks/e2e/`` import must be declared in
``setup.py``, or the runner stops at collection.
"""

import ast
import re
import shlex
import sys

import pytest
import yaml

from entry_points import ROOT, WORKFLOW, documented_commands, run_scripts
from repro.cli import build_parser

# A relative path: word characters, dots and dashes between slashes.  It
# counts as a repo path when it has a slash or a file suffix.
PATH_TOKEN = re.compile(r"[\w.-]+(/[\w.-]+)*/?")
FILE_SUFFIX = re.compile(r"\.(py|sh|json|ya?ml|toml|cfg|ini|txt|md)$")
IMPORTING_DIRS = (ROOT / "tests", ROOT / "benchmarks" / "e2e")
ENV_ASSIGNMENT = re.compile(r"\b(REPRO_[A-Z0-9_]+)=")
K_TOKEN = re.compile(r"[()]|[^\s()]+")
TEST_DEF = re.compile(r"^\s*def (test_\w+)", re.MULTILINE)
# Import name -> distribution name, where the two differ.
DISTRIBUTION = {"yaml": "pyyaml"}


SCRIPTS = run_scripts()
COMMANDS = documented_commands()


def test_workflow_has_render_lines():
    jobs = {name for name, argv in COMMANDS if argv[0] == "render"}
    assert {"fault-injection", "README.md"} <= jobs
    assert {"render", "figure", "info"} <= {argv[0] for _, argv in COMMANDS}


@pytest.mark.parametrize(
    "job,argv", COMMANDS, ids=[f"{job}-{i}" for i, (job, _) in enumerate(COMMANDS)]
)
def test_every_ci_render_line_parses(job, argv):
    """Every ``python -m repro`` line of the workflow and the README
    parses, whatever its subcommand."""
    assert not any("${{" in tok for tok in argv), argv
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_every_ci_repro_command_is_a_subcommand():
    commands = set()
    for _job, script in SCRIPTS:
        tokens = shlex.split(script, comments=True)
        for i in range(len(tokens) - 2):
            if tokens[i : i + 2] == ["-m", "repro"]:
                commands.add(tokens[i + 2])
    assert commands, "no `python -m repro` step found"
    for command in sorted(commands):
        try:
            args = build_parser().parse_args([command])
        except SystemExit:
            pytest.fail(f"CI runs `python -m repro {command}`, not a subcommand")
        assert args.command == command


def test_every_ci_repo_path_exists():
    named, missing = set(), []
    for job, script in SCRIPTS:
        for token in shlex.split(script, comments=True):
            value = token.split("=", 1)[-1]  # VAR=path and --flag=path
            if value.startswith(("/", "-")) or not PATH_TOKEN.fullmatch(value):
                continue
            if "/" in value or FILE_SUFFIX.search(value):
                named.add(value)
                if not (ROOT / value).exists():
                    missing.append((job, value))
    assert "benchmarks/e2e/run.py" in named  # the scan sees the steps
    assert not missing, missing


def _workflow_env_names() -> set:
    """Every ``REPRO_*`` name the workflow sets: under an ``env:`` of
    the workflow, a job or a step, or inline in a ``run:`` script."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    blocks = [doc.get("env") or {}]
    for job in doc["jobs"].values():
        blocks.append(job.get("env") or {})
        blocks += [step.get("env") or {} for step in job.get("steps", [])]
    names = {name for block in blocks for name in block}
    names |= {name for _, script in SCRIPTS for name in ENV_ASSIGNMENT.findall(script)}
    return {name for name in names if name.startswith("REPRO_")}


def test_every_ci_env_var_is_read():
    source = "\n".join(
        path.read_text() for path in sorted((ROOT / "src").rglob("*"))
        if path.suffix in (".py", ".c")
    )
    unread = sorted(name for name in _workflow_env_names() if name not in source)
    assert not unread, f"the workflow sets {unread}, which nothing under src/ reads"


def _k_selects(expr: str, name: str) -> bool:
    """Whether ``pytest -k expr`` keeps a test called ``name``: each word
    is a case-insensitive substring test, combined with ``and``, ``or``,
    ``not`` and parentheses."""
    words = [
        w if w in ("(", ")", "and", "or", "not") else str(w.lower() in name.lower())
        for w in K_TOKEN.findall(expr)
    ]
    return eval(" ".join(words))  # only True/False, operators, parentheses


def _pytest_selections() -> list:
    """``(job, files, expr)`` for every ``pytest`` line with ``-k``."""
    found = []
    for job, script in SCRIPTS:
        for line in script.splitlines():
            if "pytest" not in line or " -k " not in line:
                continue
            tokens = shlex.split(line, comments=True)
            args = tokens[tokens.index("pytest") + 1 :]
            files = [a for a in args if a.endswith(".py")]
            found.append((job, files, args[args.index("-k") + 1]))
    return found


def test_every_ci_pytest_selection_selects_a_test():
    selections = _pytest_selections()
    assert selections, "no `pytest -k` step found"
    for job, files, expr in selections:
        names = [
            name for f in files for name in TEST_DEF.findall((ROOT / f).read_text())
        ]
        assert any(_k_selects(expr, n) for n in names), (job, files, expr)


def _declared_distributions() -> set:
    """``install_requires`` plus the ``test`` extra, read from setup.py."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    setup = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    kwargs = {kw.arg: kw.value for kw in setup.keywords}
    reqs = ast.literal_eval(kwargs["install_requires"])
    reqs += ast.literal_eval(kwargs["extras_require"])["test"]
    return {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower() for req in reqs}


def _third_party_imports() -> dict:
    """Top-level module -> first file importing it, for every module that
    ``tests/`` and ``benchmarks/e2e/`` import from outside the standard
    library and the repo."""
    local = {p.stem for d in IMPORTING_DIRS for p in d.rglob("*.py")}
    local |= {p.name for p in ROOT.iterdir() if p.is_dir()}
    local |= {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    found = {}
    for directory in IMPORTING_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in sys.stdlib_module_names and top not in local:
                        found.setdefault(top, path.relative_to(ROOT).as_posix())
    return found


def test_every_test_import_is_declared():
    declared = _declared_distributions()
    imports = _third_party_imports()
    assert {"numpy", "pytest"} <= set(imports)  # the scan sees the imports
    undeclared = {
        module: path for module, path in imports.items()
        if DISTRIBUTION.get(module, module) not in declared
    }
    assert not undeclared, undeclared
