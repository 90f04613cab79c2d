#!/usr/bin/env python3
"""Which functions of the library the system's own callers reach.

Traces, with ``sys.settrace`` in this one process, the lines run under
``src/multigrank`` while it:

- executes README.md's ```python blocks, concatenated, as one program;
- runs every command of README.md's CLI blocks (the fenced blocks with a
  ``multigrank`` command) through ``multigrank.cli.main``, each block in a
  fresh temporary directory, and requires exit 0; an ``echo '...' > FILE``
  line writes its text to FILE;
- runs scripts/synthetic_benchmark.py with the arguments CI gives it.

Then prints, for each function of the library (a nested function on its
own, a method under its class), the statements reached out of its total.
Exits 1 when a function no statement of which was reached is missing from
``ALLOWED`` below, or when an entry of ``ALLOWED`` names a function that was
reached or does not exist.  Tests are not callers: code only they reach
should go.  The benchmark under perfbench/ is not run here.

    PYTHONPATH=src python3 scripts/system_coverage.py
"""

import ast
import contextlib
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multigrank"

# function -> why no system caller reaches it
ALLOWED = {
    "cli._Parser.error": "runs only on a usage error",
    "ranker._training_failure": "builds the error of a training solve that misses the residual bound",
    "__init__.__dir__": "runs only on dir(multigrank)",
    "graphs.BaseGraph.weights": "read only by the benchmark's tracer and worker",
}


def functions(path: Path, module: str):
    """``{qualified name: {statement: its lines}}`` for every function in a
    file.  A statement's lines are its header for a compound statement and
    all of it otherwise; nested functions and classes count on their own."""
    found = {}

    def own_lines(stmt):
        body = getattr(stmt, "body", None)
        if isinstance(body, list) and body:
            return range(stmt.lineno, body[0].lineno)
        return range(stmt.lineno, stmt.end_lineno + 1)

    def statements(body, into, prefix):
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                # its definition runs in the enclosing scope
                into[stmt.lineno] = range(stmt.lineno, stmt.lineno + 1)
                visit(stmt, f"{prefix}{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                members(stmt.body, f"{prefix}{stmt.name}.")
            else:
                into[stmt.lineno] = own_lines(stmt)
                for field in ("body", "orelse", "finalbody"):
                    statements(getattr(stmt, field, []), into, prefix)
                for handler in getattr(stmt, "handlers", []):
                    statements(handler.body, into, prefix)

    def visit(node, name):
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # a docstring runs no line
        statements(body, found.setdefault(f"{module}.{name}", {}), f"{name}.")

    def members(body, prefix):
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                visit(stmt, f"{prefix}{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                members(stmt.body, f"{prefix}{stmt.name}.")

    members(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return found


def readme_blocks():
    """README.md's fenced blocks as (language, text)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```(\w*)\n(.*?)^```", text, flags=re.M | re.S)


def commands(block: str):
    """The block's commands as argument lists: lines joined at a trailing
    backslash and across an open quote."""
    pending = ""
    for line in block.splitlines():
        pending += line[:-1] if line.endswith("\\") else line + "\n"
        if line.endswith("\\"):
            continue
        try:
            argv = shlex.split(pending)
        except ValueError:  # a quote still open
            continue
        pending = ""
        if argv:
            yield argv
    if pending.strip():
        raise SystemExit(f"unterminated command in a README block: {pending!r}")


def run_cli_block(block: str) -> None:
    from multigrank import cli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands(block):
                if argv[0] == "multigrank":
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv[1:])
                    if code != 0:
                        raise SystemExit(f"exit {code}: {shlex.join(argv)}")
                elif argv[0] == "echo" and len(argv) == 4 and argv[2] == ">":
                    Path(argv[3]).write_text(argv[1] + "\n", encoding="utf-8")
                else:
                    raise SystemExit(f"unsupported README command: {shlex.join(argv)}")
        finally:
            os.chdir(here)


def ci_benchmark_args() -> list:
    """The arguments CI gives scripts/synthetic_benchmark.py."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    found = re.search(r"scripts/synthetic_benchmark\.py(.*)$", workflow, flags=re.M)
    if found is None:
        raise SystemExit("CI runs no scripts/synthetic_benchmark.py command")
    return shlex.split(found.group(1))


def run_system() -> None:
    blocks = readme_blocks()
    code = "\n".join(text for lang, text in blocks if lang == "python")
    exec(compile(code, "README.md python blocks", "exec"), {"__name__": "__main__"})
    for lang, text in blocks:
        if not lang and re.search(r"^multigrank ", text, flags=re.M):
            run_cli_block(text)
    script = ROOT / "scripts" / "synthetic_benchmark.py"
    argv = sys.argv
    sys.argv = [str(script), *ci_benchmark_args()]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    reached = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace_calls)
    try:
        run_system()
    finally:
        sys.settrace(None)
    import multigrank

    if not Path(multigrank.__file__).resolve().is_relative_to(PACKAGE):
        raise SystemExit(f"traced multigrank from {multigrank.__file__}, not {PACKAGE}")

    unreached, names = [], set()
    print(f"{'function':<44} {'reached':>7} / total")
    for path in sorted(PACKAGE.glob("*.py")):
        for name, stmts in functions(path, path.stem).items():
            names.add(name)
            hit = sum(any((str(path), line) in reached for line in lines)
                      for lines in stmts.values())
            print(f"{name:<44} {hit:>7} / {len(stmts)}")
            if hit == 0:
                unreached.append(name)
    failures = [f"{name}: no statement reached" for name in unreached if name not in ALLOWED]
    failures += [f"{name}: allowed, but reached" for name in ALLOWED
                 if name in names and name not in unreached]
    failures += [f"{name}: allowed, but no such function" for name in ALLOWED if name not in names]
    print(f"\n{len(names) - len(unreached)} of {len(names)} functions reached; "
          f"{len(unreached)} not reached, {len(set(unreached) & set(ALLOWED))} of them allowed")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
