"""Import guard: every name a `solidyn` module imports is used in it.

No linter runs on this tree, so an unused import (a leftover of a moved
kernel, or a re-export nothing reads) would otherwise stay.  A name counts
as used when the module's code reads it; docstrings and comments do not
count.  The one exemption is the package's `nls_step`, which the
benchmark's tracer rebinds there.  Likewise every private top-level
function and class is read by some `solidyn` module outside its own
definition, so a superseded helper cannot stay behind.

The CLI also loads no executor or process-pool module, which would add to
every run's set-up time and memory, and the package has one concurrency
mechanism: the `os.fork` of `stepping.run_ahead`, which only `drive`'s
shared path and `scenarios._concurrently` reach.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "solidyn"
EXEMPT = {("__init__.py", "nls_step")}
MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import in the module, `__future__`
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_the_guard_sees_the_modules():
    assert {"pair.py", "schrodinger.py", "soliton.py",
            "stepping.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((SOURCE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}:{line} {name}"
              for name, line in imported_names(tree)
              if name not in used and (module, name) not in EXEMPT]
    assert unused == []


def test_every_private_definition_is_read():
    # a read is a loaded name, so a method or attribute of the same name
    # does not count for a top-level definition
    statements = [(module, node) for module in MODULES
                  for node in ast.parse((SOURCE / module).read_text()).body]
    reads = [{sub.id for sub in ast.walk(node)
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
             for _, node in statements]
    private = [(module, node) for module, node in statements
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.endswith("__")]
    assert len(private) > 20
    unread = [f"{module}:{node.lineno} {node.name}"
              for module, node in private
              if not any(node.name in names
                         for (_, other), names in zip(statements, reads)
                         if other is not node)]
    assert unread == []


def test_the_cli_loads_no_executor_or_process_module():
    # the pair scenario's second run is a plain `os.fork`: importing
    # concurrent.futures alone adds about 0.7 MB to every run's RSS, and
    # multiprocessing more, to the CLI's set-up time as well
    code = ("import sys, solidyn.cli; print(sorted(name for name in "
            "sys.modules if name.startswith(('concurrent.futures', "
            "'multiprocessing'))))")
    path = os.pathsep.join(filter(None, [str(SOURCE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_one_concurrency_mechanism_is_the_fork_of_run_ahead():
    # no thread, process-pool or executor module is imported, `os.fork` is
    # read only inside `stepping.run_ahead`, and `run_ahead` only by the
    # shared path of `stepping.drive` and by `scenarios._concurrently`, so
    # no run steps a field ahead by a loop of its own
    banned = ("threading", "_thread", "multiprocessing", "concurrent")
    imports, forks, users = [], [], set()
    for module in MODULES:
        tree = ast.parse((SOURCE / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                names = []
            imports += [f"{module}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] in banned
                        or name == "os.fork"]
        inside = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "run_ahead"
                  for sub in ast.walk(node)}
        forks += [(module, id(node) in inside) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "fork"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "os"]
        for top in tree.body:
            users.update((module, getattr(top, "name", None))
                         for node in ast.walk(top)
                         if (isinstance(node, ast.Name)
                             and node.id == "run_ahead")
                         or (isinstance(node, ast.Attribute)
                             and node.attr == "run_ahead"))
    assert imports == []
    assert forks == [("stepping.py", True)]
    assert users == {("stepping.py", "drive"),
                     ("scenarios.py", "_concurrently")}
