"""Public-API guard: every public top-level function and class of
`solidyn` has a reader.

A name without a leading underscore is public, so it has to be read
somewhere that is not its own module: by another `solidyn` module, by the
benchmark (`perfbench/*.py`, which names its traced layers as strings),
as the `solidyn` executable's entry point, or in a code span of
`README.md`, whose "Library layout" is the documented API.  A helper that
only its own module reads is private, and one that only tests read lives
in `tests/`, so the package keeps only what a run, the CLI or the
documented API reads.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "solidyn"
MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


def public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(tree):
    """Every name the module loads, every attribute it reads and every
    name it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def entry_points():
    """The object names of `[project.scripts]` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


def documented_names():
    """Every identifier in a code span of README.md."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return set(re.findall(r"\w+", " ".join(spans)))


def benchmark_names():
    return set(re.findall(r"\w+", " ".join(
        path.read_text() for path in (ROOT / "perfbench").glob("*.py"))))


def test_the_guard_sees_the_sources():
    assert {"cli.py", "pair.py", "scenarios.py"} <= set(MODULES)
    assert entry_points() == {"main"}
    assert {"read_snapshot", "FlowHistory"} <= documented_names()
    assert {"pair_step", "nls_step"} <= benchmark_names()


def test_every_public_definition_has_a_reader():
    trees = {module: ast.parse((SOURCE / module).read_text())
             for module in MODULES}
    reads = {module: names_read(tree) for module, tree in trees.items()}
    outside = entry_points() | documented_names() | benchmark_names()
    public = [(module, name) for module, tree in trees.items()
              for name in public_definitions(tree)]
    assert len(public) > 50
    unread = [f"{module} {name}" for module, name in public
              if name not in outside
              and not any(name in names for other, names in reads.items()
                          if other != module)]
    assert unread == []
