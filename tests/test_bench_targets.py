"""Every name the benchmark's tracer wraps is an attribute of its module.

perfbench/tracing.py lists in TARGETS each (module, attribute) whose calls
it times; a change that removes or renames one of them breaks every traced
benchmark run.  The file is parsed, not imported: the test only reads it.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of TARGETS in perfbench/tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError(f"{TRACING} assigns no TARGETS list")


def test_every_traced_target_resolves():
    # as Tracer.install reads them: a module attribute, or a method in the
    # class's own __dict__ for "Class.method"
    targets = traced_targets()
    assert ("badapprox.escape", "select_cap") in targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
