import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cartaneds"


def test_runtime_imports_only_the_standard_library():
    # the engine runs on a bare Python: every import is relative (inside the
    # package) or names a standard-library module
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {t}" for t in tops
                        if t not in sys.stdlib_module_names]
    assert outside == []
