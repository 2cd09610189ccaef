import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cartaneds"
FORMAT_READERS = {"poly.py", "scalars.py"}


def defined_names(tree):
    """Top-level names a module defines itself (not the ones it imports)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_only_scalars_reads_the_polynomial_format():
    # the dict-of-monomials format is poly.py's; Scalar is the one client
    # that sees it, so every other module goes through Scalar methods.  A
    # name poly defines counts wherever it is imported from, since scalars
    # re-binds the ones Scalar calls.
    poly_names = defined_names(ast.parse((SRC / "poly.py").read_text()))
    breaches = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in FORMAT_READERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                own = node.level > 0 or (node.module or "").startswith("cartaneds")
                names = {a.name for a in node.names}
                hit = own and ((node.module or "").split(".")[-1] == "poly"
                               or "poly" in names or bool(names & poly_names))
            elif isinstance(node, ast.Import):
                hit = any(a.name == "cartaneds.poly" for a in node.names)
            else:
                hit = isinstance(node, ast.Attribute) and node.attr in ("num", "den")
            if hit:
                breaches.append(f"{path.name}:{node.lineno}")
    assert breaches == []
