"""No floating point anywhere in the package, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bethestates"

MATH_FLOAT = {"sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "pow", "fsum"}

# the one use of the name: the guard that turns a float p0 away
GUARD = ("util.py", "exact_p0", "isinstance(p0, float)")


def float_uses(source: str, filename: str) -> list:
    """(file, enclosing function, source text) of every float literal, every
    use of the name ``float`` (shown as its innermost call) and every
    floating-point function of ``math``, in the order of the tree."""
    found = []

    def visit(node, func, call):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            call = node
        at = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            at = node
        elif isinstance(node, ast.Name) and node.id == "float":
            at = call or node
        elif (isinstance(node, ast.Attribute) and node.attr in MATH_FLOAT
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            at = node
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name in MATH_FLOAT for a in node.names)):
            at = node
        if at is not None:
            found.append((filename, func, ast.get_source_segment(source, at)))
        for child in ast.iter_child_nodes(node):
            visit(child, func, call)

    visit(ast.parse(source), None, None)
    return found


def test_package_has_no_floating_point():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [use for path in paths for use in float_uses(path.read_text(), path.name)]
    assert found == [GUARD]


def test_float_scan_can_fail():
    snippet = (
        "import math\n"
        "from math import fsum as total\n"
        "HALF = 0.5\n"
        "def exact_p0(p0):\n"
        "    return isinstance(p0, float) or float(p0) > math.sqrt(2) + 1e3j\n"
        "def scale(x):\n"
        "    return math.log(x) * math.exp(x) + math.pow(x, 2) + math.floor(x)\n"
    )
    assert float_uses(snippet, "snippet.py") == [
        ("snippet.py", None, "from math import fsum as total"),
        ("snippet.py", None, "0.5"),
        ("snippet.py", "exact_p0", "isinstance(p0, float)"),
        ("snippet.py", "exact_p0", "float(p0)"),
        ("snippet.py", "exact_p0", "math.sqrt"),
        ("snippet.py", "exact_p0", "1e3j"),
        ("snippet.py", "scale", "math.log"),
        ("snippet.py", "scale", "math.exp"),
        ("snippet.py", "scale", "math.pow"),
    ]
