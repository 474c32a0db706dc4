"""Print the size of a riemopt source tree without importing it::

    python tools/size.py SRC

SRC holds the ``riemopt`` package (``src`` in this repository).  Prints the
lines of each module and their total, then the number of names in
``__all__``, of classes in ``riemopt.errors``, of ``SolverConfig`` fields,
and of function parameters that have a default (positional and keyword,
over every function and method of the package)."""

import ast
import os
import sys


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text.count("\n"), ast.parse(text, path)


def size(src):
    pkg = os.path.join(src, "riemopt")
    lines, trees = {}, {}
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        lines[name], trees[name] = _parse(os.path.join(pkg, name))

    def assigned(tree, target):
        return next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == target for t in node.targets))

    def named_class(tree, cls):
        return next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == cls)

    defaults = sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                   for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    counts = {
        "__all__ names": len(assigned(trees["__init__.py"], "__all__").elts),
        "riemopt.errors classes": sum(isinstance(node, ast.ClassDef)
                                      for node in trees["errors.py"].body),
        "SolverConfig fields": sum(isinstance(node, ast.AnnAssign) for node in
                                   named_class(trees["solvers.py"], "SolverConfig").body),
        "parameters with defaults": defaults,
    }
    return lines, counts


if __name__ == "__main__":
    lines, counts = size(sys.argv[1])
    for name, n in lines.items():
        print(f"{name:<20} {n:6d}")
    print(f"{'total':<20} {sum(lines.values()):6d}")
    for what, n in counts.items():
        print(f"{what:<26} {n}")
