"""Lists the runtime functions that no CLI command calls.

Run as a script in a fresh interpreter; it imports qlsm from src/:

    python tests/reach_probe.py OUT_DIR

It runs price, scaling, validate-bounds --strict and dump-oracle on each
probe config below under sys.settrace call events, then prints one JSON
object: "functions" lists every function defined in src/qlsm as
"module:qualname", "unrun" those that never ran, "modules" the qlsm
modules loaded by the end, "exits" the exit code of each run and "stderr"
what each run wrote to standard error. A fresh interpreter matters: a warm
lru_cache or law table left by earlier work in the same process would skip
calls, and earlier imports would count as loaded modules. The chain file
that the "custom-json" config reads is written before tracing starts.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qlsm"
COMMANDS = (["price"], ["scaling"], ["validate-bounds", "--strict"], ["dump-oracle"])

ALL_PASS = (0, 0, 0, 0)

# name -> (config document, expected exit code of each command in COMMANDS);
# a None document runs the commands without --config.
PROBE_CONFIGS = {
    "cli-reference": (json.loads((REPO / "perfbench" / "cli_reference.json").read_text()),
                      ALL_PASS),
    "gbm-1d": ({"model": "gbm", "dimension": 1, "payoff": {"name": "call", "strike": 1.0},
                "basis": {"kind": "gbm", "degree": 1, "cube_radius": 20.0}}, ALL_PASS),
    "default": (None, ALL_PASS),
    "hermite-2d": ({"dimension": 2, "grid_size": 5,
                    "basis": {"kind": "hermite", "degree": 2, "cube_radius": 4.0},
                    "trials": 2}, ALL_PASS),
    # chain_file is set to the file written from CUSTOM_CHAIN.
    "custom-json": ({"model": "custom-json", "payoff": {"name": "constant", "strike": 1.0},
                     "basis": {"kind": "monomial", "degree": 1}, "trials": 2}, ALL_PASS),
    # A degree-5 Hermite basis on a 5-point grid is singular at a step: the
    # regressing commands exit 2 on SingularGram, and say so; dump-oracle
    # regresses nothing.
    "hermite-2d-singular": ({"dimension": 2, "grid_size": 5, "horizon": 4,
                             "basis": {"kind": "hermite", "degree": 5, "cube_radius": 4.0},
                             "trials": 1}, (2, 2, 2, 0)),
}
# discretize_brownian arguments of the custom-json chain: the default config's.
CUSTOM_CHAIN = (1, 3, 4, 2.0)


def expected_exits() -> dict[str, int]:
    """The exit code each run should end with, keyed as the probe's "exits"."""
    return {f"{name} {' '.join(command)}": code
            for name, (_, codes) in PROBE_CONFIGS.items()
            for command, code in zip(COMMANDS, codes)}


def _defs(node, prefix=""):
    """(first line, name, qualname) of every def under node, the first line
    being that of the first decorator, as in co_firstlineno."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), child.name, qualname
            yield from _defs(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def runtime_modules() -> dict[Path, str]:
    """Every module file under src/qlsm, mapped to its dotted name."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        found[path] = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    return found


def runtime_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every def in the runtime modules, mapped
    to "module:qualname"."""
    found = {}
    for path, module in runtime_modules().items():
        for first, name, qualname in _defs(ast.parse(path.read_text())):
            found[(str(path), first, name)] = f"{module}:{qualname}"
    return found


def probe(out_dir: Path) -> dict:
    functions = runtime_functions()
    called = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

    exits, stderr = {}, {}
    sys.path.insert(0, str(PACKAGE.parent))
    from qlsm.chain import discretize_brownian

    chain_file = out_dir / "custom-chain.json"
    chain_file.write_text(discretize_brownian(*CUSTOM_CHAIN).to_json())
    sys.settrace(on_call)
    try:
        from qlsm.harness.cli import main

        for name, (doc, _) in PROBE_CONFIGS.items():
            config = []
            if doc is not None:
                if doc.get("model") == "custom-json":
                    doc = dict(doc, chain_file=str(chain_file))
                path = out_dir / f"{name}.json"
                path.write_text(json.dumps(doc))
                config = ["--config", str(path)]
            for command in COMMANDS:
                run, err = f"{name} {' '.join(command)}", io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    exits[run] = main(command + config + ["--out", str(out_dir / name)])
                stderr[run] = err.getvalue()
    finally:
        sys.settrace(None)
    called = {(str(Path(file).resolve()), line, name) for file, line, name in called}
    unrun = sorted(label for key, label in functions.items() if key not in called)
    modules = sorted(m for m in sys.modules if m.split(".")[0] == "qlsm")
    return {"functions": sorted(set(functions.values())), "unrun": unrun, "modules": modules,
            "exits": exits, "stderr": stderr}


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1])), indent=1))
