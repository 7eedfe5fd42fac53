"""Every function the benchmark's tracer wraps still exists where it looks.

`bench/spans.py` patches misact's functions by (module, attribute) name for
`bench/run.py --trace 1`; a hook whose name no longer resolves would make
the traced run fail.  The hook table is read from the file by path, so this
test imports nothing of the benchmark beyond that one stdlib-only module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.HOOKS


def test_every_hook_resolves():
    hooks = load_hooks()
    assert hooks
    missing = [
        f"misact.{mod}.{attr}"
        for mod, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module("misact." + mod), attr, None))
    ]
    assert missing == []
