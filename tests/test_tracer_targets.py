"""The benchmark's traced run wraps package names listed in
``perfbench/tracer.py``; every one of them must still resolve.

``Tracer.install`` looks a method up in its class ``__dict__``, so a method
that moved to a base class or was renamed would break every traced run.
The tracer module is loaded from its file and only its ``TARGETS`` list is
read; nothing is installed.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for modname, attr, _ in _targets():
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            ok = cls is not None and callable(vars(cls).get(meth))
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(f"{modname}:{attr}")
    assert missing == []
