"""Generate docs/api.md — a flat API reference from live docstrings.

Usage:  python scripts/generate_api_docs.py [OUTPUT]   (``make docs``)

Walks the public surface of every ``repro`` subpackage (what ``__all__``
exports), pulls first-paragraph docstrings and signatures, and writes a
single markdown reference.  Kept dependency-free so it works offline.
The output is reproducible: regenerating without an API change rewrites
the same bytes (tests/test_api_docs.py checks the committed file).
"""

import importlib
import inspect
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGES = [
    "repro",
    "repro.automata",
    "repro.regex",
    "repro.transform",
    "repro.sim",
    "repro.core",
    "repro.hwmodel",
    "repro.baselines",
    "repro.workloads",
    "repro.prefilter",
    "repro.exec",
    "repro.extensions",
    "repro.experiments",
    "repro.obs",
]


def first_paragraph(obj):
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n", 1)[0].replace("\n", " ").strip()


def signature_of(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


#: The default ``object.__repr__`` form, which embeds a memory address.
_DEFAULT_REPR = re.compile(r"<(?:[\w.]+\.)?(\w+) object at 0x[0-9a-fA-F]+>")
#: A module repr, which embeds the checkout's file path.
_MODULE_REPR = re.compile(r"<module '([\w.]+)' from '[^']*'>")


def render_value(value):
    """``repr(value)`` with every default object repr in it (anywhere,
    including inside containers) replaced by the object's type name, and
    every module repr stripped of its file path."""
    text = _MODULE_REPR.sub(r"<module '\1'>", repr(value))
    return _DEFAULT_REPR.sub(r"\1", text)


def document_module(module_name, lines):
    module = importlib.import_module(module_name)
    lines.append("## `%s`" % module_name)
    lines.append("")
    summary = first_paragraph(module)
    if summary:
        lines.append(summary)
        lines.append("")
    exported = getattr(module, "__all__", None)
    if not exported:
        lines.append("_(no public exports)_")
        lines.append("")
        return
    for name in sorted(exported):
        member = getattr(module, name, None)
        if member is None:
            continue
        if inspect.isclass(member):
            lines.append("### class `%s%s`" % (name, signature_of(member)))
            lines.append("")
            lines.append(first_paragraph(member) or "_(undocumented)_")
            lines.append("")
            methods = [
                (method_name, method)
                for method_name, method in inspect.getmembers(
                    member, predicate=inspect.isfunction
                )
                if not method_name.startswith("_")
                and method.__qualname__.startswith(member.__name__ + ".")
            ]
            for method_name, method in methods:
                lines.append("- **`.%s%s`** — %s" % (
                    method_name, signature_of(method),
                    first_paragraph(method) or "_(undocumented)_",
                ))
            if methods:
                lines.append("")
        elif inspect.isfunction(member):
            lines.append("### `%s%s`" % (name, signature_of(member)))
            lines.append("")
            lines.append(first_paragraph(member) or "_(undocumented)_")
            lines.append("")
        elif inspect.ismodule(member):
            continue
        else:
            lines.append("- **`%s`** = `%s`" % (name, render_value(member)))
            lines.append("")


def main(output=ROOT / "docs" / "api.md"):
    lines = [
        "# API reference",
        "",
        "_Generated by `scripts/generate_api_docs.py`; regenerate after",
        "changing public APIs._",
        "",
    ]
    for package in PACKAGES:
        document_module(package, lines)
    path = pathlib.Path(output)
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("wrote %s (%d lines)" % (path, len(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
