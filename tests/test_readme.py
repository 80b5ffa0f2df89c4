"""README.md names only live code."""

import builtins
import importlib
import os
import pkgutil
import re

import snowpoly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a name at the start of a code span, alone or called: `schubert.clear_caches()`
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
# a math subscript such as `x_i` or `s_i`: one letter, then the subscript
SUBSCRIPT = re.compile(r"[A-Za-z]_\w+")


def readme_names():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)  # fenced blocks
    for span in re.findall(r"`([^`]+)`", text):
        match = NAME.fullmatch(" ".join(span.split()))
        if match:
            yield match.group(1)


def test_every_backticked_name_in_the_readme_is_live_code():
    modules = {
        info.name: importlib.import_module(f"snowpoly.{info.name}")
        for info in pkgutil.iter_modules(snowpoly.__path__)
    }
    homes = [snowpoly, *modules.values()]
    stale = []
    checked = 0
    for name in readme_names():
        head, *attrs = name.split(".")
        if attrs and (head == "snowpoly" or head in modules):
            obj = snowpoly if head == "snowpoly" else modules[head]
            for attr in attrs:
                obj = getattr(obj, attr, None)
            live = obj is not None
        elif not attrs and "_" in name and not (
            hasattr(builtins, name) or SUBSCRIPT.fullmatch(name)
        ):
            live = any(hasattr(home, name) for home in homes)
        else:
            continue
        checked += 1
        if not live:
            stale.append(name)
    assert checked > 20
    assert stale == []
