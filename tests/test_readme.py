import importlib
import pkgutil
import re
from pathlib import Path

import quadrelax

README = Path(__file__).resolve().parents[1] / "README.md"
_ABSENT = object()


def test_library_quick_start_runs():
    # the block uses only public names, so a removed name fails here
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})


def _member(obj, name):
    """obj's attribute name, else its dataclass field of that name (a field without a
    default is no class attribute), else _ABSENT."""
    fields = getattr(obj, "__dataclass_fields__", {})
    return getattr(obj, name, fields.get(name, _ABSENT))


def _resolve(roots, dotted):
    """The first of the roots on which the dotted name resolves, or _ABSENT."""
    for root in roots:
        obj = root
        for part in dotted.split("."):
            obj = _member(obj, part)
            if obj is _ABSENT:
                break
        else:
            return obj
    return _ABSENT


def test_removed_names_do_not_resolve():
    # every name before the colon of a "Removed names" bullet, without its argument
    # list: a dotted one under quadrelax and its submodules, a bare one there and on
    # the class the bullet names first
    roots = [quadrelax, *(importlib.import_module(f"quadrelax.{info.name}")
                          for info in pkgutil.iter_modules(quadrelax.__path__))]
    section = README.read_text(encoding="utf-8").split("\nRemoved names:", 1)[1]
    bullets = re.split(r"\n- ", section.split("\n\n", 1)[0])[1:]
    assert len(bullets) >= 16
    for bullet in bullets:
        names = [re.sub(r"\(.*\)$", "", name).lstrip(".")
                 for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0])]
        assert names, bullet
        owner = _resolve(roots, names[0].split(".")[0])
        for name in names:
            places = roots if "." in name or owner is _ABSENT else [*roots, owner]
            assert _resolve(places, name) is _ABSENT, f"{name} still resolves ({bullet[:40]}...)"
