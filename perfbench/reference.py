"""A fixed pure-Python workload that measures how fast the machine is now.

The machine the benchmark runs on may be shared: its speed can drift by
more than half over a few minutes as other tenants' load comes and goes,
and every op of a run slows alike.  Timing this reference next to the ops
measures that drift, so times can be reported at one nominal speed.

It shares no code with ccgscope but does the kind of work the engine does
most: it tokenizes category-like text, parses it by recursive descent into
nested tuples, prints each tree back and counts the printed forms in a dict.
Under load it slows by about the factor the engine's ops slow by; a tight
loop over small objects slows more than the engine does.
"""

import re
from time import perf_counter

# About the median time of one reference() call on the CPU the benchmark
# was defined on (a 2-vCPU Intel Xeon VM, Python 3.11.7) while it was quiet.
# Scaled times are times on a machine where the reference takes this long.
NOMINAL_S = 0.0022

_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_LINES = [f"((s:p{i}(X{i}, f(Y, g{i % 5}(Z)))\\np:num(X{i}, sg))/np:num(Y, M{i % 3}))/n:N{i}"
          for i in range(150)]


def _term(toks, i):
    name = toks[i]
    i += 1
    if i < len(toks) and toks[i] == "(":
        args = []
        while toks[i] != ")":
            arg, i = _term(toks, i + 1)
            args.append(arg)
        return (name, tuple(args)), i + 1
    return name, i


def _print(t) -> str:
    if isinstance(t, str):
        return t
    return f"{t[0]}({', '.join(_print(a) for a in t[1])})"


def reference() -> int:
    seen: dict = {}
    for line in _LINES:
        toks = _TOKEN.findall(line)
        parts, i = [], 0
        while i < len(toks):
            if toks[i] in "()/\\:":
                parts.append(toks[i])
                i += 1
            else:
                tree, i = _term(toks, i)
                parts.append(tree)
        key = "".join(_print(p) for p in parts)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def time_reference() -> float:
    """Seconds for one reference() call."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
