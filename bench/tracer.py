"""Outside-in spans around the public functions of the pinstacks modules.

``Tracer.install`` replaces every module's own binding of each public
function (``from .greens import greens`` re-binds ``greens`` in modes,
scattering, steering and cli) with one wrapper per function, so a call is
recorded whichever module makes it.  Private helpers stay unwrapped; their
time lands in the self time of the public caller (``_lattice_sum`` called by
``steering._factor_complex`` shows up in ``steering.resonance_beta.self_s``).

A span is [name, tag, parent index, start, end, failed, meta], kept in
memory in start order, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

MODULES = ("greens", "modes", "scattering", "steering", "cli")
NAME, TAG, PARENT, START, END, FAILED, META = range(7)


def _greens_tag(args, kwargs) -> str:
    y = args[2] if len(args) > 2 else kwargs["y"]
    return "online" if y == 0.0 else "offline"


# per-span extras: an on/off source-line tag for greens, and counts taken
# from return values where the work's outcome is only visible there
TAGS = {"greens.greens": _greens_tag}
METAS = {
    "scattering.spectrum_scan": lambda recs: (len(recs), sum(r.error is not None for r in recs)),
    "steering.feature_scan": len,
    "steering.steer": lambda results: sum(r.error is not None for r in results),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open = [-1]
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        tag, meta = TAGS.get(name), METAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, tag(args, kwargs) if tag else None, open_[-1],
                    perf_counter(), 0.0, False, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                open_.pop()
            if meta:
                span[META] = meta(result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"pinstacks.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("pinstacks.")):
                    continue
                if fn not in wrappers:
                    owner = fn.__module__.rsplit(".", 1)[1]
                    wrappers[fn] = self.wrap(f"{owner}.{fn.__name__}", fn)
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.spans.clear()

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({**extra, "fields": ["name", "tag", "parent", "start", "end",
                                           "failed", "meta"],
                       "spans": self.spans}, f, separators=(",", ":"))


def _union(intervals) -> float:
    """Total length covered by intervals given in order of start."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _union(sorted(c)) for s, c in zip(spans, children)]


def _under(spans: list[list], name: str) -> list[bool]:
    """Whether each span has an ancestor called name."""
    flags: list[bool] = []
    for s in spans:
        p = s[PARENT]
        flags.append(p >= 0 and (spans[p][NAME] == name or flags[p]))
    return flags


def layer_metrics(spans: list[list]) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    own = self_times(spans)

    def pick(name, tag=None):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (tag is None or s[TAG] == tag)]

    def busy(idx):
        return _union(sorted((spans[i][START], spans[i][END]) for i in idx))

    def selftime(idx):
        return sum(own[i] for i in idx)

    def per_call_us(idx):
        return 1e6 * sum(spans[i][END] - spans[i][START] for i in idx) / len(idx) if idx else 0.0

    greens_all = pick("greens.greens")
    online, offline = pick("greens.greens", "online"), pick("greens.greens", "offline")
    assemble, scatter = pick("modes.assemble"), pick("scattering.scatter")
    resonance = pick("steering.resonance_beta")
    scans = pick("scattering.spectrum_scan")
    features = pick("steering.feature_scan")
    in_scatter = _under(spans, "scattering.scatter")
    in_xi_edit = _under(spans, "steering.find_xi_edit")
    in_feature = _under(spans, "steering.feature_scan")
    evaluated = sum(1 for i in scatter if in_feature[i])
    cli = [i for i, s in enumerate(spans) if s[NAME].startswith("cli.")]

    m = {
        "greens.online.calls": len(online),
        "greens.online.us_per_call": per_call_us(online),
        "greens.offline.calls": len(offline),
        "greens.offline.us_per_call": per_call_us(offline),
        "greens.busy_s": busy(greens_all),
        "greens.failed": sum(spans[i][FAILED] for i in greens_all),
        "modes.assemble.calls": len(assemble),
        "modes.assemble.busy_s": busy(assemble),
        "modes.assemble.self_s": selftime(assemble),
        "scattering.scatter.calls": len(scatter),
        "scattering.scatter.busy_s": busy(scatter),
        "scattering.scatter.self_s": selftime(scatter),
        "scattering.greens_per_scatter":
            sum(1 for i in greens_all if in_scatter[i]) / len(scatter) if scatter else 0.0,
        "scattering.spectrum_scan.points": sum(spans[i][META][0] for i in scans if spans[i][META]),
        "scattering.spectrum_scan.failed": sum(spans[i][META][1] for i in scans if spans[i][META]),
    }
    for stage in ("find_beta_g", "find_eta_star", "resonance_beta", "find_xi_edit",
                  "feature_scan", "q_factor", "steer"):
        m[f"steering.{stage}.busy_s"] = busy(pick(f"steering.{stage}"))
    m.update({
        "steering.resonance_beta.calls": len(resonance),
        "steering.resonance_beta.self_s": selftime(resonance),
        "steering.find_xi_edit.resonance_calls": sum(1 for i in resonance if in_xi_edit[i]),
        "steering.feature_scan.kept_ratio":
            sum(spans[i][META] or 0 for i in features) / evaluated if evaluated else 0.0,
        "steering.steer.failed": sum(spans[i][META] or 0 for i in pick("steering.steer")),
        "cli.main.busy_s": busy(pick("cli.main")),
        "cli.self_s": selftime(cli),
    })
    return m
