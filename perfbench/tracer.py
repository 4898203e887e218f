"""Outside-in tracing: rebind the library's public functions to timing
wrappers, from the benchmark's own files, without touching ``src/``.

Every binding of a traced function in any ``hypercurrent.*`` namespace is
replaced, including names imported into other modules (such as
``ana_hyper.enumerate_dtrees``), so calls are seen whichever module makes
them.  Each call records a span (id, name, start, end, parent, op id); a
span stack gives self time, which excludes the time of traced children.
"""

import gzip
import json
import sys
import time


class Tracer:
    def __init__(self, names):
        self.names = list(names)               # "module.function"
        self.index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n                 # inclusive, outermost calls only
        self.self_s = [0.0] * n
        self.depth = [0] * n                   # open spans per function
        self.spans = []                        # (id, name index, start, end, parent id, op id)
        self.stack = []                        # [span id, time of traced children]
        self.op_id = -1
        self.next_id = 0
        self.rref_max_entries = 0
        self.trees_enumerated = 0
        self.greedy_under_functor = 0
        self._restore = []

    # -- hooks for the counters named in predictions.json --

    def _pre_rref(self, args):
        a = args[0]
        entries = len(a) * len(a[0]) if a and a[0] else 0
        if entries > self.rref_max_entries:
            self.rref_max_entries = entries

    def _post_enumerate(self, result):
        self.trees_enumerated += len(result)

    def _pre_greedy(self, args):
        if self.depth[self.index["topo_hyper.tree_functor"]]:
            self.greedy_under_functor += 1

    def _wrap(self, idx, fn):
        pre = {"ratlin.rref": self._pre_rref,
               "forests.greedy_dtree": self._pre_greedy}.get(self.names[idx])
        post = self._post_enumerate if self.names[idx] == "forests.enumerate_dtrees" else None
        stack, spans, depth = self.stack, self.spans, self.depth
        calls, total, self_s = self.calls, self.total, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            outermost = depth[idx] == 0
            depth[idx] += 1
            if pre is not None:
                pre(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                dur = end - start
                calls[idx] += 1
                if outermost:
                    total[idx] += dur
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, idx, start, end, parent, tracer.op_id))
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hypercurrent" or name.startswith("hypercurrent."))]
        for i, name in enumerate(self.names):
            module, func = name.split(".")
            original = getattr(sys.modules["hypercurrent." + module], func)
            wrapper = self._wrap(i, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results --

    def stats(self):
        """Flat metric dict: <fn>.calls/.total_s/.self_s, <module>.self_s, counters."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.total_s"] = self.total[i]
            out[f"{name}.self_s"] = self.self_s[i]
            module = name.split(".")[0]
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self.self_s[i]
        out["ratlin.rref.max_entries"] = self.rref_max_entries
        out["forests.trees_enumerated"] = self.trees_enumerated
        functor_calls = self.calls[self.index["topo_hyper.tree_functor"]]
        out["topo_hyper.tree_cache_hit_ratio"] = (
            1.0 - self.greedy_under_functor / functor_calls if functor_calls else 0.0
        )
        return out

    def dump(self, path):
        """Write the spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "names": self.names}) + "\n")
            for sid, idx, start, end, parent, op in self.spans:
                fh.write(f"[{sid},{idx},{start!r},{end!r},{parent},{op}]\n")
