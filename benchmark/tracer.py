"""Per-layer counts and times, taken by wrapping jordanblocks' functions from outside.

Nothing in the library is edited.  ``Tracer.install`` replaces each traced
function by a timing wrapper in every ``jordanblocks`` module namespace that
holds it (the modules import names directly, e.g. ``from .linalg import
jordan_partition``), and replaces traced methods on their classes;
``uninstall`` puts the originals back.  A span's self time is its duration
minus the time of the traced spans it encloses.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _field_split(base):
    """Key a Matrix method by its field: ``<base>_fp`` or ``<base>_q``."""
    return lambda args: f"{base}_fp" if args[0].field.p else f"{base}_q"


#: (module, attribute or Class.method, span key or key function)
TARGETS = (
    ("linalg", "Matrix.rank", _field_split("linalg.rank")),
    ("linalg", "Matrix.__matmul__", _field_split("linalg.matmul")),
    ("linalg", "Matrix.kron", "linalg.kron"),
    ("linalg", "Matrix.inverse", "linalg.solve"),
    ("linalg", "solve_in_columns", "linalg.solve"),
    ("linalg", "jordan_partition", "linalg.jordan_partition"),
    ("repring", "tensor_operator", "repring.tensor_operator"),
    ("repring", "power_operator", "repring.power_operator"),
    ("repring", "induced_quotient_operator", "repring.quotient"),
    ("repring", "structure_constants", "repring.constants"),
    ("repring", "tensor_partition", "repring.tensor_partition"),
    ("repring", "ring_multiply", "repring.ring_multiply"),
    ("fgl", "random_generalized_law", "fgl.law_build"),
    ("fgl", "random_fgl", "fgl.law_build"),
    ("fgl", "iterated_tensor_series", "fgl.tensor_series"),
    ("fgl", "GeneralizedLaw.eval", "fgl.eval"),
    ("series", "TruncatedPoly.__mul__", "series.mul"),
    ("series", "TruncatedPoly.substitute", "series.substitute"),
    ("series", "build_automorphism", "series.automorphism"),
    ("series", "symmetric_split", "series.symmetric_split"),
    ("series", "mult_matrix", "series.mult_matrix"),
    ("series", "compose_inverse", "series.compose_inverse"),
    ("classical", "nilpotent_adjoint_partition", "classical.ad"),
    ("classical", "unipotent_adjoint_partition", "classical.Ad"),
    ("classical", "good_char_report", "classical.report"),
    ("g2", "g2_table", "g2.table"),
    ("g2", "lie_closure", "g2.closure"),
    ("char0", "check_theorem", "char0.check"),
)

#: Counts that must repeat exactly between passes and between runs of one seed.
STABLE_COUNTS = ("linalg.rank_calls", "linalg.rank_entries",
                 "repring.memo_hits", "repring.memo_misses")


class Tracer:
    def __init__(self):
        self._patches: list = []
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self._stack: list = []
        self.reset()

    def reset(self) -> None:
        """Zero every count and time; installed wrappers keep working."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self._stack.clear()
        self.rank_entries = 0
        self.max_operator_entries = 0
        self.memo_hits = 0

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, fn, key):
        key_of = key if callable(key) else (lambda args: key)
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            k = key_of(args)
            if k.startswith("linalg.rank") or k == "linalg.jordan_partition":
                entries = args[0].nrows * args[0].ncols
                tracer.max_operator_entries = max(tracer.max_operator_entries, entries)
                if k != "linalg.jordan_partition":
                    tracer.rank_entries += entries
            nested_before = calls["repring.tensor_partition"]
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[k] += 1
                total[k] += dt
                self_time[k] += dt - child
                if stack:
                    stack[-1] += dt
                # a memo hit is a structure_constants call that built nothing
                if k == "repring.constants" and calls["repring.tensor_partition"] == nested_before:
                    tracer.memo_hits += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "jordanblocks" or name.startswith("jordanblocks.")]
        for modname, attr, key in TARGETS:
            owner = sys.modules[f"jordanblocks.{modname}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, key))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, key)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- metrics --------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of the traced interval, by the benchmark's names."""
        c, t, s = self.calls, self.total, self.self_time
        constants = c["repring.constants"]
        return {
            "linalg.rank_calls": c["linalg.rank_fp"] + c["linalg.rank_q"],
            "linalg.rank_entries": self.rank_entries,
            "linalg.rank_fp_s": t["linalg.rank_fp"],
            "linalg.rank_q_s": t["linalg.rank_q"],
            "linalg.matmul_calls": c["linalg.matmul_fp"] + c["linalg.matmul_q"],
            "linalg.matmul_fp_s": t["linalg.matmul_fp"],
            "linalg.matmul_q_s": t["linalg.matmul_q"],
            "linalg.solve_s": t["linalg.solve"],
            "linalg.kron_s": t["linalg.kron"],
            "linalg.jordan_partition_calls": c["linalg.jordan_partition"],
            "linalg.jordan_partition_self_s": s["linalg.jordan_partition"],
            "linalg.max_operator_entries": self.max_operator_entries,
            "repring.tensor_operator_calls": c["repring.tensor_operator"],
            "repring.tensor_operator_self_s": s["repring.tensor_operator"],
            "repring.power_operator_self_s": s["repring.power_operator"],
            "repring.quotient_self_s": s["repring.quotient"],
            "repring.constants_calls": constants,
            "repring.memo_hits": self.memo_hits,
            "repring.memo_misses": constants - self.memo_hits,
            "repring.memo_hit_ratio": self.memo_hits / constants if constants else 0.0,
            "repring.ring_multiply_self_s": s["repring.ring_multiply"],
            "fgl.law_build_s": t["fgl.law_build"],
            "fgl.tensor_series_s": t["fgl.tensor_series"],
            "fgl.eval_calls": c["fgl.eval"],
            "series.mul_calls": c["series.mul"],
            "series.mul_s": t["series.mul"],
            "series.substitute_s": t["series.substitute"],
            "series.automorphism_s": t["series.automorphism"],
            "series.symmetric_split_s": t["series.symmetric_split"],
            "series.mult_matrix_s": t["series.mult_matrix"],
            "series.compose_inverse_s": t["series.compose_inverse"],
            "classical.ad_s": t["classical.ad"],
            "classical.Ad_s": t["classical.Ad"],
            "classical.self_s": (s["classical.ad"] + s["classical.Ad"]
                                 + s["classical.report"]),
            "g2.table_s": t["g2.table"],
            "g2.closure_calls": c["g2.closure"],
            "char0.check_s": t["char0.check"],
        }
