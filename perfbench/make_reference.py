"""Regenerate perfbench/reference.json from the engine in src/.

For every signature with total length s <= 9, in reverse normal form, the
table holds the f-vector and the number of fiber children a cold
FaceCountEngine builds for it.  The f-vectors are the correctness
reference of the `wide` workload; the child counts only order the
population for its systematic sample.

    python3 perfbench/make_reference.py

Takes about a minute.  Regenerate only on purpose: the table is the
reference later engine changes are checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gtfaces import engine  # noqa: E402
from gtfaces.signatures import iter_signatures  # noqa: E402

MAX_S = 9


def main() -> None:
    shared = engine.FaceCountEngine()
    built = 0
    original = engine.fiber_child

    def counting_fiber_child(*args):
        nonlocal built
        built += 1
        return original(*args)

    rows = {}
    for s in range(1, MAX_S + 1):
        for sig in iter_signatures(s):
            if sig.mults > sig.mults[::-1]:
                continue
            f = shared.f_polynomial(sig).coeffs
            engine.fiber_child = counting_fiber_child
            built = 0
            try:
                engine.FaceCountEngine().f_polynomial(sig)
            finally:
                engine.fiber_child = original
            rows[",".join(map(str, sig.mults))] = {"f": list(f), "cold_fiber_children": built}
    lines = [f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in rows.items()]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} signatures to {HERE / 'reference.json'}")


if __name__ == "__main__":
    main()
