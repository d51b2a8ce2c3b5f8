"""Time the agreement score and its null on two film shapes.

    python3 bench/agreement_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``) and
builds two seeded films: 5 annotators x 400 clips (the shape of the
benchmark's timelines films, 10 pairs) and 2 annotators x 5,000 clips.
It sets only the excluded levels, so a checkout with the exact null and
one with a sampled null (at its default trial count) both run it. Each
annotator copies a shared level sequence (40% EN, 20% HN, 10% NS, 30%
S) on 70% of the clips and draws afresh from the same mix on the rest.
For each film, with nothing and with NS excluded, it prints one JSON
line with the seconds of ``gamma_per_film_and_average`` (median of N
runs), the peak of memory allocated during one more call under
``tracemalloc``, and two digests of the per-pair results:
``digest_csv`` at the 6 decimals that ``gamma.csv`` writes, and
``digest_exact`` over the full float values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

from timing import median_s

#: (annotators, clips) of each film.
SHAPES = ((5, 400), (2, 5000))
LEVEL_MIX = (0.4, 0.2, 0.1, 0.3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from gazelab import GammaConfig, ObjLevel, gamma_per_film_and_average

    rng = np.random.default_rng(8)
    for annotators, clips in SHAPES:
        shared = rng.choice(4, size=clips, p=LEVEL_MIX)
        film = {}
        for a in range(annotators):
            own = np.where(rng.random(clips) < 0.7, shared, rng.choice(4, size=clips, p=LEVEL_MIX))
            film[f"a{a}"] = [ObjLevel(int(v)) for v in own]
        for excluded in ((), ("NS",)):
            cfg = GammaConfig(excluded_levels={ObjLevel.from_name(e) for e in excluded})
            seconds, summary = median_s(
                lambda: gamma_per_film_and_average({"film": film}, cfg), args.repeats
            )
            tracemalloc.start()
            gamma_per_film_and_average({"film": film}, cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows = [(p.annotator_a, p.annotator_b, *astuple(p.result)) for p in summary.per_pair]
            csv = [f"{a}|{b},{g:.6f},{o:.6f},{e:.6f},{n}" for a, b, g, o, e, n in rows]
            print(
                json.dumps(
                    {
                        "annotators": annotators,
                        "clips": clips,
                        "exclude": list(excluded),
                        "repeats": args.repeats,
                        "seconds": round(seconds, 4),
                        "tracemalloc_peak_mb": round(peak / 2**20, 2),
                        "average": round(summary.average, 6),
                        "digest_csv": hashlib.sha256("\n".join(csv).encode()).hexdigest()[:16],
                        "digest_exact": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
                    }
                ),
                flush=True,
            )


if __name__ == "__main__":
    main()
