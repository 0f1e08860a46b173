"""Time the set-up a fresh ``suitgraph`` process pays before its first round.

Usage: python3 setup_probe.py SRC_DIR TAXONOMY GT_OR_DASH KB_OR_DASH

Covers ``import suitgraph``, the taxonomy parse plus ``checksum()``, the
ground-truth parse and the store load, and prints the seconds taken, in
reference seconds (see ``refclock.py``) and then raw.
"""

import sys
from pathlib import Path

from refclock import RefClock

src, taxonomy, gt_path, kb_path = sys.argv[1:5]
sys.path.insert(0, src)
clock = RefClock()
import suitgraph  # noqa: E402  (the import is part of what is timed)

clock.lap()
hierarchy = suitgraph.load_hierarchy(taxonomy)
clock.lap()
checksum = hierarchy.checksum()
clock.lap()
if gt_path != "-":
    suitgraph.GroundTruthMatrix.from_json(Path(gt_path).read_text(encoding="utf-8"))
    clock.lap()
if kb_path != "-":
    suitgraph.KnowledgeBase.load(kb_path, expected_checksum=checksum)
    clock.lap()
print(clock.total_s, clock.raw_ns / 1e9)
