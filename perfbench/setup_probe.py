"""Set-up of one benchmark run in a fresh interpreter.

Reads the workload's seeded maps as one JSON list on stdin, imports the
library and has it construct each map, then prints the numpy version.
The caller times the whole process, from start to inputs ready.

    PYTHONPATH=src python3 perfbench/setup_probe.py < maps.json
"""

import json
import sys

import numpy

import surfgraph

docs = json.load(sys.stdin)
graphs = [surfgraph.from_json_dict(doc) for doc in docs]
print(json.dumps({"numpy": numpy.__version__, "edges": [g.euler.e_count for g in graphs]}))
