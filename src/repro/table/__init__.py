"""An in-memory columnar table engine.

The paper's analyses were run on Google BigQuery; this subpackage is the
from-scratch substrate that replaces it.  It provides typed columns over
numpy arrays, a relational :class:`Table` with select / filter / sort /
group-by / join operators, and CSV serialization (the 2011 trace's native
format).  Column operators build filter masks and derived columns.

Quick tour:

>>> from repro.table import Table
>>> t = Table({"tier": ["prod", "beb", "beb"], "cpu": [0.5, 0.1, 0.2]})
>>> t.filter(t["tier"] == "beb").column("cpu").sum()
0.30000000000000004
>>> t.group_by("tier").agg(total=("cpu", "sum")).sort("tier").column("total").to_list()
[0.30000000000000004, 0.5]
"""

from repro.table.column import Column
from repro.table.groupby import GroupBy
from repro.table.io_csv import read_csv, write_csv
from repro.table.table import Table, concat

__all__ = [
    "Column",
    "GroupBy",
    "Table",
    "concat",
    "read_csv",
    "write_csv",
]
