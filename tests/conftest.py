import hypothesis
import numpy as np
import pytest

from screenfit.table import ColumnKind, ColumnSpec, DataTable, TableSchema

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


def make_table(columns: dict, kinds: dict, target: str = "y", levels: dict | None = None) -> DataTable:
    """Build a DataTable from plain dicts; categorical values stay strings."""
    levels = levels or {}
    specs = []
    arrays = {}
    for name, values in columns.items():
        kind = kinds[name]
        if kind is ColumnKind.CATEGORICAL:
            declared = levels.get(name)
            if declared is None:
                declared = tuple(sorted({v for v in values if v is not None}))
            specs.append(ColumnSpec(name=name, kind=kind, levels=tuple(declared)))
            arrays[name] = np.array(list(values), dtype=object)
        else:
            specs.append(ColumnSpec(name=name, kind=kind))
            arrays[name] = np.array(list(values), dtype=float)
    schema = TableSchema(columns=tuple(specs), target=target)
    return DataTable(schema, arrays)


# The column of each kind in the binary_target_table fixture.
COLUMN_OF_KIND = {
    ColumnKind.BINARY: "flag",
    ColumnKind.LIKELIHOOD: "level",
    ColumnKind.CONTINUOUS: "amount",
    ColumnKind.CATEGORICAL: "group",
}


@pytest.fixture
def binary_target_table():
    """Small mixed-kind table with both target classes present."""
    return make_table(
        {
            "flag": [0, 1, 1, 0, 1, 0, 1, 1],
            "level": [10, 20, 30, 40, 50, 60, 70, 80],
            "amount": [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5],
            "group": ["a", "b", "a", "b", "a", "b", "a", "b"],
            "y": [0, 1, 0, 1, 0, 1, 0, 1],
        },
        {
            "flag": ColumnKind.BINARY,
            "level": ColumnKind.LIKELIHOOD,
            "amount": ColumnKind.CONTINUOUS,
            "group": ColumnKind.CATEGORICAL,
            "y": ColumnKind.BINARY,
        },
    )
