"""The function table ``run_shard`` reads across an import."""

import os


def _cwd_row() -> str:
    return os.getcwd()                           # CDE004 (a table entry)


MEASURES = {"cwd": _cwd_row}
