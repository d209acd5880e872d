"""Readers (and a writer) for the CSV files the CLI and the simulator produce,
used by the round-trip tests."""

from polarmhw.channel import render_fer_csv

BOUND_HEADER = "trigger,overlap,term"
SWEEP_HEADER = "R,K,d_m,bound,exact"
FER_COLUMNS = (
    "ebn0_db", "trials", "errors", "fer", "ci_lo", "ci_hi",
    "estimate_exact", "estimate_bound",
)


def _read_csv_rows(path, header: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    data = [line for line in lines if not line.startswith("#")]
    if not data or data[0] != header:
        raise ValueError(f"{path}: missing header row {header!r}")
    return data[1:]


def read_bound_csv(path):
    """Parse a `bound --csv` file into per-trigger dicts."""
    rows = []
    for lineno, line in enumerate(_read_csv_rows(path, BOUND_HEADER), start=2):
        cells = line.split(",")
        if len(cells) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns")
        rows.append({"trigger": int(cells[0]), "overlap": int(cells[1]), "term": int(cells[2])})
    return rows


def read_sweep_csv(path):
    """Parse a `sweep` CSV into per-rate dicts; exact is None when skipped."""
    rows = []
    for lineno, line in enumerate(_read_csv_rows(path, SWEEP_HEADER), start=2):
        cells = line.split(",")
        if len(cells) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 columns")
        rows.append(
            {
                "R": float(cells[0]),
                "K": int(cells[1]),
                "d_m": int(cells[2]),
                "bound": int(cells[3]),
                "exact": None if cells[4] == "" else int(cells[4]),
            }
        )
    return rows


def write_fer_csv(path, spec, points, header_lines=()) -> None:
    """Write render_fer_csv output to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_fer_csv(spec, points, header_lines))


def read_fer_csv(path):
    """Parse a render_fer_csv file back into a list of per-point dicts.

    Comment lines are skipped; the header row and column count are checked
    so a written file always reads back.
    """
    out = []
    for lineno, line in enumerate(_read_csv_rows(path, ",".join(FER_COLUMNS)), start=2):
        cells = line.split(",")
        if len(cells) != len(FER_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(FER_COLUMNS)} columns")
        row = {}
        for name, cell in zip(FER_COLUMNS, cells):
            row[name] = int(cell) if name in ("trials", "errors") else float(cell)
        out.append(row)
    return out
