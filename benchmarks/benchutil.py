"""The table formatting shared by the benchmarks' result files."""


def fmt_row(cells, widths):
    """Fixed-width row rendering for the printed result tables."""
    return "  ".join(str(cell).ljust(width)
                     for cell, width in zip(cells, widths))
