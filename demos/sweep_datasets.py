"""Produce the three bundled sweep datasets as CSV files.

Writes one file per preset into the working directory. The same data is
available from the command line via `wynerrelay figure <name>`; this
script shows the library route and prints a quick summary of each table.
"""

from wynerrelay import emit, figure_spec, run_sweep

PRESETS = ("fig3", "fig4", "fig5")


def main():
    for name in PRESETS:
        spec = figure_spec(name)
        table = run_sweep(spec)
        path = f"{name}_rates.csv"
        with open(path, "wb") as handle:
            handle.write(emit(table, "csv"))

        gaps = [bound - cf for bound, cf in
                zip(table.columns["upper_bound"], table.columns["cf"])]
        print(f"{path}: axis {spec.axis} from {spec.start:g} to {spec.stop:g}, "
              f"{spec.points} points")
        print(f"  bound-to-cf gap: min {min(gaps):.4f}, max {max(gaps):.4f} bit/use")


if __name__ == "__main__":
    main()
