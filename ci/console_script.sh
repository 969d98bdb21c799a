#!/usr/bin/env bash
# Runs the four CLI commands end to end, in the current directory, which
# receives the configs and every output. Two modes:
#
#   console_script.sh COMMAND [ARGS...]   # one process per command, e.g.
#                                         # "mfkrig" when installed
#   console_script.sh --in-process PYTHON # every command in one PYTHON
#                                         # process, through runpy as
#                                         # "python -m mfkrig.cli" runs it
#
# Either mode checks each command's exit code and exits non-zero as soon
# as one fails.
#
#   cd "$(mktemp -d)" && bash /path/to/ci/console_script.sh mfkrig
set -eu

if [ "$#" -eq 0 ] || { [ "$1" = "--in-process" ] && [ "$#" -ne 2 ]; }; then
  echo "usage: console_script.sh COMMAND [ARGS...]" >&2
  echo "       console_script.sh --in-process PYTHON" >&2
  exit 2
fi

echo '{"problem": "forrester", "sizes": [8, 4], "out": "fit"}' > fit.json
echo '{"model_dir": "fit", "grid": 11, "problem": "forrester", "out": "predict"}' > predict.json
echo '{"problem": "forrester", "sizes": [8, 4], "budget": 10, "costs": [1, 5], "refit": "always", "out": "sequential"}' > sequential.json
echo '{"trace": "sequential/trace.csv", "costs": [1, 5], "out": "report"}' > report.json
echo '{"model_dir": "fit", "grid": 11, "bounds": [[0, 1]], "out": "predict-bounds"}' > predict-bounds.json
# the level count comes from the design files fit wrote
echo '{"data_dir": "fit", "out": "fit-from-data"}' > fit-from-data.json
# ripple2d's top code is linear in the one below, so with a linear
# trend level 2 has round-off residuals and sigma2 at its floor
echo '{"problem": "ripple2d", "sizes": [12, 6], "levels": [{"trend": "linear"}, {"trend": "linear"}], "out": "ripple-fit"}' > ripple-fit.json
echo '{"problem": "ripple2d", "sizes": [12, 6], "levels": [{"trend": "linear"}, {"trend": "linear"}], "budget": 14, "refit": "always", "out": "ripple-sequential"}' > ripple-sequential.json
# a model saved over a deeper one must load as the one saved last
echo '{"problem": "chain3", "sizes": [10, 6, 3], "out": "refit"}' > refit-deep.json
echo '{"problem": "forrester", "sizes": [8, 4], "out": "refit"}' > refit-shallow.json
echo '{"model_dir": "refit", "grid": 11, "problem": "forrester", "out": "refit-predict"}' > refit-predict.json
# the data fix the level count: two sizes run chain3's first two levels;
# a linear scaling gives the frozen loop a rho that varies over the box
echo '{"problem": "chain3", "sizes": [10, 5], "levels": [{}, {"scaling": "linear"}], "budget": 12, "out": "prefix-sequential"}' > prefix-sequential.json
# every other command uses the default squared exponential; these run
# the Matern-5/2 likelihood and its gradient
echo '{"problem": "chain3", "sizes": [10, 6, 3], "levels": [{"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}], "out": "matern-fit"}' > matern-fit.json
echo '{"problem": "chain3", "sizes": [10, 6, 3], "levels": [{"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}], "budget": 12, "refit": "always", "out": "matern-sequential"}' > matern-sequential.json
# every other command searches and integrates on the default grids;
# this one runs the seeded uniform node sets
echo '{"problem": "forrester", "sizes": [8, 4], "budget": 10, "costs": [1, 5], "search": {"kind": "random", "n": 64, "seed": 3}, "quadrature": {"kind": "monte-carlo", "n": 256, "seed": 5}, "out": "uniform-sequential"}' > uniform-sequential.json
# a frozen 2-D loop on a seeded random search
echo '{"problem": "ripple2d", "sizes": [12, 6], "budget": 10, "search": {"kind": "random", "n": 64, "seed": 1}, "out": "random-sequential"}' > random-sequential.json
# the only frozen loop with three levels, choosing by cost per variance
echo '{"problem": "chain3", "sizes": [10, 6, 3], "budget": 12, "rule": "cost-weighted", "out": "cost-weighted-sequential"}' > cost-weighted-sequential.json
# reestimates every third iteration of a three-level loop: the frozen
# refits between keep the levels a run did not reach, a level-3 run grows
# every level, and each reestimate keeps the levels no run grew since
# their search and searches the others from their last lengthscales
echo '{"problem": "chain3", "sizes": [10, 6, 3], "budget": 30, "refit": "every-3", "rule": "cost-weighted", "out": "every-sequential"}' > every-sequential.json
# the grid search runs out of candidates long before the budget does
echo '{"problem": "forrester", "sizes": [8, 4], "budget": 100, "search": {"kind": "grid", "n": 5}, "quadrature": {"kind": "grid", "n": 16}, "out": "exhausted-sequential"}' > exhausted-sequential.json
# one search node and one quadrature node: the level rule and the IMSE
# read the one-point solve predict runs
echo '{"problem": "forrester", "sizes": [8, 4], "budget": 10, "search": {"kind": "grid", "n": 1}, "quadrature": {"kind": "grid", "n": 1}, "rule": "cost-weighted", "out": "one-node-sequential"}' > one-node-sequential.json
# predicts at one design point of fit and one point off the design: the
# command reads a points file through the CSV number parser, and the
# design point takes the matched nugget
echo '{"model_dir": "fit", "points_file": "points.csv", "out": "predict-points"}' > predict-points.json

# One step a line: the arguments of one command, or, after "! ", a shell
# line run between commands.
steps() {
  cat <<'STEPS'
fit --config fit.json --quiet
predict --config predict.json --quiet
sequential --config sequential.json --quiet
report --config report.json --quiet
! { head -2 fit/design_1.csv; echo 0.123456789; } > points.csv
predict --config predict-points.json --quiet
predict --config predict-bounds.json --quiet
fit --config fit-from-data.json --quiet
fit --config ripple-fit.json --quiet
sequential --config ripple-sequential.json --quiet
fit --config refit-deep.json --quiet
fit --config refit-shallow.json --quiet
predict --config refit-predict.json --quiet
sequential --config prefix-sequential.json --quiet
fit --config matern-fit.json --quiet
sequential --config matern-sequential.json --quiet
sequential --config uniform-sequential.json --quiet
sequential --config random-sequential.json --quiet
sequential --config cost-weighted-sequential.json --quiet
sequential --config every-sequential.json --quiet
sequential --config exhausted-sequential.json --quiet
sequential --config one-node-sequential.json --quiet
STEPS
}

if [ "$1" = "--in-process" ]; then
  steps | "$2" -c '
import runpy, subprocess, sys
for step in sys.stdin.read().splitlines():
    code = 0
    if step.startswith("! "):
        code = subprocess.run(["bash", "-c", step[2:]]).returncode
    else:
        sys.argv = ["mfkrig", *step.split()]
        try:
            runpy.run_module("mfkrig.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code or 0
    if code:
        print(f"console_script.sh: {step!r} exited {code}", file=sys.stderr)
        sys.exit(code if isinstance(code, int) else 1)
'
  exit
fi

while IFS= read -r step <&3; do
  case "$step" in
    "! "*) eval "${step#! }" ;;
    *) "$@" $step ;;  # the arguments split on spaces
  esac
done 3< <(steps)
