#!/usr/bin/env bash
# Runs the four CLI commands end to end through the command given as the
# arguments ("mfkrig" when installed, or "python -m mfkrig.cli"), in the
# current directory, which receives the configs and every output.
# Exits non-zero as soon as any command does.
#
#   cd "$(mktemp -d)" && bash /path/to/ci/console_script.sh mfkrig
set -eu

if [ "$#" -eq 0 ]; then
  echo "usage: console_script.sh COMMAND [ARGS...]" >&2
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
# the data fix the level count: two sizes run chain3's first two levels
echo '{"problem": "chain3", "sizes": [10, 5], "budget": 12, "out": "prefix-sequential"}' > prefix-sequential.json
# every other command uses the default squared exponential; these run
# the Matern-5/2 likelihood and its gradient
echo '{"problem": "chain3", "sizes": [10, 6, 3], "levels": [{"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}], "out": "matern-fit"}' > matern-fit.json
echo '{"problem": "chain3", "sizes": [10, 6, 3], "levels": [{"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}, {"kernel": "matern-5/2"}], "budget": 12, "refit": "always", "out": "matern-sequential"}' > matern-sequential.json
# every other command searches and integrates on the default grids;
# this one runs the seeded uniform node sets, every start polished
echo '{"problem": "forrester", "sizes": [8, 4], "budget": 10, "costs": [1, 5], "search": {"kind": "multistart", "k": 4, "seed": 3}, "quadrature": {"kind": "monte-carlo", "n": 256, "seed": 5}, "out": "uniform-sequential"}' > uniform-sequential.json
for command in fit predict sequential report; do
  "$@" "$command" --config "$command.json" --quiet
done
"$@" predict --config predict-bounds.json --quiet
"$@" fit --config fit-from-data.json --quiet
"$@" fit --config ripple-fit.json --quiet
"$@" sequential --config ripple-sequential.json --quiet
"$@" fit --config refit-deep.json --quiet
"$@" fit --config refit-shallow.json --quiet
"$@" predict --config refit-predict.json --quiet
"$@" sequential --config prefix-sequential.json --quiet
"$@" fit --config matern-fit.json --quiet
"$@" sequential --config matern-sequential.json --quiet
"$@" sequential --config uniform-sequential.json --quiet
